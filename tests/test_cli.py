"""End-to-end command-line checks: flags, files, exit codes, determinism."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from panharmonic import analysis, cli
from panharmonic import mesh as meshing
from panharmonic.geometry import (Polygon, dump_domain, l_shape,
                                  regular_polygon, unit_disc, unit_square)
from panharmonic.solver import ResolutionWarning, solve_neumann
from strategies import skyline


@pytest.fixture()
def domains(tmp_path):
    paths = {}
    for name, dom in (("square", unit_square()), ("lshape", l_shape()),
                      ("disc", unit_disc())):
        p = tmp_path / f"{name}.json"
        dump_domain(dom, p)
        paths[name] = str(p)
    return paths


def _run(argv):
    return cli.main(argv)


class TestSolve:
    def test_writes_field_and_mesh(self, domains, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run(["solve", "--domain", domains["disc"], "--mu", "1",
                     "--target-h", "0.1", "--output-dir", str(out)])
        assert code == 0
        field_lines = (out / "field.txt").read_text().splitlines()
        mesh_lines = (out / "mesh.txt").read_text().splitlines()
        assert len(field_lines) == 817
        assert len(mesh_lines) == 817 + 1536
        assert "resolution_ok=True" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, domains, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run(["solve", "--domain", domains["disc"], "--mu", "1",
                         "--target-h", "0.1", "--output-dir", str(out)]) == 0
        assert (a / "field.txt").read_bytes() == (b / "field.txt").read_bytes()
        assert (a / "mesh.txt").read_bytes() == (b / "mesh.txt").read_bytes()

    def test_lshape_auto_target_resolves(self, domains, tmp_path, capsys):
        # auto refines the L-shape's root until 10 h_max <= 0.5: the first
        # level within 1.5 * 0.05 has h_max 0.0625, one more is needed.
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResolutionWarning)
            code = _run(["solve", "--domain", domains["lshape"], "--mu", "10",
                         "--output-dir", str(tmp_path / "l")])
        assert code == 0
        assert capsys.readouterr().out == (
            "solved dirichlet field: mu=10, 8385 nodes, h_max=0.03125, "
            "resolution_ok=True\n")


class TestVaradhan:
    def test_sweep_csv(self, domains, tmp_path):
        out = tmp_path / "v"
        code = _run(["varadhan", "--domain", domains["square"],
                     "--mu", "5", "--mu", "10",
                     "--target-h", "0.05", "--output-dir", str(out)])
        assert code == 0
        lines = (out / "varadhan.csv").read_text().splitlines()
        assert lines[0] == "mu,sup_error,error_x,error_y,envelope_constant,resolution_ok"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 5.0
        assert 0.0 < float(row[1]) < 1.0
        assert float(row[4]) >= 1.0  # envelope constant
        assert row[5] == "1"
        # 17 significant digits: a float cell survives the text round trip.
        assert float(format(float(row[1]), ".17g")) == float(row[1])

    def test_neumann_is_labeled_exploratory(self, domains, tmp_path, capsys):
        out = tmp_path / "vn"
        code = _run(["varadhan", "--domain", domains["disc"], "--mu", "2",
                     "--neumann", "--target-h", "0.2", "--output-dir", str(out)])
        assert code == 0
        assert "exploratory" in capsys.readouterr().out
        row = (out / "varadhan.csv").read_text().splitlines()[1].split(",")
        assert row[4] == "nan"  # no envelope for flux data
        # The row is varadhan_error's gap without its Dirichlet check.
        disc = unit_disc()
        gap = analysis._distance_gap(
            solve_neumann(meshing.triangulate(disc, 0.2), 2.0), disc)
        assert row[1:4] == [analysis.format_float(c) for c in (
            gap.sup_error, gap.error_location.x1, gap.error_location.x2)]

    def test_unresolved_dirichlet_row(self, domains, tmp_path, capsys):
        # At mu = 40 the disc's deep-interior values (about 1e-16) sit below
        # the solver floor: the row is kept, its recovery reads nan.
        out = tmp_path / "vu"
        code = _run(["varadhan", "--domain", domains["disc"], "--mu", "40",
                     "--target-h", "0.012", "--output-dir", str(out)])
        assert code == 0
        assert "distance recovery skipped at mu=40" in capsys.readouterr().out
        row = (out / "varadhan.csv").read_text().splitlines()[1].split(",")
        assert row[1:4] == ["nan", "nan", "nan"]
        assert float(row[4]) >= 1.0

    def test_budget_truncates_with_exit_1(self, domains, tmp_path, capsys):
        out = tmp_path / "vb"
        code = _run(["varadhan", "--domain", domains["disc"],
                     "--mu", "1", "--mu", "2000",
                     "--target-h", "0.3", "--output-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {analysis.budget_stop_note(2000.0)}\n"
        assert len((out / "varadhan.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("mu", ["1e-300", "1e-8"])
    @pytest.mark.parametrize("name", ["square", "lshape", "disc"])
    def test_neumann_tiny_mu_exits_1(self, name, mu, tmp_path, capsys):
        domain = Path(__file__).resolve().parent.parent / "demos" / "domains" / f"{name}.json"
        code = _run(["varadhan", "--neumann", "--mu", mu, "--domain", str(domain),
                     "--output-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"error: the coarsest multigrid level \(\d+ unknowns\) "
                            r"is numerically singular at this mu", err[0])


class TestCheckConvexity:
    def test_lshape_fails_with_report(self, domains, tmp_path, capsys):
        out = tmp_path / "c"
        code = _run(["check-convexity", "--domain", domains["lshape"],
                     "--mu", "5", "--mu", "10",
                     "--target-h", "0.05", "--output-dir", str(out)])
        assert code == 0
        assert "CONDITION_FAILS" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "CONDITION_FAILS"
        assert report["ground_truth_convex"] is False
        argmin = report["results"][-1]["argmin"]
        assert np.hypot(argmin[0] - 1.0, argmin[1] - 1.0) < 0.2
        assert len((out / "margins.csv").read_text().splitlines()) == 3

    def test_square_single_mu_holds(self, domains, tmp_path):
        out = tmp_path / "cs"
        code = _run(["check-convexity", "--domain", domains["square"],
                     "--mu", "5", "--target-h", "0.05",
                     "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "CONDITION_HOLDS"
        assert report["results"][0]["min_margin"] > 0.2

    def test_disc_auto_target(self, domains, tmp_path):
        out = tmp_path / "cd"
        code = _run(["check-convexity", "--domain", domains["disc"],
                     "--mu", "5", "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "CONDITION_HOLDS"
        assert report["results"][0]["resolution_ok"] is True

    @pytest.mark.parametrize("command", [
        ["solve", "--mu", "8"], ["varadhan", "--mu", "4", "--mu", "8"],
        ["check-convexity", "--mu", "4", "--mu", "8"]])
    def test_auto_target_meshes_once(self, command, domains, tmp_path,
                                     monkeypatch):
        # 'auto' starts at the root of the largest mu's chain, once, and
        # never calls triangulate.
        calls = {"chain_root": [], "triangulate": []}
        for name in calls:
            plain = getattr(meshing, name)

            def counted(*args, name=name, plain=plain):
                calls[name].append(args[1])
                return plain(*args)

            monkeypatch.setattr(meshing, name, counted)
            monkeypatch.setattr(analysis, name, counted)
        assert _run(command + ["--domain", domains["disc"],
                               "--output-dir", str(tmp_path / "o")]) == 0
        assert calls == {"chain_root": [0.5 / float(command[-1])],  # 0.5 / mu_max
                         "triangulate": []}

    def test_reruns_byte_identical(self, domains, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            assert _run(["check-convexity", "--domain", domains["lshape"],
                         "--mu", "5", "--mu", "10", "--target-h", "0.1",
                         "--output-dir", str(out)]) == 0
            outs.append(out)
        for name in ("report.json", "margins.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_budget_exhausted_exit_1(self, domains, tmp_path, capsys):
        code = _run(["check-convexity", "--domain", domains["disc"],
                     "--mu", "2000", "--target-h", "0.3",
                     "--output-dir", str(tmp_path / "cb")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_budget_truncates_with_exit_1(self, domains, tmp_path, capsys):
        # The budget stop after the first mu prints varadhan's line, the
        # report's note, and writes the row of the mu it resolved.
        out = tmp_path / "cb"
        code = _run(["check-convexity", "--domain", domains["disc"],
                     "--mu", "1", "--mu", "2000",
                     "--target-h", "0.3", "--output-dir", str(out)])
        assert code == 1
        note = analysis.budget_stop_note(2000.0)
        assert note == ("sweep truncated before mu=2000: resolving it needs more "
                        f"than the budget of {meshing.TRIANGLE_BUDGET} triangles")
        assert capsys.readouterr().err == f"error: {note}\n"
        report = json.loads((out / "report.json").read_text())
        assert len(report["mu_list"]) == 1 and note in report["notes"]
        assert len((out / "margins.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("command", ["solve", "varadhan", "check-convexity"])
    def test_auto_budget_exhausted_exit_1(self, command, domains, tmp_path,
                                          capsys):
        # A first mu or a first mesh the budget cannot resolve exits 1 with
        # refine_until's error, the same line for every command, and writes
        # nothing.  mu = 1e308 ('auto') and target_h = 1e-320 need more rings
        # than a float can count.
        for mu, target_h in (("2000", "auto"), ("2000", "0.3"),
                             ("1e308", "auto"), ("1", "1e-320")):
            out = tmp_path / f"{mu}-{target_h}"
            out.mkdir()
            code = _run([command, "--domain", domains["disc"], "--mu", mu,
                         "--target-h", target_h, "--output-dir", str(out)])
            assert code == 1
            with pytest.raises(meshing.MeshBudgetError) as refusal:
                list(analysis.Ladder(unit_disc(), [float(mu)],
                                     None if target_h == "auto" else float(target_h)))
            assert capsys.readouterr().err == f"error: {refusal.value}\n"
            assert str(refusal.value).endswith(
                "cannot be refined far enough within the budget of "
                f"{meshing.TRIANGLE_BUDGET} triangles")
            # A first mesh over the budget fails before any mu.
            assert str(refusal.value).startswith(f"mu={float(mu):g}: ") == (
                target_h != "1e-320")
            assert list(out.iterdir()) == []

    @staticmethod
    def auto_rows(domain, tmp_path, *mus):
        """The margins.csv rows of an 'auto' check-convexity sweep."""
        path = tmp_path / "domain.json"
        dump_domain(domain, path)
        out = tmp_path / "-".join(mus)
        argv = ["check-convexity", "--domain", str(path), "--output-dir", str(out)]
        for mu in mus:
            argv += ["--mu", mu]
        assert _run(argv) == 0
        return (out / "margins.csv").read_bytes().splitlines()[1:]

    @pytest.mark.parametrize("domain", [
        l_shape(), regular_polygon(7), skyline((0.4, 0.8, 0.4, 1.2, 0.4))],
        ids=["lshape", "heptagon", "skyline"])
    def test_auto_rows_do_not_depend_on_other_mu(self, domain, tmp_path):
        # A polygon's coarse mesh does not depend on target_h, so each row
        # of an 'auto' sweep is the row of its mu requested alone.
        assert self.auto_rows(domain, tmp_path, "2", "5", "10") == [
            row for mu in ("2", "5", "10")
            for row in self.auto_rows(domain, tmp_path, mu)]

    def test_auto_disc_ends_on_the_largest_mu_mesh(self, tmp_path):
        # A disc's ring count follows target_h, so 'auto' starts at the root
        # of the largest mu's chain (8 rings of 32 here), and the largest
        # mu's row is its row requested alone.
        rows = self.auto_rows(unit_disc(), tmp_path, "2", "5", "10")
        assert rows[-1:] == self.auto_rows(unit_disc(), tmp_path, "10")

    def test_auto_disc_wide_sweep_resolves_every_mu(self, tmp_path):
        # mu = 150 alone gets 448 = 7 2^6 rings (1,204,224 triangles).  From
        # the 3 rings that mu = 1 alone gets, doubling skips from 384 rings,
        # too coarse, to 768, over the budget; the sweep starts at the 7-ring
        # root of 448.
        assert len(self.auto_rows(unit_disc(), tmp_path, "1", "150")) == 2

    @pytest.mark.parametrize("domain, mus, target_h, rows", [
        (l_shape(), ("2000",), "auto", 0), (unit_disc(), ("1", "250"), "auto", 1),
        (l_shape(), ("5",), "0.0005", 0)],
        ids=["lshape-2000", "disc-1-250", "lshape-5-h0.0005"])
    def test_auto_budget_stop_builds_nothing_more(self, domain, mus, target_h,
                                                  rows, tmp_path, monkeypatch,
                                                  capsys):
        # At least log2(mu h_max / 0.5) more refinements, 4 times the
        # triangles each, are over the budget: the sweep stops without
        # refining.  The disc's 9-ring root (of 576 rings, the most that
        # fit for 0.5/250) resolves mu = 1 as it is.  A first mesh over the
        # budget (the L-shape at target_h 0.0005 needs 4^13 triangles)
        # stops the same way, before any mu.
        path = tmp_path / "domain.json"
        dump_domain(domain, path)
        refined = []
        monkeypatch.setattr(meshing, "refine_uniform",
                            lambda *args: refined.append(args))
        argv = ["check-convexity", "--domain", str(path), "--target-h", target_h,
                "--output-dir", str(tmp_path / "o")]
        for mu in mus:
            argv += ["--mu", mu]
        assert _run(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert refined == []
        if rows:
            csv = (tmp_path / "o" / "margins.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in csv[1:]] == ["1"]

    @pytest.mark.parametrize("domain, argv", [
        ("square", ["check-convexity", "--mu", "0.6"]),
        ("lshape", ["solve", "--mu", "0.2", "--target-h", "1.4"])],
        ids=["square-auto", "lshape-coarse"])
    def test_small_mu_refines_to_an_interior_node(self, domain, argv, domains,
                                                  tmp_path):
        # A root with no interior node (the square's two triangles, the
        # L-shape's four) is refined once, though it resolves mu.
        assert _run(argv + ["--domain", domains[domain],
                            "--output-dir", str(tmp_path / "s")]) == 0


class TestProbeSuperharmonic:
    def test_lshape_auto_probe(self, domains, tmp_path, capsys):
        out = tmp_path / "p"
        code = _run(["probe-superharmonic", "--domain", domains["lshape"],
                     "--output-dir", str(out)])
        assert code == 0
        assert "1 violation" in capsys.readouterr().out
        lines = (out / "probes.csv").read_text().splitlines()
        assert lines[0] == "center_x,center_y,radius,mean,center_value,violated"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[0]) == pytest.approx(0.8, rel=1e-12)
        assert float(row[1]) == pytest.approx(0.8, rel=1e-12)
        assert float(row[2]) == pytest.approx(0.1, rel=1e-12)
        assert float(row[3]) - float(row[4]) == pytest.approx(0.004443, abs=2e-4)
        assert row[5] == "1"

    def test_convex_domain_header_only(self, domains, tmp_path, capsys):
        out = tmp_path / "pc"
        code = _run(["probe-superharmonic", "--domain", domains["square"],
                     "--output-dir", str(out)])
        assert code == 0
        assert "no reflex corners" in capsys.readouterr().out
        assert len((out / "probes.csv").read_text().splitlines()) == 1

    def test_dent_within_tolerance_has_no_probe(self, tmp_path, capsys):
        # A dent of 1e-12 is below the convexity tolerance: no reflex corner.
        path = tmp_path / "dented.json"
        dump_domain(Polygon([(0, 0), (1, 0), (1, 1), (0.5, 1 - 1e-12), (0, 1)]),
                    path)
        code = _run(["probe-superharmonic", "--domain", str(path),
                     "--output-dir", str(tmp_path / "pd")])
        assert code == 0
        assert "no reflex corners found" in capsys.readouterr().out

    def test_scale_validation(self, domains, tmp_path):
        code = _run(["probe-superharmonic", "--domain", domains["lshape"],
                     "--corner-scale", "1.5",
                     "--output-dir", str(tmp_path / "px")])
        assert code == 2


def test_validate_all_pass(capsys):
    assert _run(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    assert "all checks passed" in out


_VALIDATION_CHECKS = cli._validation_checks()


@pytest.mark.parametrize("name,check", _VALIDATION_CHECKS,
                         ids=[name for name, _ in _VALIDATION_CHECKS])
def test_validation_check(name, check):
    ok, detail = check()
    assert ok, f"{name}: {detail}"


class TestConfigErrors:
    def test_exit_2_cases(self, domains, tmp_path, capsys, monkeypatch):
        cases = [
            (["varadhan", "--domain", domains["disc"]], "at least one mu"),
            (["varadhan", "--domain", domains["disc"],
              "--mu", "5", "--mu", "3"], "mu values must be strictly ascending"),
            (["varadhan", "--domain", domains["disc"],
              "--mu", "1", "--mu", "inf"], "mu values must be positive and finite"),
            (["solve", "--domain", domains["disc"], "--mu", "-1"],
             "mu values must be positive and finite"),
            (["varadhan", "--domain", domains["disc"], "--mu", "2",
              "--rho", "0.7"], "--rho"),
            (["check-convexity", "--domain", domains["disc"], "--mu", "2",
              "--target-h", "soon"], "--target-h"),
            (["solve", "--domain", str(tmp_path / "nope.json"), "--mu", "1"],
             "not found"),
        ]
        # Every case is rejected before a mesh is built.
        meshed = []
        for module in (meshing, analysis):
            for name in ("triangulate", "chain_root"):
                monkeypatch.setattr(module, name,
                                    lambda *args: meshed.append(args))
        for argv, message in cases:
            argv += ["--output-dir", str(tmp_path / "cfg")]
            assert _run(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("configuration error:"), argv
            assert message in err, argv
        assert meshed == []

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = _run(["solve", "--domain", str(bad), "--mu", "1",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("center", ["NaN", "Infinity"])
    def test_nonfinite_disc_center(self, center, tmp_path, capsys):
        bad = tmp_path / "disc.json"
        bad.write_text(f'{{"type": "disc", "center": [{center}, 0.0], '
                       f'"radius": 1.0}}')
        code = _run(["check-convexity", "--domain", str(bad), "--mu", "2",
                     "--output-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:")
        assert "center must be finite" in err
        assert "Traceback" not in err

    def test_bad_domain_payload(self, tmp_path, capsys):
        bad = tmp_path / "thin.json"
        bad.write_text('{"type": "polygon", "vertices": [[0, 0], [1, 0]]}')
        code = _run(["solve", "--domain", str(bad), "--mu", "1",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "thin.json" in capsys.readouterr().err


class TestParser:
    def test_built_once_for_every_call(self, domains, tmp_path):
        # In-process calls share one parser.  A repeated --mu does not carry
        # into the next call (it would make the second sweep's list
        # 5, 10, 5, 10, which is not ascending): exit codes and files agree.
        cli._build_parser.cache_clear()
        runs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            codes = [_run(["check-convexity", "--domain", domains["lshape"],
                           "--mu", "5", "--mu", "10", "--target-h", "0.1",
                           "--output-dir", str(out)]),
                     _run(["check-convexity", "--domain", domains["lshape"],
                           "--mu", "10", "--mu", "5", "--output-dir", str(out / "bad")])]
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
            runs.append((codes, files))
        assert runs[0][0] == runs[1][0] == [0, 2]
        assert runs[0][1] == runs[1][1] and set(runs[0][1]) == {"report.json", "margins.csv"}
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
