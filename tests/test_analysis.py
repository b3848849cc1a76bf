"""Condition margins, distance recovery, probes, and the sweep driver."""

import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from panharmonic import analysis
from panharmonic import mesh as meshing
from panharmonic.analysis import (ConditionResult, DecayEnvelope, Ladder,
                                  NonpositiveFieldError, VERDICT_FAILS,
                                  VERDICT_HOLDS, canonical_corner_probe,
                                  condition_margin, convexity_sweep,
                                  decay_envelope_fit, report_to_dict,
                                  superharmonicity_probe, varadhan_error,
                                  varadhan_estimate, write_margins_csv,
                                  write_report_json)
from panharmonic.geometry import (Disc, Point2, Polygon,
                                  distance_to_boundary, unit_disc)
from panharmonic.mesh import MeshBudgetError, triangulate
from panharmonic.solver import (RESOLUTION_LIMIT, GradientField, ScalarField,
                                gradient_field, solve_dirichlet, solve_neumann)
from panharmonic.special import DiscSolution, log_bessel_i0
from strategies import rotated_l_shape

# Sup of |n - log I0(n)/n - d| over disc nodes sits at the center, so these
# are pure special-function values; recorded from the 40-digit oracle.
ANALYTIC_SUP = {
    25.0: 0.10093087980003025,
    50.0: 0.05744848996256391,
    100.0: 0.03220267310057416,
    200.0: 0.017837353228882653,
}


def _analytic_disc_field(mesh, mu: float) -> ScalarField:
    s = np.hypot(*mesh.nodes.T)
    values = np.exp(log_bessel_i0(mu * s) - log_bessel_i0(mu))
    return ScalarField(mesh, mu, values, True, "dirichlet")


class TestVaradhanEstimate:
    def test_constant_field_is_zero(self, unit_square):
        m = triangulate(unit_square, 0.5)
        field = ScalarField(m, 1.0, np.ones(m.n_nodes), True, "dirichlet")
        assert np.array_equal(varadhan_estimate(field), np.zeros(m.n_nodes))

    def test_boundary_nodes_exact_zero(self, l_shape):
        field = solve_dirichlet(triangulate(l_shape, 0.15), 2.0)
        est = varadhan_estimate(field)
        assert np.all(est[field.mesh.boundary_node] == 0.0)

    def test_rejects_nonpositive(self, unit_square):
        m = triangulate(unit_square, 0.5)
        values = np.ones(m.n_nodes)
        values[4] = 0.0
        field = ScalarField(m, 1.0, values, True, "neumann")
        with pytest.raises(NonpositiveFieldError):
            varadhan_estimate(field)


class TestVaradhanError:
    def test_analytic_sup_at_center(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        previous = math.inf
        for mu, frozen in ANALYTIC_SUP.items():
            res = varadhan_error(_analytic_disc_field(m, mu), unit_disc)
            assert res.sup_error == pytest.approx(frozen, rel=1e-12)
            assert (res.error_location.x1, res.error_location.x2) == (0.0, 0.0)
            assert res.sup_error < previous  # strictly decreasing in mu
            previous = res.sup_error

    def test_matches_asymptotic_rate(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        for mu in (50.0, 200.0):
            res = varadhan_error(_analytic_disc_field(m, mu), unit_disc)
            predicted = math.log(2 * math.pi * mu) / (2 * mu)
            assert res.sup_error == pytest.approx(predicted, rel=0.01)


class TestConditionMargin:
    def test_constant_field_margin_one(self, unit_square):
        m = triangulate(unit_square, 0.5)
        field = ScalarField(m, 1.0, np.ones(m.n_nodes), True, "dirichlet")
        grads = gradient_field(m, field)
        res = condition_margin(field, grads)
        assert np.all(res.margins == 1.0)
        assert res.min_margin == 1.0
        # All margins tie; the argmin must resolve to triangle 0.
        c = m.nodes[m.triangles[0]].mean(axis=0)
        assert (res.argmin_centroid.x1, res.argmin_centroid.x2) == tuple(c)

    def test_equality_case_exact_zero(self, unit_square):
        # Gradient magnitude constructed as mu times the collocation value,
        # the planar equality profile; margins must vanish identically.
        m = triangulate(unit_square, 0.2)
        mu = 3.0
        values = np.exp(-mu * m.nodes[:, 1])
        field = ScalarField(m, mu, values, True, "dirichlet")
        v_bar = values[m.triangles].mean(axis=1)
        grads = GradientField(m, np.column_stack(
            [np.zeros_like(v_bar), -mu * v_bar]))
        res = condition_margin(field, grads)
        assert np.abs(res.margins).max() <= 1e-12

    def test_analytic_disc_min_at_rim(self, unit_disc):
        m = triangulate(unit_disc, 0.05)
        sol = DiscSolution(1.0, 1.0)
        field = _analytic_disc_field(m, 1.0)
        centroids = m.nodes[m.triangles].mean(axis=1)
        s = np.hypot(*centroids.T)
        radial = centroids / s[:, None]
        mags = sol.gradient_magnitude_at_radius(s)
        grads = GradientField(m, -mags[:, None] * radial)
        res = condition_margin(field, grads)
        assert res.min_margin == pytest.approx(0.5536100341034655, abs=2e-3)
        assert np.hypot(res.argmin_centroid.x1, res.argmin_centroid.x2) > 0.9

    def test_min_vertex_rule_is_conservative(self, l_shape):
        m = triangulate(l_shape, 0.05)
        field = solve_dirichlet(m, 5.0)
        grads = gradient_field(m, field)
        centroid = condition_margin(field, grads, "centroid")
        conservative = condition_margin(field, grads, "min-vertex")
        assert np.all(conservative.margins <= centroid.margins + 1e-15)
        with pytest.raises(ValueError):
            condition_margin(field, grads, "median")

    def test_elementwise_equivalence(self, l_shape):
        # margin >= 0 iff |grad v|^2 / v_bar^2 <= mu^2, triangle by triangle.
        m = triangulate(l_shape, 0.05)
        mu = 5.0
        field = solve_dirichlet(m, mu)
        grads = gradient_field(m, field)
        res = condition_margin(field, grads)
        v_bar = field.values[m.triangles].mean(axis=1)
        log_form = grads.magnitudes() ** 2 / v_bar ** 2 - mu ** 2
        decided = np.abs(res.margins) > 1e-12 * mu * field.values.max()
        assert np.any(res.margins[decided] < 0.0)  # both classes present
        assert np.any(res.margins[decided] > 0.0)
        assert np.array_equal(res.margins[decided] >= 0.0,
                              log_form[decided] <= 0.0)

    @pytest.mark.parametrize("rule", ["centroid", "min-vertex"])
    def test_value_rules_match_corner_reference(self, rule):
        # The values come one corner column at a time, without the (M, 3)
        # corner array; the margins are the same bits as from it.
        m = triangulate(rotated_l_shape(), 0.02)
        field = solve_dirichlet(m, 20.0)
        grads = gradient_field(m, field)
        corners = field.values[m.triangles]
        v = corners.mean(axis=1) if rule == "centroid" else corners.min(axis=1)
        ref = field.mu * v - grads.magnitudes()
        res = condition_margin(field, grads, rule)
        assert res.margins.tobytes() == ref.tobytes()
        assert res.min_margin == ref.min()

    def test_mesh_mismatch(self, unit_square):
        m1 = triangulate(unit_square, 0.3)
        m2 = triangulate(unit_square, 0.3)
        f1 = solve_dirichlet(m1, 1.0)
        with pytest.raises(ValueError):
            condition_margin(f1, gradient_field(m2, solve_dirichlet(m2, 1.0)))


class TestCornerProbe:
    def test_canonical_construction(self, l_shape):
        probe = canonical_corner_probe(l_shape, 3, 0.8)
        assert (probe.center.x1, probe.center.x2) == (0.8, 0.8)
        assert probe.radius == 0.1
        d = distance_to_boundary(l_shape, (0.8, 0.8))
        assert d == pytest.approx(0.2 * math.sqrt(2.0), rel=1e-14)

    def test_rejects_convex_vertex(self, l_shape):
        with pytest.raises(ValueError):
            canonical_corner_probe(l_shape, 0, 0.8)

    def test_rejects_oversized_scale(self, l_shape):
        with pytest.raises(ValueError):
            canonical_corner_probe(l_shape, 3, 1.2)  # adjacent edges are 1
        with pytest.raises(ValueError):
            canonical_corner_probe(l_shape, 3, -0.1)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_edge_check_is_scale_free(self, l_shape, scale):
        # The edge-length check allows GEOMETRIC_TOL times the domain
        # scale: a corner_scale past the unit edges by 1e-13 of their
        # length passes, one past them by 5e-4 fails, at every scale.
        polygon = Polygon(scale * l_shape.vertices)
        probe = canonical_corner_probe(polygon, 3, scale * (1.0 + 1e-13))
        assert probe.radius == pytest.approx(scale / 8.0, rel=1e-12)
        with pytest.raises(ValueError, match="adjacent edge"):
            canonical_corner_probe(polygon, 3, scale * 1.0005)


class TestSuperharmonicity:
    def test_reflex_violation(self, l_shape):
        probe = canonical_corner_probe(l_shape, 3, 0.8)
        res = superharmonicity_probe(l_shape, [probe])[0]
        assert res.violated
        assert res.mean - res.center_value == pytest.approx(0.004443, abs=2e-4)

    def test_corner_probe_is_a_disc(self, l_shape):
        # A probe is a Disc, so a non-finite centre is refused when a probe
        # is built, not at its first use.
        probe = canonical_corner_probe(l_shape, 3, 0.8)
        assert type(probe) is Disc
        with pytest.raises(ValueError, match="center must be finite"):
            type(probe)(Point2(math.nan, 0.5), probe.radius)

    def test_convex_no_violation(self, unit_disc):
        res = superharmonicity_probe(
            unit_disc, [Disc(Point2(0.0, 0.0), 0.5)])[0]
        assert not res.violated
        assert res.mean == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert res.center_value == 1.0


class TestDecayEnvelope:
    def test_analytic_constant(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        fields = [_analytic_disc_field(m, mu) for mu in (4.0, 8.0, 16.0, 32.0)]
        env = decay_envelope_fit(fields, unit_disc, 0.25)
        # Max sits at the center node of the mu=4 field: e^3 / I0(4).
        assert env.constant == pytest.approx(1.7771788734916034, rel=1e-12)
        assert env.rho == 0.25

    def test_lower_bound_holds_everywhere(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        field = _analytic_disc_field(m, 8.0)
        env = decay_envelope_fit([field], unit_disc, 0.25)
        d = np.array([distance_to_boundary(unit_disc, p) for p in m.nodes])
        lhs = -np.log(field.values) / field.mu
        rhs = -math.log(env.constant) / field.mu + 0.75 * d
        assert np.all(lhs >= rhs - 1e-9)

    def test_validation(self, unit_disc):
        m = triangulate(unit_disc, 0.2)
        field = _analytic_disc_field(m, 4.0)
        with pytest.raises(ValueError):
            decay_envelope_fit([], unit_disc, 0.25)
        with pytest.raises(ValueError):
            decay_envelope_fit([field], unit_disc, 0.5)
        neumann = solve_neumann(m, 1.0)
        with pytest.raises(ValueError):
            decay_envelope_fit([neumann], unit_disc, 0.25)


class TestSweep:
    def test_single_mu_disc(self, unit_disc):
        report = convexity_sweep(unit_disc, [1.0], 0.3)
        assert report.verdict == VERDICT_HOLDS
        assert report.ground_truth_convex is True
        assert report.largest_verified_mu == 1.0
        assert any("one-directional" in n for n in report.notes)
        assert any("centroid" in n for n in report.notes)

    def test_mu_list_validation(self, unit_disc, monkeypatch):
        solves, meshed = [], []
        monkeypatch.setattr(analysis, "solve_dirichlet",
                            lambda *args: solves.append(args))
        monkeypatch.setattr(analysis, "triangulate",
                            lambda *args: meshed.append(args))
        for bad in ([], [2.0, 1.0], [-1.0], [1.0, 1.0], [1.0, math.inf],
                    [1.0, math.nan]):
            with pytest.raises(ValueError):
                convexity_sweep(unit_disc, bad, 0.3)
            with pytest.raises(ValueError):
                Ladder(unit_disc, bad, 0.3)
        assert solves == [] and meshed == []
        mus = Ladder(unit_disc, [1, np.float32(2.0)], 0.3).mu_list
        assert mus == [1.0, 2.0] and all(type(m) is float for m in mus)

    def test_budget_truncation(self, unit_disc):
        report = convexity_sweep(unit_disc, [1.0, 2000.0], 0.3)
        assert report.mu_list == (1.0,)
        assert report.largest_verified_mu == 1.0
        assert report.verdict == VERDICT_HOLDS
        # The note names the mu and the budget: the mu=1 mesh, 150
        # triangles, would need 11 more refinements to resolve mu=2000.
        assert ("sweep truncated before mu=2000: resolving it needs more "
                "than the budget of 2000000 triangles") in report.notes

    def test_budget_exhausted_entirely(self, unit_disc):
        with pytest.raises(MeshBudgetError, match=r"^mu=2000: "):
            convexity_sweep(unit_disc, [2000.0], 0.3)

    def test_each_field_dropped_before_the_next_solve(self, l_shape, monkeypatch):
        # Each mu past the first refines the mesh, then solves on it; the
        # previous mu's field and gradients are not held through either.
        refs, alive = [], []
        solve, gradients = analysis.solve_dirichlet, analysis.gradient_field

        def spy_solve(mesh, mu):
            alive.append([r() is not None for r in refs])
            field = solve(mesh, mu)
            refs.append(weakref.ref(field))
            return field

        def spy_gradients(mesh, field):
            grads = gradients(mesh, field)
            refs.append(weakref.ref(grads))
            return grads

        monkeypatch.setattr(analysis, "solve_dirichlet", spy_solve)
        monkeypatch.setattr(analysis, "gradient_field", spy_gradients)
        report = convexity_sweep(l_shape, [2.0, 4.0, 8.0])
        assert report.mu_list == (2.0, 4.0, 8.0)
        assert alive == [[], [False] * 2, [False] * 4]

    def test_varadhan_skip_note(self, unit_disc):
        # Deep-interior values at mu=40 sit below double noise; the sweep
        # must keep the margin result and skip only the distance recovery.
        report = convexity_sweep(unit_disc, [40.0], 0.012)
        assert tuple(r.recovery for r in report.rows) == (None,)
        assert len(report.rows) == 1
        assert math.isfinite(report.rows[0].min_margin)
        assert any("skipped at mu=40" in n for n in report.notes)


    def test_report_holds_no_per_triangle_array(self, unit_disc):
        # Four mu on one mesh of 1,500 or so triangles: the report keeps a
        # few numbers per row, not the margins of every triangle.
        report = convexity_sweep(unit_disc, [0.5, 1.0, 2.0, 4.0], 0.1)
        rows = report_to_dict(report)["results"]
        assert len(rows) == 4 and len({r["n_triangles"] for r in rows}) == 1
        sizes, stack = [], [report]
        while stack:
            obj = stack.pop()
            if isinstance(obj, np.ndarray):
                sizes.append(obj.size)
            elif dataclasses.is_dataclass(obj):
                stack += [getattr(obj, f.name) for f in dataclasses.fields(obj)]
            elif isinstance(obj, dict):
                stack += obj.values()
            elif isinstance(obj, (tuple, list)):
                stack += obj
        assert all(size <= len(rows) for size in sizes), sizes


class TestLadder:
    def test_resolved_mesh_is_reused(self, unit_disc):
        ladder = Ladder(unit_disc, [1.0, 2.0, 4.0], 0.05)
        first = ladder.mesh
        steps = list(ladder)
        assert [mu for mu, _ in steps] == [1.0, 2.0, 4.0]
        assert all(m is first for _, m in steps)
        assert ladder.stopped_at is None

    def test_refines_until_resolved(self, l_shape):
        ladder = Ladder(l_shape, [5.0, 10.0, 20.0], 0.05)
        steps = list(ladder)
        assert [mu for mu, _ in steps] == [5.0, 10.0, 20.0]
        assert all(mu * m.h_max <= RESOLUTION_LIMIT for mu, m in steps)
        counts = [m.n_triangles for _, m in steps]
        assert counts == sorted(counts)
        assert ladder.stopped_at is None
        assert ladder.mesh is steps[-1][1]

    def test_budget_stop_keeps_finest_mesh(self, unit_disc, monkeypatch):
        # mu=2000 needs at least 11 refinements of the 150 triangles that
        # resolve mu=1, and 150 4^11 triangles are over the budget: the
        # ladder stops without refining, and mesh stays the last it yielded.
        ladder = Ladder(unit_disc, [1.0, 2000.0], 0.3)
        refined = []
        monkeypatch.setattr(meshing, "refine_uniform",
                            lambda *args: refined.append(args))
        assert [mu for mu, _ in ladder] == [1.0]
        assert ladder.stopped_at == 2000.0
        assert ladder.mesh.n_triangles == 150 and refined == []

    def test_budget_band_auto(self, unit_disc, monkeypatch):
        # 'auto' for mu=4.2 alone starts at the root of the 0.5/4.2 chain.
        # That needs 13 rings, which round up to 14 = 7 2^1, over a budget
        # of 6 13^2 triangles; the ring rule takes 12 = 6 2^1, and one
        # refinement of its 6-ring root resolves mu=4.2.
        monkeypatch.setattr(meshing, "TRIANGLE_BUDGET", 6 * 13**2)
        ladder = Ladder(unit_disc, [4.2])
        assert [(mu, m.n_triangles) for mu, m in ladder] == [(4.2, 6 * 12**2)]
        assert ladder.stopped_at is None


class TestReportOutput:
    @pytest.fixture()
    def report(self, unit_disc):
        return convexity_sweep(unit_disc, [1.0, 2.0], 0.3)

    def test_dict_shape(self, report):
        data = report_to_dict(report)
        assert data["verdict"] == VERDICT_HOLDS
        assert data["domain"]["type"] == "disc"
        assert len(data["results"]) == 2
        row = data["results"][0]
        assert set(row) == {"mu", "min_margin", "argmin", "tol_margin",
                            "resolution_ok", "n_triangles", "margin_holds",
                            "varadhan"}

    def test_json_and_csv_deterministic(self, tmp_path, unit_disc, report):
        again = convexity_sweep(unit_disc, [1.0, 2.0], 0.3)
        for rep, tag in ((report, "a"), (again, "b")):
            write_report_json(rep, tmp_path / f"report_{tag}.json")
            write_margins_csv(rep, tmp_path / f"margins_{tag}.csv")
        assert (tmp_path / "report_a.json").read_bytes() == \
               (tmp_path / "report_b.json").read_bytes()
        assert (tmp_path / "margins_a.csv").read_bytes() == \
               (tmp_path / "margins_b.csv").read_bytes()
        data = json.loads((tmp_path / "report_a.json").read_text())
        assert data["mu_list"] == [1.0, 2.0]

    def test_csv_format(self, tmp_path, unit_disc):
        report = convexity_sweep(unit_disc, [40.0], 0.012)
        path = tmp_path / "margins.csv"
        write_margins_csv(report, path)
        header, row = path.read_text().splitlines()
        assert header == "mu,min_margin,argmin_x,argmin_y,sup_error,resolution_ok"
        cells = row.split(",")
        assert cells[0] == "40"
        assert cells[4] == "nan"  # skipped distance recovery
        assert cells[5] == "1"
