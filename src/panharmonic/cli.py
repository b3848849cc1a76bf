"""Command-line front end.

Subcommands:

* solve               one field on one mesh, dumped as plain text
* varadhan            distance-recovery error over a mu sweep (CSV)
* check-convexity     margin sweep with verdict (JSON report + CSV)
* probe-superharmonic disc-average probes at reflex corners (CSV)
* validate            built-in analytic cross-checks, pass/fail per line

Every command that solves walks one analysis.Ladder (varadhan and
check-convexity through analysis.sweep_rows): it checks the mu list, meshes
at --target-h ('auto': the root of the largest mu's chain, mesh.chain_root)
and refines as mu climbs (mesh.refine_until), so each field is solved on a
mesh that resolves it.  A first mesh or first mu the triangle budget cannot
resolve exits 1 with refine_until's one error, writing nothing; at a later
mu, the command keeps what completed and exits 1 with one error for both.

Exit status: 0 success, 1 pipeline failure (budget, solver), 2 bad
configuration (flags, malformed domain file).  Identical configurations
produce byte-identical output files on one machine and BLAS kernel: CG's
dot products and norm, the coarsest level's Cholesky factor, its triangular
inverse and their products round per kernel, which OpenBLAS picks per CPU
unless OPENBLAS_CORETYPE pins it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, geometry, mesh as meshing, solver, special

_EXIT_OK = 0
_EXIT_PIPELINE = 1
_EXIT_CONFIG = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of every main call, built on the first.  Reuse is
    safe: parse_args keeps nothing, and the repeatable --mu starts from its
    default None in each call."""
    parser = argparse.ArgumentParser(
        prog="panharmonic",
        description="Screened-Poisson fields, distance recovery, and the "
                    "gradient-bound convexity check on planar domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain(p):
        p.add_argument("--domain", required=True, metavar="FILE",
                       help="domain description JSON")
        p.add_argument("--output-dir", default=".", metavar="DIR")

    def add_target_h(p):
        p.add_argument("--target-h", default="auto", metavar="H", help="mesh edge "
                       "target, or 'auto' (refine from the root of the largest mu's chain)")

    def add_mu_spec(p):
        p.add_argument("--mu", type=float, action="append", metavar="MU",
                       help="mu value (repeatable, ascending)")
        add_target_h(p)

    p = sub.add_parser("solve", help="solve one field and dump it")
    add_domain(p)
    p.add_argument("--mu", type=float, required=True)
    add_target_h(p)
    p.add_argument("--neumann", action="store_true",
                   help="flux data dv/dn = mu instead of v = 1")

    p = sub.add_parser("varadhan", help="distance-recovery error sweep")
    add_domain(p)
    add_mu_spec(p)
    p.add_argument("--neumann", action="store_true",
                   help="exploratory: recover distance from the flux problem "
                   "(the same solver floor as Dirichlet rows; no envelope)")
    p.add_argument("--rho", type=float, default=0.25,
                   help="envelope parameter in (0, 1/2)")

    p = sub.add_parser("check-convexity", help="margin sweep with verdict")
    add_domain(p)
    add_mu_spec(p)
    p.add_argument("--value-rule", choices=("centroid", "min-vertex"),
                   default="centroid")

    p = sub.add_parser("probe-superharmonic",
                       help="disc-average probes at reflex corners")
    add_domain(p)
    p.add_argument("--corner-scale", type=float, default=0.8, metavar="C",
                   help="probe scale as a fraction of the shorter adjacent edge")

    sub.add_parser("validate", help="run the built-in analytic cross-checks")
    return parser


def _load_domain(path: str):
    try:
        return geometry.load_domain(path)
    except FileNotFoundError:
        raise ValueError(f"domain file not found: {path}")
    except json.JSONDecodeError as e:
        raise ValueError(
            f"domain file {path} is not valid JSON "
            f"(line {e.lineno}, column {e.colno}: {e.msg})")
    except (ValueError, TypeError, KeyError) as e:
        raise ValueError(f"domain file {path}: {e}")


def _target_h(args):
    """The --target-h value: None for 'auto', else the number."""
    if args.target_h == "auto":
        return None
    try:
        return float(args.target_h)
    except ValueError:
        raise ValueError(f"--target-h must be a number or 'auto', "
                         f"got {args.target_h!r}")


def _out_dir(args) -> Path:
    d = Path(args.output_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _cmd_solve(args) -> int:
    domain = _load_domain(args.domain)
    solve = solver.solve_neumann if args.neumann else solver.solve_dirichlet
    # A one-step ladder: it yields the resolved mesh or raises on the budget.
    [(mu, m)] = analysis.Ladder(domain, [args.mu], _target_h(args))
    field = solve(m, mu)
    out = _out_dir(args)
    solver.save_field_text(field, out / "field.txt")
    meshing.save_mesh_text(m, out / "mesh.txt")
    print(f"solved {field.boundary_condition} field: mu={mu:g}, "
          f"{m.n_nodes} nodes, h_max={m.h_max:.6g}, "
          f"resolution_ok={field.resolution_ok}")
    return _EXIT_OK


def _cmd_varadhan(args) -> int:
    domain = _load_domain(args.domain)
    if not (0.0 < args.rho < 0.5):
        raise ValueError("--rho must lie in (0, 1/2)")
    ladder = analysis.Ladder(domain, args.mu or [], _target_h(args))
    solve = solver.solve_neumann if args.neumann else solver.solve_dirichlet
    rows = []
    for row in analysis.sweep_rows(ladder, solve, rho=args.rho):
        if row.note:
            print(f"note: {row.note}")
        sup, (x, y) = ((math.nan, (math.nan, math.nan)) if row.recovery is None
                       else (row.recovery.sup_error, row.recovery.error_location))
        rows.append((row.mu, sup, x, y, row.envelope_constant, row.resolution_ok))
    analysis.write_csv_rows(
        _out_dir(args) / "varadhan.csv",
        "mu,sup_error,error_x,error_y,envelope_constant,resolution_ok", rows)
    if ladder.stopped_at is not None:
        raise meshing.MeshBudgetError(analysis.budget_stop_note(ladder.stopped_at))
    if args.neumann:
        print("note: flux-data distance recovery is exploratory; no "
              "convergence statement is attached to these numbers")
    print(f"wrote varadhan.csv with {len(rows)} rows")
    return _EXIT_OK


def _cmd_check_convexity(args) -> int:
    domain = _load_domain(args.domain)
    report = analysis.convexity_sweep(domain, args.mu or [], _target_h(args),
                                      args.value_rule)
    out = _out_dir(args)
    analysis.write_report_json(report, out / "report.json")
    analysis.write_margins_csv(report, out / "margins.csv")
    print(f"verdict: {report.verdict} "
          f"(largest verified mu: {report.largest_verified_mu})")
    if report.stopped_at is not None:
        raise meshing.MeshBudgetError(analysis.budget_stop_note(report.stopped_at))
    return _EXIT_OK


def _cmd_probe_superharmonic(args) -> int:
    domain = _load_domain(args.domain)
    if not (0.0 < args.corner_scale <= 1.0):
        raise ValueError("--corner-scale must lie in (0, 1]")
    probes = []
    if isinstance(domain, geometry.Polygon):
        v = domain.vertices
        n = len(domain)
        for i in domain.reflex_vertices():
            adjacent = min(
                float(np.hypot(*(v[(i - 1) % n] - v[i]))),
                float(np.hypot(*(v[(i + 1) % n] - v[i]))))
            probes.append(analysis.canonical_corner_probe(
                domain, i, args.corner_scale * adjacent))
    results = analysis.superharmonicity_probe(domain, probes)
    out = _out_dir(args)
    analysis.write_csv_rows(
        out / "probes.csv", "center_x,center_y,radius,mean,center_value,violated",
        ((r.probe.center.x1, r.probe.center.x2, r.probe.radius, r.mean,
          r.center_value, r.violated) for r in results))
    if not probes:
        print("no reflex corners found; probes.csv has only a header")
    else:
        n_bad = sum(r.violated for r in results)
        print(f"probed {len(probes)} reflex corner(s); "
              f"{n_bad} violation(s) of the mean-value inequality")
    return _EXIT_OK


def _validation_checks():
    @functools.cache
    def disc_mesh():
        # Shared by both disc checks and built on first use.
        return meshing.triangulate(geometry.unit_disc(), 0.02)

    def bessel_derivative():
        # I1'(z) = I0(z) - I1(z)/z, via central differences.
        z = np.linspace(0.5, 30.0, 60)
        h = 1e-6 * np.maximum(1.0, z)
        fd = (special.bessel_i1(z + h) - special.bessel_i1(z - h)) / (2 * h)
        exact = special.bessel_i0(z) - special.bessel_i1(z) / z
        worst = float(np.max(np.abs(fd - exact) / np.abs(exact)))
        return worst <= 1e-7, f"worst dI1/dz relative gap {worst:.2e}"

    def bessel_ratio():
        z = np.linspace(0.1, 100.0, 1000)
        ratio = np.exp(special.log_bessel_i1(z) - special.log_bessel_i0(z))
        ok = bool(np.all(ratio < 1.0) and np.all(np.diff(ratio) > 0.0))
        return ok, f"I1/I0 in ({ratio[0]:.4f}, {ratio[-1]:.4f}), monotone={ok}"

    def disc_dirichlet():
        m = disc_mesh()
        field = solver.solve_dirichlet(m, 1.0)
        center = float(field.values[0])  # node 0 is the web center
        exact = 1.0 / special.bessel_i0(1.0)
        gap = abs(center - exact)
        return gap <= 2e-3, f"center value gap {gap:.2e} (limit 2e-3)"

    def disc_neumann():
        m = disc_mesh()
        field = solver.solve_neumann(m, 1.0)
        c_exact = 1.0 / special.bessel_i1(1.0)
        b_exact = special.bessel_i0(1.0) / special.bessel_i1(1.0)
        c_gap = abs(float(field.values[0]) - c_exact)
        b_node = int(np.flatnonzero(m.boundary_node)[0])
        b_gap = abs(float(field.values[b_node]) - b_exact)
        ok = c_gap <= 5e-3 and b_gap <= 1e-2
        return ok, f"center gap {c_gap:.2e} (5e-3), boundary gap {b_gap:.2e} (1e-2)"

    def halfplane_equality():
        worst = 0.0
        for mu in (0.5, 1.0, 7.0, 40.0):
            for x2 in (0.0, 0.3, 1.7, 5.0):
                value, grad = special.halfplane_solution_eval(mu, (1.3, x2))
                worst = max(worst, abs(mu * value - grad))
                # exp/log round trip of the transform, exact up to ulps
                worst = max(worst, abs(-math.log(value) / mu - x2))
        return worst <= 1e-12, f"half-plane margin/transform residue {worst:.2e}"

    def disc_margin_positive():
        sol = special.DiscSolution(1.0, 1.0)
        s = np.linspace(0.0, 1.0, 101)
        margins = sol.mu * sol.value_at_radius(s) - sol.gradient_magnitude_at_radius(s)
        return bool(np.all(margins > 0.0)), f"min analytic margin {margins.min():.6f}"

    return [
        ("bessel-derivative-identity", bessel_derivative),
        ("bessel-ratio-monotone", bessel_ratio),
        ("disc-dirichlet-fem", disc_dirichlet),
        ("disc-neumann-fem", disc_neumann),
        ("halfplane-margin-equality", halfplane_equality),
        ("disc-margin-positivity", disc_margin_positive),
    ]


def _cmd_validate(_args) -> int:
    failures = 0
    for name, check in _validation_checks():
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{failures} failure(s)" if failures else "all checks passed")
    return _EXIT_OK if failures == 0 else _EXIT_PIPELINE


_COMMANDS = {
    "solve": _cmd_solve,
    "varadhan": _cmd_varadhan,
    "check-convexity": _cmd_check_convexity,
    "probe-superharmonic": _cmd_probe_superharmonic,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (meshing.MeshBudgetError, solver.ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_PIPELINE
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
