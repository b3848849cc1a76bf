"""Acceptance gate: twelve numbered criteria, one test family each.

Every criterion asserts independently derived targets (closed forms,
extended-precision constants, or a fixed-seed Monte-Carlo oracle computed
in the test itself).  Two sub-clauses of criterion 6 sit behind a
discretization barrier no budget-compatible mesh can cross; those are
strict xfails with the barrier stated in the reason, and the conftest
summary reports them as documented gaps.
"""

import math
import time

import numpy as np
import pytest

from panharmonic import cli, geometry, solver, special
from panharmonic import mesh as meshing
from panharmonic.analysis import (
    canonical_corner_probe,
    convexity_sweep,
    decay_envelope_fit,
    superharmonicity_probe,
    varadhan_error,
    write_margins_csv,
    write_report_json,
)
from panharmonic.geometry import (
    Disc,
    Point2,
    boundary_distance_batch,
    distance_to_boundary,
    l_shape,
    unit_disc,
    unit_square,
)

SWEEP_MUS = [5.0, 10.0, 20.0, 40.0]
# Acceptance meshes, calibrated once: the disc needs ring spacing ~2.6e-3
# before the mu = 40 boundary layer stops polluting the minimum margin.
SQUARE_TARGET_H = 0.003
DISC_TARGET_H = 0.00265
LSHAPE_TARGET_H = 0.0125

# Extended-precision references (40-digit series, rounded to double).
I0_AT_1 = 1.2660658777520083
I1_AT_1 = 0.5651591039924851

# sup |mu^-1 log I0(mu) - 1| over the closed-form disc field, attained at
# the center node; mesh-independent.
ANALYTIC_SUP = {
    25.0: 0.10093087980003025,
    50.0: 0.05744848996256391,
    100.0: 0.03220267310057416,
}

# FEM distance-recovery sups on the square at h = sqrt(2)/128 (regression
# pins; the criterion itself only needs monotone decay and < 0.1 at 40).
# Taken from a sparse LU solve of A_II v_I = -A_IB 1, i.e. the discrete
# solution itself, not any iterative solver's approximation of it.
FEM_SUP = {
    10.0: 0.13241366614617545,
    20.0: 0.06952324874439347,
    40.0: 0.036668105241497995,
}


@pytest.fixture(scope="module")
def square_report():
    return convexity_sweep(unit_square(), SWEEP_MUS, SQUARE_TARGET_H)


@pytest.fixture(scope="module")
def disc_report():
    return convexity_sweep(unit_disc(), SWEEP_MUS, DISC_TARGET_H)


@pytest.fixture(scope="module")
def l_report():
    return convexity_sweep(l_shape(), SWEEP_MUS, LSHAPE_TARGET_H)


def _analytic_disc_field(mesh, mu):
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    values = special.DiscSolution(1.0, mu).value_at_radius(r)
    return solver.ScalarField(mesh, mu, values, True, "dirichlet")


def test_criterion_01_bessel_oracles():
    start = time.perf_counter()
    assert special.bessel_i0(1.0) == pytest.approx(I0_AT_1, rel=1e-11)
    assert special.bessel_i1(1.0) == pytest.approx(I1_AT_1, rel=1e-11)
    z = np.linspace(0.1, 100.0, 1000)
    assert np.all(special.bessel_i1(z) < special.bessel_i0(z))
    assert time.perf_counter() - start < 1.0


def test_criterion_02_fem_convergence():
    start = time.perf_counter()
    disc = unit_disc()
    sol = special.DiscSolution(1.0, 2.0)
    m = meshing.triangulate(disc, 0.16)
    errors = []
    for level in range(4):
        field = solver.solve_dirichlet(m, 2.0)
        r = np.hypot(m.nodes[:, 0], m.nodes[:, 1])
        errors.append(float(np.max(np.abs(field.values - sol.value_at_radius(r)))))
        if level < 3:
            m = meshing.refine_uniform(m, disc)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0
    assert errors[-1] < 2e-3
    assert time.perf_counter() - start < 60.0


def test_criterion_03_discrete_maximum_principle():
    for domain in (unit_disc(), unit_square()):
        for mu in (5.0, 10.0, 20.0):
            m = meshing.triangulate(domain, 0.5 / mu)
            field = solver.solve_dirichlet(m, mu)
            assert float(field.values.min()) > 0.0
            assert float(field.values.max()) <= 1.0 + 1e-10


def test_criterion_04_distance_recovery_closed_form():
    disc = unit_disc()
    m = meshing.triangulate(disc, 0.1)
    start = time.perf_counter()
    sups = []
    for mu in (25.0, 50.0, 100.0):
        res = varadhan_error(_analytic_disc_field(m, mu), disc)
        assert res.sup_error == pytest.approx(ANALYTIC_SUP[mu], rel=1e-12)
        target = math.log(2.0 * math.pi * mu) / (2.0 * mu)
        assert abs(res.sup_error / target - 1.0) <= 0.25
        sups.append(res.sup_error)
    assert sups[0] > sups[1] > sups[2]
    assert time.perf_counter() - start < 1.0


def test_criterion_05_distance_recovery_fem():
    start = time.perf_counter()
    square = unit_square()
    m = meshing.triangulate(square, 0.5 / 40.0)
    sups = []
    for mu in (10.0, 20.0, 40.0):
        field = solver.solve_dirichlet(m, mu)
        assert field.resolution_ok
        res = varadhan_error(field, square)
        assert res.sup_error == pytest.approx(FEM_SUP[mu], rel=1e-6)
        sups.append(res.sup_error)
    assert sups[0] > sups[1] > sups[2]
    assert sups[-1] < 0.1
    assert time.perf_counter() - start < 120.0


def test_criterion_05_fem_sup_matches_direct_solve():
    # The oracle behind FEM_SUP: the same discrete problem solved by sparse
    # LU in the test, on the values v themselves.
    from scipy.sparse.linalg import splu

    square = unit_square()
    m = meshing.triangulate(square, 0.5 / 40.0)
    interior = ~m.boundary_node
    for mu in (10.0, 20.0, 40.0):
        operator = solver._operator(m, mu, np.ones(m.n_nodes, dtype=bool))
        a_ii = operator[interior][:, interior].tocsc()
        a_ib = operator[interior][:, ~interior]
        values = np.ones(m.n_nodes)
        values[interior] = splu(a_ii).solve(
            -(a_ib @ np.ones(a_ib.shape[1])))
        direct = varadhan_error(
            solver.ScalarField(m, mu, values, True, "dirichlet"), square)
        assert direct.sup_error == pytest.approx(FEM_SUP[mu], rel=1e-9)
        iterative = varadhan_error(solver.solve_dirichlet(m, mu), square)
        assert iterative.sup_error == pytest.approx(direct.sup_error, rel=1e-7)


def _analytic_min_margin(mu: float) -> float:
    sol = special.DiscSolution(1.0, mu)
    return float(sol.margin_at_radius(np.linspace(0.0, 1.0, 200001)).min())


def test_criterion_06_disc_holds_with_margin_match(disc_report):
    assert disc_report.verdict == "CONDITION_HOLDS"
    assert disc_report.ground_truth_convex is True
    assert disc_report.largest_verified_mu == 40.0
    for res in disc_report.rows:
        assert res.resolution_ok
        assert res.holds()
    for res in disc_report.rows[:3]:  # mu = 5, 10, 20
        analytic = _analytic_min_margin(res.mu)
        assert abs(res.min_margin / analytic - 1.0) <= 0.10


def test_criterion_06_square_holds_at_low_mu(square_report):
    assert square_report.ground_truth_convex is True
    for res in square_report.rows[:2]:  # mu = 5, 10
        assert res.resolution_ok
        assert res.holds()
        assert res.min_margin > 0.0
    sups = [r.recovery.sup_error for r in square_report.rows
            if r.recovery is not None]
    assert len(sups) == 4
    assert all(a > b for a, b in zip(sups, sups[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="straight-wall P1 margins carry an O(mu^2 h) negative bias while "
    "the square's true minimum margin is ~2 mu exp(-mu); matching signs at "
    "mu = 20 already needs h ~ 1e-9, i.e. ~1e18 triangles against the 2e6 "
    "budget, so the full-sweep verdict cannot reach CONDITION_HOLDS",
)
def test_criterion_06_square_full_sweep_verdict(square_report):
    assert square_report.verdict == "CONDITION_HOLDS"


@pytest.mark.xfail(
    strict=True,
    reason="the disc's analytic minimum margin at mu = 40 is "
    "40 (I0 - I1)(z*) / I0(40) ~ 1.8e-15, six decades below the assembled "
    "solution's noise floor; a 10% match there is outside double precision "
    "for any budget-compatible mesh",
)
def test_criterion_06_disc_margin_match_at_mu_40(disc_report):
    res = disc_report.rows[3]
    analytic = _analytic_min_margin(40.0)
    assert abs(res.min_margin / analytic - 1.0) <= 0.10


def test_criterion_07_reentrant_corner_fails(l_report):
    assert l_report.verdict == "CONDITION_FAILS"
    assert l_report.ground_truth_convex is False
    resolved = [r for r in l_report.rows if r.resolution_ok]
    assert resolved[-1].mu == 40.0
    assert not resolved[-1].holds()
    c = resolved[-1].argmin_centroid
    assert math.hypot(c.x1 - 1.0, c.x2 - 1.0) < 0.2


def _mc_mean_distance(domain, probe, n_samples: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    total = 0.0
    remaining = n_samples
    while remaining:
        k = min(1_000_000, remaining)
        u = rng.random((k, 2))
        r = probe.radius * np.sqrt(u[:, 0])
        th = 2.0 * math.pi * u[:, 1]
        pts = np.column_stack((probe.center.x1 + r * np.cos(th),
                               probe.center.x2 + r * np.sin(th)))
        total += float(boundary_distance_batch(domain, pts).sum())
        remaining -= k
    return total / n_samples


def test_criterion_08_superharmonicity_probes():
    domain = l_shape()
    probe = canonical_corner_probe(domain, 3, 0.8)
    result = superharmonicity_probe(domain, [probe])[0]
    gap = result.mean - result.center_value

    # Independent oracle: 1e7-sample fixed-seed Monte-Carlo disc average.
    mc_mean = _mc_mean_distance(domain, probe, 10_000_000, seed=314159)
    mc_gap = mc_mean - distance_to_boundary(domain, probe.center.as_array())

    assert result.violated
    assert 0.0035 <= gap <= 0.0055
    assert 0.0035 <= mc_gap <= 0.0055
    assert gap == pytest.approx(mc_gap, abs=5e-5)

    square = unit_square()
    rng = np.random.default_rng(7)
    probes = []
    for _ in range(20):
        xy = 0.1 + 0.8 * rng.random(2)
        d = distance_to_boundary(square, xy)
        probes.append(Disc(Point2(float(xy[0]), float(xy[1])), d / 2.0))
    assert not any(r.violated for r in superharmonicity_probe(square, probes))


def test_criterion_09_half_plane_equality():
    xs = np.linspace(-5.0, 5.0, 100)
    ys = np.linspace(0.0, 3.0, 100)
    for mu in (1.0, 10.0, 100.0):
        worst_margin = 0.0
        worst_varadhan = 0.0
        for x1 in xs:
            for x2 in ys:
                value, grad = special.halfplane_solution_eval(mu, (x1, x2))
                worst_margin = max(worst_margin, abs(mu * value - grad))
                worst_varadhan = max(worst_varadhan,
                                     abs(-math.log(value) / mu - x2))
        assert worst_margin <= 1e-12
        assert worst_varadhan <= 1e-14


def test_criterion_10_decay_envelope_consistency():
    disc = unit_disc()
    m = meshing.triangulate(disc, 0.05)
    fields = [_analytic_disc_field(m, mu) for mu in (4.0, 8.0, 16.0, 32.0)]
    envelope = decay_envelope_fit(fields, disc, 0.25)

    # The binding node is the mu = 4 field's center: e^3 / I0(4).
    assert envelope.constant >= 1.77
    assert envelope.constant == pytest.approx(
        math.exp(3.0) / special.bessel_i0(4.0), rel=1e-12)

    d = boundary_distance_batch(disc, m.nodes)
    for field in fields:
        bound = envelope.constant * np.exp(-field.mu * 0.75 * d)
        assert float((bound - field.values).min()) >= -1e-9


def test_criterion_11_neumann_exploration(tmp_path, capsys):
    gap = abs(special.log_bessel_i1(50.0) / 50.0 - 1.0)
    assert gap == pytest.approx(0.05765052766825747, rel=1e-10)
    assert gap <= 0.08

    # The reporting path must label flux-data recovery as exploratory.
    dom = tmp_path / "disc.json"
    geometry.dump_domain(unit_disc(), dom)
    code = cli.main(["varadhan", "--domain", str(dom), "--mu", "2",
                     "--neumann", "--target-h", "0.2",
                     "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert "exploratory" in capsys.readouterr().out


def test_criterion_12_byte_determinism(square_report, disc_report, l_report,
                                        tmp_path):
    configs = [
        (square_report, unit_square(), SQUARE_TARGET_H),
        (disc_report, unit_disc(), DISC_TARGET_H),
        (l_report, l_shape(), LSHAPE_TARGET_H),
    ]
    for i, (first, domain, target_h) in enumerate(configs):
        second = convexity_sweep(domain, SWEEP_MUS, target_h)
        for tag, report in (("a", first), ("b", second)):
            write_report_json(report, tmp_path / f"report_{i}_{tag}.json")
            write_margins_csv(report, tmp_path / f"margins_{i}_{tag}.csv")
        for name in ("report", "margins"):
            ext = "json" if name == "report" else "csv"
            a = (tmp_path / f"{name}_{i}_a.{ext}").read_bytes()
            b = (tmp_path / f"{name}_{i}_b.{ext}").read_bytes()
            assert a == b

    dom = tmp_path / "lshape.json"
    geometry.dump_domain(l_shape(), dom)
    for tag in ("pa", "pb"):
        assert cli.main(["probe-superharmonic", "--domain", str(dom),
                         "--output-dir", str(tmp_path / tag)]) == 0
    assert ((tmp_path / "pa" / "probes.csv").read_bytes()
            == (tmp_path / "pb" / "probes.csv").read_bytes())
