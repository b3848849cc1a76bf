"""Verification pipelines built on the solver.

Three measurements, each with a crisp contract:

* condition margin -- per triangle, mu * v(centroid) - |grad v|.  A field
  whose margins are all nonnegative satisfies the gradient bound
  |grad v| <= mu v elementwise; over a sweep of mu this is the evidence the
  convexity criterion asks for.  The check is one-directional: margins that
  stay nonnegative for all tested mu support convexity, a negative margin
  withholds the certificate but proves nothing.

* distance recovery -- the transform -log(v)/mu approaches the boundary
  distance as mu grows; varadhan_error measures the sup-norm gap against
  exact geometry.

The first two read one mu sweep: sweep_rows, the one loop over a Ladder,
solves each mu, keeps a small SweepRow of what its caller measures and drops
the field before the ladder refines again.

* superharmonicity probes -- disc averages of the boundary distance
  compared with its center value.  Convex domains keep the average below
  the center value; a reflex corner reverses the inequality for a probe
  placed on its bisector, which is exactly what the canonical corner probe
  constructs.

Verdict tolerance: margins are judged against tol_margin =
1e-6 * mu * max(v), so the half-plane equality case (margin identically 0)
classifies as holding at any floating-point precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (GEOMETRIC_TOL, Disc, Domain, Point2, Polygon,
                       boundary_distance_batch, disc_mean_distance,
                       distance_to_boundary, domain_scale, domain_to_dict,
                       is_convex_polygon, probe_fits)
from . import mesh as meshing
from .mesh import MeshBudgetError, chain_root, refine_until, triangulate
from .solver import (CG_TOLERANCE, RESOLUTION_LIMIT, GradientField,
                     ScalarField, gradient_field, solve_dirichlet)

MARGIN_TOL_FACTOR = 1e-6
SUPERHARMONIC_TOL = 1e-6
# Solved values at or below this are solver noise, not the field: with
# |v| <= 1 the iteration error is about CG_TOLERANCE, so -log(v)/mu there
# measures the noise.
RECOVERY_FLOOR = 10.0 * CG_TOLERANCE

VERDICT_HOLDS = "CONDITION_HOLDS"
VERDICT_FAILS = "CONDITION_FAILS"


class NonpositiveFieldError(ValueError):
    """A logarithm was requested of a field with values <= 0 (broken solve,
    or a Neumann field crossing zero)."""


@dataclass(frozen=True)
class ConditionResult:
    mu: float
    margins: np.ndarray          # per-triangle, mu*v(centroid) - |grad v|
    min_margin: float
    argmin_centroid: Point2
    tol_margin: float


@dataclass(frozen=True)
class VaradhanResult:
    mu: float
    sup_error: float
    error_location: Point2


@dataclass(frozen=True)
class DecayEnvelope:
    """Empirical minimal constant c for v <= c * exp(-mu (1-rho) d)."""
    rho: float
    constant: float


class ProbeResult(NamedTuple):
    probe: Disc
    mean: float
    center_value: float
    violated: bool


@dataclass(frozen=True)
class SweepRow:
    """One mu of sweep_rows, with no per-node or per-triangle array: recovery
    None when skipped (note says why), the other measures nan unless taken."""
    mu: float
    n_triangles: int
    resolution_ok: bool
    recovery: Optional[VaradhanResult]
    note: Optional[str]
    min_margin: float = math.nan
    argmin_centroid: Point2 = Point2(math.nan, math.nan)
    tol_margin: float = math.nan
    envelope_constant: float = math.nan

    def holds(self) -> bool:
        return self.min_margin >= -self.tol_margin


@dataclass(frozen=True)
class ConvexityReport:
    """convexity_sweep's SweepRows, one per swept mu, and the Ladder's stopped_at."""
    domain_summary: dict
    mu_list: tuple
    rows: tuple                  # of SweepRow
    stopped_at: Optional[float]
    verdict: str
    ground_truth_convex: Optional[bool]
    largest_verified_mu: float
    notes: tuple


def varadhan_estimate(field: ScalarField) -> np.ndarray:
    """Per-node distance estimate -log(v)/mu.

    Exactly 0 at boundary nodes of Dirichlet fields (v = 1 there).  Fields
    with nonpositive values are rejected.
    """
    v = field.values
    if np.any(v <= 0.0):
        bad = int(np.argmax(v <= 0.0))
        raise NonpositiveFieldError(
            f"field value {v[bad]:.3g} at node {bad} is not positive; "
            "cannot apply the log transform")
    return -np.log(v) / field.mu


def varadhan_error(field: ScalarField, domain: Domain) -> VaradhanResult:
    """Sup-norm gap between -log(v)/mu and the exact boundary distance,
    taken over interior nodes.  Dirichlet fields carry the convergence
    statement; on a Neumann field the gap is exploratory."""
    estimate = varadhan_estimate(field)
    interior = ~field.mesh.boundary_node
    pts = field.mesh.nodes[interior]
    gap = np.abs(estimate[interior] - boundary_distance_batch(domain, pts))
    k = int(np.argmax(gap))
    return VaradhanResult(field.mu, float(gap[k]), Point2(*pts[k]))


def condition_margin(field: ScalarField, grads: GradientField,
                     value_rule: str = "centroid") -> ConditionResult:
    """Per-triangle margins mu * v - |grad v| and their minimum.

    value_rule "centroid" evaluates v as the vertex mean (the collocation
    point of the constant gradient); "min-vertex" is the conservative
    variant.  Ties in the argmin break to the lowest triangle index.
    """
    if grads.mesh is not field.mesh:
        raise ValueError("field and gradients live on different meshes")
    combine = {"centroid": np.add, "min-vertex": np.minimum}.get(value_rule)
    if combine is None:
        raise ValueError(f"unknown value_rule: {value_rule!r}")
    # One corner column at a time, in corner order: the same bits as the
    # mean and min over the (M, 3) corner values, without forming them.
    tris = field.mesh.triangles
    margins = field.values[tris[:, 0]]
    for i in (1, 2):
        combine(margins, field.values[tris[:, i]], out=margins)
    if value_rule == "centroid":
        margins /= 3.0
    margins *= field.mu
    margins -= grads.magnitudes()
    k = int(np.argmin(margins))
    centroid = field.mesh.nodes[field.mesh.triangles[k]].mean(axis=0)
    tol = MARGIN_TOL_FACTOR * field.mu * float(field.values.max())
    return ConditionResult(field.mu, margins, float(margins[k]),
                           Point2(*centroid), tol)


def canonical_corner_probe(polygon: Polygon, vertex_index: int,
                           corner_scale: float) -> Disc:
    """The textbook probe for a reflex corner.

    With r = corner_scale and unit vectors e1, e2 along the two boundary
    edges leaving the corner, the probe has center corner - (r/4)(e1 + e2)
    and radius r/8.  Near a right-angle reflex corner the boundary distance
    equals the distance to the corner point, which is subharmonic, so the
    disc average exceeds the center value: the violation this probe exists
    to exhibit.
    """
    if not (corner_scale > 0.0 and math.isfinite(corner_scale)):
        raise ValueError("corner_scale must be positive and finite")
    v = polygon.vertices
    n = len(polygon)
    i = vertex_index % n
    if i not in polygon.reflex_vertices():
        raise ValueError(f"vertex {i} is not a reflex corner")
    corner = v[i]
    tol = GEOMETRIC_TOL * domain_scale(polygon)
    e1, e2 = v[(i - 1) % n] - corner, v[(i + 1) % n] - corner
    l1, l2 = np.hypot(*e1), np.hypot(*e2)
    if min(l1, l2) < corner_scale - tol:
        raise ValueError("corner_scale exceeds an adjacent edge length")
    center = corner - 0.25 * corner_scale * (e1 / l1 + e2 / l2)
    probe = Disc(Point2(*center), corner_scale / 8.0)
    if not probe_fits(polygon, probe):
        raise ValueError("canonical probe does not fit inside the polygon")
    return probe


def superharmonicity_probe(domain: Domain, probes) -> list[ProbeResult]:
    """Compare disc averages of the boundary distance with center values.

    violated = mean exceeds the center value by more than SUPERHARMONIC_TOL;
    on convex domains this never happens (the distance is superharmonic),
    so a violation is evidence of a reflex boundary feature.
    """
    out = []
    for probe in probes:
        mean = disc_mean_distance(domain, probe)
        center_value = distance_to_boundary(domain, probe.center.as_array())
        out.append(ProbeResult(probe, mean, center_value,
                               mean > center_value + SUPERHARMONIC_TOL))
    return out


def decay_envelope_fit(fields, domain: Domain, rho: float) -> DecayEnvelope:
    """Smallest constant c with v <= c * exp(-mu (1-rho) d) on the data.

    Scans every node of every supplied Dirichlet field.  Boundary nodes
    force c >= 1 (v = 1, d = 0 there).  The equivalent lower bound
    -log(v)/mu >= -log(c)/mu + (1-rho) d is re-verified on all nodes with
    positive values before returning.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one field")
    if not (0.0 < rho < 0.5):
        raise ValueError("rho must lie in (0, 1/2)")
    for f in fields:
        if f.boundary_condition != "dirichlet":
            raise ValueError("decay envelope is defined for Dirichlet fields")
    c_best = 0.0
    per_field = []
    for f in fields:
        d = boundary_distance_batch(domain, f.mesh.nodes)
        growth = f.values * np.exp(f.mu * (1.0 - rho) * d)
        c_field = float(growth.max())
        per_field.append((f, d, c_field))
        c_best = max(c_best, c_field)
    log_c = math.log(c_best)
    for f, d, _ in per_field:
        pos = f.values > 0.0
        lhs = -np.log(f.values[pos]) / f.mu
        rhs = -log_c / f.mu + (1.0 - rho) * d[pos]
        if np.any(lhs < rhs - 1e-9):
            raise AssertionError("decay envelope self-consistency failed")
    return DecayEnvelope(rho, c_best)


class Ladder:
    """The meshes of an ascending mu sweep: iterating yields (mu, mesh), the
    mesh refined (refine_until) until mu * h_max <= RESOLUTION_LIMIT and it
    has an interior node.  The chain starts at triangulate(domain, target_h),
    or when target_h is None at chain_root(domain, RESOLUTION_LIMIT /
    mu_list[-1]), for every domain.  A first mu the budget cannot resolve
    raises refine_until's MeshBudgetError, prefixed "mu=...: "; at a later
    one, iteration stops without refining: stopped_at is then that mu, and
    mesh the last mesh yielded.  The constructor checks mu_list (ValueError
    unless nonempty, finite, positive and strictly ascending) first."""

    def __init__(self, domain: Domain, mu_list, target_h: Optional[float] = None):
        mus = [float(m) for m in mu_list]
        if not mus:
            raise ValueError("need at least one mu value")
        if not all(0.0 < m < math.inf for m in mus):
            raise ValueError(f"mu values must be positive and finite, got {mus}")
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise ValueError(f"mu values must be strictly ascending, got {mus}")
        self.domain = domain
        self.mu_list = mus
        self.mesh = (chain_root(domain, RESOLUTION_LIMIT / mus[-1]) if target_h is None
                     else triangulate(domain, target_h))
        self.stopped_at: Optional[float] = None

    def __iter__(self):
        for i, mu in enumerate(self.mu_list):
            try:
                self.mesh = refine_until(self.mesh, self.domain,
                                         lambda h: mu * h > RESOLUTION_LIMIT)
            except MeshBudgetError as e:
                if i == 0:
                    raise MeshBudgetError(f"mu={mu:g}: {e}") from None
                self.stopped_at = mu
                return
            yield mu, self.mesh


def budget_stop_note(mu: float) -> str:
    """The one text of a sweep that the triangle budget stopped before mu,
    past its first mu (Ladder.stopped_at): convexity_sweep's note, and what
    check-convexity and varadhan print after "error: "."""
    return (f"sweep truncated before mu={mu:g}: resolving it needs more than "
            f"the budget of {meshing.TRIANGLE_BUDGET} triangles")


def sweep_rows(ladder: Ladder, solve, value_rule: Optional[str] = None,
               rho: Optional[float] = None):
    """Solve each step of ladder with solve(mesh, mu) and yield its SweepRow:
    varadhan_error, or None and a note when a value is at or below
    RECOVERY_FLOOR (solver noise), plus the condition_margin summary given a
    value_rule and a Dirichlet field's decay_envelope_fit given a rho.  No
    field, gradient or margin is held while the ladder refines again."""
    for mu, mesh in ladder:
        field = solve(mesh, mu)
        measured = {}
        if value_rule is not None:
            cond = condition_margin(field, gradient_field(mesh, field), value_rule)
            measured.update(min_margin=cond.min_margin, tol_margin=cond.tol_margin,
                            argmin_centroid=cond.argmin_centroid)
            del cond
        below = int(np.count_nonzero(field.values <= RECOVERY_FLOOR))
        recovery = None if below else varadhan_error(field, ladder.domain)
        note = (f"distance recovery skipped at mu={mu:g}: {below} node values at "
                f"or below the solver floor {RECOVERY_FLOOR:g}") if below else None
        if rho is not None and field.boundary_condition == "dirichlet":
            measured["envelope_constant"] = decay_envelope_fit(
                [field], ladder.domain, rho).constant
        row = SweepRow(mu, mesh.n_triangles, field.resolution_ok, recovery,
                       note, **measured)
        del field
        yield row


def convexity_sweep(domain: Domain, mu_list, target_h: Optional[float] = None,
                    value_rule: str = "centroid") -> ConvexityReport:
    """Run the condition check over an ascending sweep of mu.

    The rows come from sweep_rows over Ladder(domain, mu_list, target_h), so
    each resolution_ok holds; a budget stop past the first mu truncates the
    sweep with a note, mu_list is the swept prefix and stopped_at the mu it
    stopped before.  The verdict covers that prefix only: CONDITION_FAILS
    means "no certificate at the tested mu", never a proof of nonconvexity.
    """
    ladder = Ladder(domain, mu_list, target_h)
    rows = tuple(sweep_rows(ladder, solve_dirichlet, value_rule))
    notes = [
        "one-directional check: nonnegative margins at the tested mu "
        "support convexity; a negative margin withholds the certificate "
        "but does not prove nonconvexity",
        f"margins evaluated with the {value_rule} value rule",
        *(r.note for r in rows if r.note),
    ]
    if ladder.stopped_at is not None:
        notes.append(budget_stop_note(ladder.stopped_at))

    notes.append(f"largest resolution-verified mu: {rows[-1].mu:g}")
    # The ladder resolves every mu it yields, so each row is verified.
    verdict = VERDICT_HOLDS if all(r.holds() for r in rows) else VERDICT_FAILS
    return ConvexityReport(domain_to_dict(domain), tuple(r.mu for r in rows),
                           rows, ladder.stopped_at, verdict,
                           is_convex_polygon(domain), rows[-1].mu, tuple(notes))


def report_to_dict(report: ConvexityReport) -> dict:
    """JSON-ready view of a ConvexityReport, one entry per row."""
    rows = [{
        "mu": r.mu,
        "min_margin": r.min_margin,
        "argmin": list(r.argmin_centroid),
        "tol_margin": r.tol_margin,
        "resolution_ok": r.resolution_ok,
        "n_triangles": r.n_triangles,
        "margin_holds": r.holds(),
        "varadhan": None if r.recovery is None else {
            "sup_error": r.recovery.sup_error,
            "location": list(r.recovery.error_location)},
    } for r in report.rows]
    return {
        "domain": report.domain_summary,
        "mu_list": list(report.mu_list),
        "verdict": report.verdict,
        "ground_truth_convex": report.ground_truth_convex,
        "largest_verified_mu": report.largest_verified_mu,
        "results": rows,
        "notes": list(report.notes),
    }


def format_float(x: float) -> str:
    """17 significant digits: every double survives the text round trip."""
    return format(x, ".17g")


def write_csv_rows(path, header: str, rows) -> None:
    """The header line, then one line per row: every cell but the last as
    format_float, the last, a flag, as 0 or 1."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        for *cells, flag in rows:
            f.write(",".join([*map(format_float, cells), str(int(flag))]) + "\n")


def write_report_json(report: ConvexityReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report_to_dict(report), f, indent=2)
        f.write("\n")


def write_margins_csv(report: ConvexityReport, path) -> None:
    """One row per mu: mu, min_margin, argmin_x, argmin_y, sup_error,
    resolution_ok.  17 significant digits throughout."""
    write_csv_rows(
        path, "mu,min_margin,argmin_x,argmin_y,sup_error,resolution_ok",
        ((r.mu, r.min_margin, r.argmin_centroid.x1, r.argmin_centroid.x2,
          math.nan if r.recovery is None else r.recovery.sup_error,
          r.resolution_ok) for r in report.rows))
