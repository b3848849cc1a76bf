"""The benchmark's three workloads: seeded inputs, one job, output checks.

Each workload is a closed loop with one client: the runner starts the next
job only when the previous one has returned.  A job drives the package
through its public API exactly as a user would, and writes its outputs to a
fresh directory so they can be checked and compared byte for byte.

* sweep-disc   -- ``analysis.convexity_sweep`` on a seeded similarity copy
  of the unit disc: one structured mesh solved at four mu with Jacobi-PCG.
* sweep-lshape -- the same sweep on a seeded similarity copy (rotation,
  scale, translation) of the L-shape, starting coarse so that every mu step
  refines the mesh once.
* cli-jobs     -- ``panharmonic.cli.main(argv)`` in process on twelve
  rectilinear skylines; one job is the four requests listed in
  ``CLI_REQUESTS`` on one skyline.

The seed picks a similarity copy of each domain and divides every mu by its
scale (the target edge, where given, is multiplied by it), so the discrete
problem, and hence the work, does not depend on the seed.  The sweeps use a
general rotation, scale and translation, the same problem up to rounding.
The skylines use quarter turns and power-of-two scales, which are exact in
floating point, so their solves repeat bit for bit and every seed meets the
same failures; the seed also shuffles the order of the twelve jobs.

Output checks follow the paper's contract rather than pinned numbers, so a
later meshing or solver change that moves the numbers still passes them.
The convexity check is one-directional: on a nonconvex domain a
CONDITION_HOLDS verdict is a false certificate, while on a convex domain
either verdict is acceptable.

Known defects of the baseline are left in the inputs, so that a fix shows
up as a gain in ``ok_frac`` or ``recovered_frac``:

* cli-jobs: on some skylines, e.g. [[0,0],[2,0],[2,1.2],[1.6,1.2],
  [1.6,0.4],[1.2,0.4],[1.2,1.2],[0.8,1.2],[0.8,0.8],[0.4,0.8],[0.4,0.4],
  [0,0.4]], ``triangulate`` at h = 0.0625 leaves a 0-degree triangle after
  smoothing; ``refine_uniform`` then raises "degenerate or flipped" and
  check-convexity and varadhan exit 2.
* cli-jobs: on some skylines the Neumann solve (varadhan --neumann, mu = 4)
  hits the conjugate-gradient iteration cap and exits 1.
* sweep-lshape: distance recovery is skipped at mu = 80, where
  deep-interior values come out nonpositive.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from panharmonic import analysis, cli, geometry, solver

# Acceptance-disc regime: mu_max * h_max ~ 0.106, as for the disc at
# h = 0.00265 and mu = 40, on a mesh small enough for many jobs per run.
DISC_LADDER = (1.25, 2.5, 5.0, 10.0)
DISC_TARGET_H = 0.0106
# Coarse start with a doubling ladder: one uniform refinement per mu step,
# up to the mu where deep-interior values reach the noise floor.
LSHAPE_LADDER = (5.0, 10.0, 20.0, 40.0, 80.0)
LSHAPE_TARGET_H = 0.05
LSHAPE_CORNER = (1.0, 1.0)
# "A few h_max": the resolution rule caps h_max at RESOLUTION_LIMIT / mu.
ARGMIN_RADIUS_IN_H = 3.0

# Skylines: SKYLINE_COLUMNS columns of width SKYLINE_STEP, each of a height
# from SKYLINE_HEIGHTS and different from its neighbours, so every skyline
# has the same vertex count and only right-angle reflex corners.  The job
# set is a fixed draw of SKYLINE_COUNT of them, the same for every seed, so
# job times and failures do not vary with which skylines a seed drew.
SKYLINE_COLUMNS = 5
SKYLINE_STEP = 0.4
SKYLINE_HEIGHTS = (0.4, 0.8, 1.2)
SKYLINE_COUNT = 12
SKYLINE_DRAW_SEED = 7
# (output subdirectory, subcommand, mu values before scaling)
CLI_REQUESTS = (
    ("check", ["check-convexity"], (2.0, 4.0, 8.0)),
    ("varadhan", ["varadhan"], (4.0, 8.0)),
    ("neumann", ["varadhan", "--neumann"], (4.0,)),
    ("probe", ["probe-superharmonic"], ()),
)


@dataclass
class Outcome:
    """What one job or request produced, as judged by the checks."""
    attempted: int = 0
    failures: list = field(default_factory=list)   # nonzero exits, exceptions
    problems: list = field(default_factory=list)   # failed output checks
    solved_steps: int = 0
    recovered_steps: int = 0

    @property
    def failed(self) -> int:
        # An operation with several failed checks still fails only once.
        return min(self.attempted, len(self.failures) + len(self.problems))

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failures += other.failures
        self.problems += other.problems
        self.solved_steps += other.solved_steps
        self.recovered_steps += other.recovered_steps


def snapshot(directory: Path) -> dict:
    """relative path -> bytes for every file under directory."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# -- sweeps ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepInput:
    path: Path
    mus: tuple
    target_h: float
    corner: tuple | None      # mapped reentrant corner, L-shape only


def _similarity(rng):
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    scale = float(rng.uniform(0.5, 2.0))
    shift = rng.uniform(-5.0, 5.0, size=2)
    rot = scale * np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
    return scale, (lambda p: rot @ np.asarray(p, dtype=float) + shift)


def make_disc_inputs(seed: int, directory: Path) -> list:
    scale, mapping = _similarity(np.random.default_rng(seed))
    center = geometry.Point2(*mapping((0.0, 0.0)))
    path = directory / "disc.json"
    geometry.dump_domain(geometry.Disc(center, scale), path)
    return [SweepInput(path, tuple(m / scale for m in DISC_LADDER),
                       DISC_TARGET_H * scale, None)]


def make_lshape_inputs(seed: int, directory: Path) -> list:
    scale, mapping = _similarity(np.random.default_rng(seed))
    verts = [mapping(v) for v in geometry.l_shape().vertices]
    path = directory / "lshape.json"
    geometry.dump_domain(geometry.Polygon(verts), path)
    corner = tuple(float(c) for c in mapping(LSHAPE_CORNER))
    return [SweepInput(path, tuple(m / scale for m in LSHAPE_LADDER),
                       LSHAPE_TARGET_H * scale, corner)]


def run_sweep(inp: SweepInput, out: Path) -> Outcome:
    domain = geometry.load_domain(inp.path)
    report = analysis.convexity_sweep(domain, inp.mus, inp.target_h)
    analysis.write_report_json(report, out / "report.json")
    analysis.write_margins_csv(report, out / "margins.csv")
    return Outcome(attempted=1)


def check_sweep(inp: SweepInput, out: Path, outcome: Outcome) -> None:
    if outcome.failures:
        return
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = report["results"]
    outcome.solved_steps += len(rows)
    outcome.recovered_steps += sum(r["varadhan"] is not None for r in rows)
    problems = outcome.problems
    if len(rows) != len(inp.mus):
        problems.append(f"sweep truncated at {len(rows)} of {len(inp.mus)} mu")
    if inp.corner is None:
        if report["verdict"] != analysis.VERDICT_HOLDS:
            problems.append(f"disc verdict {report['verdict']}")
        if not all(r["resolution_ok"] for r in rows):
            problems.append("disc: a mu step is not resolution-verified")
        sups = [r["varadhan"]["sup_error"] for r in rows if r["varadhan"]]
        if any(b >= a for a, b in zip(sups, sups[1:])):
            problems.append(f"disc: Varadhan error not decreasing: {sups}")
        return
    if report["verdict"] != analysis.VERDICT_FAILS:
        problems.append(f"L-shape: false certificate {report['verdict']}")
    verified = [r for r in rows if r["resolution_ok"]]
    if not verified:
        problems.append("L-shape: no resolution-verified mu")
        return
    last = verified[-1]
    radius = ARGMIN_RADIUS_IN_H * solver.RESOLUTION_LIMIT / last["mu"]
    gap = math.dist(last["argmin"], inp.corner)
    if gap > radius:
        problems.append(f"L-shape: argmin {gap:.3g} from the corner "
                        f"(allowed {radius:.3g})")


# -- cli-jobs --------------------------------------------------------------

@dataclass(frozen=True)
class SkylineInput:
    path: Path
    scale: float
    reflex_corners: int


def skyline_vertices(heights) -> list:
    """Counterclockwise vertices of the skyline with these column heights."""
    xs = [round(i * SKYLINE_STEP, 10) for i in range(len(heights) + 1)]
    verts = [[0.0, 0.0], [xs[-1], 0.0]]
    for i in reversed(range(len(heights))):
        verts += [[xs[i + 1], heights[i]], [xs[i], heights[i]]]
    return verts


def make_skyline_inputs(seed: int, directory: Path) -> list:
    family = [hs for hs in itertools.product(SKYLINE_HEIGHTS,
                                             repeat=SKYLINE_COLUMNS)
              if all(a != b for a, b in zip(hs, hs[1:]))]
    draw = np.random.default_rng(SKYLINE_DRAW_SEED).choice(
        len(family), size=SKYLINE_COUNT, replace=False)
    rng = np.random.default_rng(seed)
    exponent = int(rng.integers(-2, 3))
    turns = int(rng.integers(4))
    inputs = []
    for k in rng.permutation(SKYLINE_COUNT):
        verts = []
        for x, y in skyline_vertices(family[int(draw[k])]):
            for _ in range(turns):
                x, y = -y, x
            verts.append([math.ldexp(x, exponent), math.ldexp(y, exponent)])
        polygon = geometry.Polygon(verts)
        path = directory / f"skyline-{int(k):02d}.json"
        geometry.dump_domain(polygon, path)
        inputs.append(SkylineInput(path, math.ldexp(1.0, exponent),
                                   len(polygon.reflex_vertices())))
    return inputs


def _request(argv) -> tuple:
    """Run one CLI request in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # an uncaught error is a failed request
            code = -1
            print(f"uncaught {type(e).__name__}: {e}", file=err)
    return code, out.getvalue(), err.getvalue()


def run_validate() -> Outcome:
    code, stdout, stderr = _request(["validate"])
    outcome = Outcome(attempted=1)
    if code != 0:
        outcome.failures.append(f"validate exit {code}: {stderr.strip()}")
    elif "all checks passed" not in stdout:
        outcome.problems.append(f"validate: {stdout.strip()}")
    return outcome


def run_skyline_job(inp: SkylineInput, out: Path) -> Outcome:
    outcome = Outcome()
    for tag, command, mus in CLI_REQUESTS:
        argv = list(command)
        for mu in mus:
            argv += ["--mu", repr(mu / inp.scale)]
        code, _, stderr = _request(
            argv + ["--domain", str(inp.path), "--output-dir", str(out / tag)])
        outcome.attempted += 1
        if code != 0:
            outcome.failures.append(f"{tag} exit {code}: {stderr.strip()}")
    return outcome


def _csv_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def check_skyline_job(inp: SkylineInput, out: Path, outcome: Outcome) -> None:
    failed = {msg.split(" ", 1)[0] for msg in outcome.failures}
    problems = outcome.problems
    if "check" not in failed:
        report = json.loads((out / "check" / "report.json").read_text("utf-8"))
        rows = report["results"]
        outcome.solved_steps += len(rows)
        outcome.recovered_steps += sum(r["varadhan"] is not None for r in rows)
        if (report["ground_truth_convex"] is False
                and report["verdict"] == analysis.VERDICT_HOLDS):
            problems.append(f"check: false certificate on {inp.path.name}")
        if len(rows) != 3:
            problems.append(f"check: {len(rows)} mu rows, expected 3")
    if "varadhan" not in failed:
        rows = _csv_rows(out / "varadhan" / "varadhan.csv")
        outcome.solved_steps += len(rows)
        outcome.recovered_steps += sum(
            math.isfinite(float(r["sup_error"])) for r in rows)
        if len(rows) != 2 or not all(
                float(r["envelope_constant"]) >= 1.0 for r in rows):
            problems.append(f"varadhan: bad rows {rows}")
    if "neumann" not in failed:
        rows = _csv_rows(out / "neumann" / "varadhan.csv")
        if len(rows) != 1 or not math.isfinite(float(rows[0]["sup_error"])):
            problems.append(f"neumann: bad rows {rows}")
    if "probe" not in failed:
        rows = _csv_rows(out / "probe" / "probes.csv")
        if len(rows) != inp.reflex_corners:
            problems.append(f"probe: {len(rows)} probes for "
                            f"{inp.reflex_corners} reflex corners")
        if not all(r["violated"] == "1" for r in rows):
            problems.append("probe: a right-angle reflex corner shows no "
                            "mean-value violation")


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run_job: object
    check_job: object
    per_run: object = None    # one extra request per run, before the jobs


WORKLOADS = {
    "sweep-disc": Workload(make_disc_inputs, run_sweep, check_sweep),
    "sweep-lshape": Workload(make_lshape_inputs, run_sweep, check_sweep),
    "cli-jobs": Workload(make_skyline_inputs, run_skyline_job,
                         check_skyline_job, run_validate),
}
