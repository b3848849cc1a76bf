"""panharmonic benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload {sweep-disc,sweep-lshape,cli-jobs} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up (imports plus seeded input generation, timed
once here and again in fresh interpreters), then runs jobs of the workload
back to back until ``--seconds`` have passed, checking every job's outputs.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics.  With ``--trace 1`` plain and traced jobs alternate on the same
inputs; their outputs must be byte-identical, and the last line reports the
per-layer metrics, per traced job, recorded by the wrappers in
``tracing.py``.  Earlier lines record the environment, job counts, failure
messages and the per-layer metrics that do not apply to the workload.
Scratch files go under ``.bench_work/`` in the checkout; the traced run
leaves its spans in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep-disc", "sweep-lshape", "cli-jobs")
# BLAS threads, fixed here (at most nproc) so runs do not depend on the
# library default; the package itself is not configured.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5

# (name, unit) of every per-layer metric, in output order.
PER_LAYER = [
    ("mesh.Mesh.calls", "count/job"), ("mesh.Mesh.s", "s/job"),
    ("mesh.triangles_built", "count/job"),
    ("mesh.triangulate.calls", "count/job"),
    ("mesh.triangulate.self_s", "s/job"),
    ("mesh.refine_uniform.calls", "count/job"),
    ("mesh.refine_uniform.self_s", "s/job"),
    ("mesh.useful_frac", "frac"), ("mesh.min_angle_deg", "deg"),
    ("mesh.nonobtuse_frac", "frac"),
    ("solver.assemble.calls", "count/job"), ("solver.assemble.s", "s/job"),
    ("solver.solve_spd_system.calls", "count/job"),
    ("solver.solve_spd_system.s", "s/job"),
    ("solver.cg_iters", "count/job"), ("solver.spmv.s", "s/job"),
    ("solver.spmv.bytes_computed", "B/job"),
    ("solver.solve_dirichlet.self_s", "s/job"),
    ("solver.solve_neumann.self_s", "s/job"),
    ("solver.gradient_field.s", "s/job"),
    ("solver.nonpositive_nodes", "count/job"),
    ("geometry.boundary_distance_batch.calls", "count/job"),
    ("geometry.boundary_distance_batch.s", "s/job"),
    ("geometry.boundary_distance_batch.pairs", "count/job"),
    ("geometry.load_domain.s", "s/job"),
    ("analysis.condition_margin.s", "s/job"),
    ("analysis.varadhan_error.s", "s/job"),
    ("analysis.decay_envelope_fit.s", "s/job"),
    ("analysis.superharmonicity_probe.s", "s/job"),
    ("analysis.writers.s", "s/job"),
    ("analysis.convexity_sweep.self_s", "s/job"),
    ("cli.main.calls", "count/job"), ("cli.main.self_s", "s/job"),
    ("cli.exit_nonzero", "count/job"), ("cli.bytes_written", "B/job"),
    ("trace.overhead_frac", "frac"), ("trace.coverage", "frac"),
]
# Counters kept by tracing.py, reported per traced job.
_PER_JOB_COUNTS = {"mesh.triangles_built", "solver.cg_iters", "solver.spmv.s",
                   "solver.spmv.bytes_computed", "solver.nonpositive_nodes",
                   "geometry.boundary_distance_batch.pairs",
                   "cli.exit_nonzero", "cli.bytes_written"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: time set-up alone in a fresh interpreter, into this directory.
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _timed_setup(workload: str, seed: int, directory: Path):
    """Imports plus input generation: the work done before the timed region."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    inputs = workloads.WORKLOADS[workload].make_inputs(seed, directory)
    return time.perf_counter() - t0, inputs


def _setup_in_child(args, directory: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         str(directory), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARIABLES},
        "machine": platform.machine(),
    }


def _run_job(wl, inp, out: Path):
    import workloads
    out.mkdir(parents=True)
    try:
        return wl.run_job(inp, out)
    except Exception as e:  # a job that raises is one failed operation
        return workloads.Outcome(attempted=1,
                                 failures=[f"{type(e).__name__}: {e}"])


def _check_job(wl, inp, out: Path, outcome) -> dict:
    """Check a finished job's outputs, then return and delete them."""
    import workloads
    try:
        wl.check_job(inp, out, outcome)
    except Exception as e:  # unreadable or malformed output
        outcome.problems.append(f"output check raised {type(e).__name__}: {e}")
    snap = workloads.snapshot(out)
    shutil.rmtree(out)
    return snap


def _summary(total) -> dict:
    """Distinct failure and problem messages with their counts."""
    return {key: [{"count": c, "message": m[:300]}
                  for m, c in collections.Counter(messages).items()]
            for key, messages in (("failures", total.failures),
                                  ("problems", total.problems))}


def run_plain(args, inputs, run_dir: Path):
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    total = workloads.Outcome()
    start = time.perf_counter()
    busy = 0.0
    if wl.per_run is not None:
        t0 = time.perf_counter()
        total.add(wl.per_run())
        busy += time.perf_counter() - t0
    times, first = [], {}
    k = 0
    while True:
        i = k % len(inputs)
        out = run_dir / f"job-{k}"
        t0 = time.perf_counter()
        outcome = _run_job(wl, inputs[i], out)
        dt = time.perf_counter() - t0
        times.append(dt)
        busy += dt
        snap = _check_job(wl, inputs[i], out, outcome)
        if i in first and snap != first[i]:
            outcome.problems.append(f"outputs differ on rerun of input {i}")
        first.setdefault(i, snap)
        total.add(outcome)
        k += 1
        # Whole rounds (one job per input), so every run sees the same mix
        # of inputs, and at least two jobs; then stop at the round end
        # nearest to the deadline.
        if k % len(inputs) == 0 and k >= 2:
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 * len(inputs) / k) >= args.seconds:
                break
    if k <= len(inputs):
        # Byte-determinism: rerun the first input once, outside the timing.
        out = run_dir / "rerun"
        outcome = _run_job(wl, inputs[0], out)
        if _check_job(wl, inputs[0], out, outcome) != first[0]:
            total.problems.append("outputs differ on rerun of input 0")
    info = {"jobs": len(times), "job_s": times, "attempted": total.attempted,
            **_summary(total)}
    solved = total.solved_steps
    metrics = {
        "wall_s": (busy / len(times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((total.attempted - total.failed) / total.attempted, "frac"),
        "recovered_frac": (total.recovered_steps / solved if solved else 0.0,
                           "frac"),
    }
    return total, metrics, info


def run_traced(args, inputs, run_dir: Path):
    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    total = workloads.Outcome()
    traced_wall = 0.0
    start = time.perf_counter()
    if wl.per_run is not None:
        t0 = time.perf_counter()
        with tracer.installed():
            total.add(wl.per_run())
        traced_wall += time.perf_counter() - t0
        tracer.finish_job()
    plain_t, traced_t = [], []
    k = 0
    while True:
        i = k % len(inputs)
        snaps = {}
        # Alternate which side runs first, so warm-up does not bias one.
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out = run_dir / f"job-{k}-{'traced' if traced else 'plain'}"
            ctx = tracer.installed() if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            with ctx:
                outcome = _run_job(wl, inputs[i], out)
            dt = time.perf_counter() - t0
            snaps[traced] = _check_job(wl, inputs[i], out, outcome)
            if traced:
                tracer.finish_job()
                traced_t.append(dt)
                traced_wall += dt
                if args.workload == "cli-jobs":
                    tracer.counts["cli.bytes_written"] += sum(
                        len(b) for b in snaps[traced].values())
            else:
                plain_t.append(dt)
            total.add(outcome)
        if snaps[True] != snaps[False]:
            total.problems.append(
                f"traced outputs differ from plain outputs on input {i}")
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break

    totals, root_s = tracer.span_totals()
    counts = tracer.counts
    jobs = len(traced_t)
    values, not_applicable = {}, []
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name in _PER_JOB_COUNTS:
            values[name] = counts.get(name, 0) / jobs
        elif stat in ("calls", "s", "self_s"):
            calls, total_s, self_s = totals.get(layer, (0, 0.0, 0.0))
            if not calls:
                not_applicable.append(name)
            values[name] = {"calls": calls, "s": total_s,
                            "self_s": self_s}[stat] / jobs
    returned = counts.get("mesh.returned", 0)
    solved_tris = counts.get("mesh.solved_triangles", 0)
    values["mesh.useful_frac"] = counts["mesh.useful"] / returned if returned else 0.0
    values["mesh.min_angle_deg"] = float(counts.get("mesh.min_angle_deg", 0.0))
    values["mesh.nonobtuse_frac"] = (
        counts["mesh.nonobtuse_triangles"] / solved_tris if solved_tris else 0.0)
    values["trace.overhead_frac"] = (
        statistics.median(traced_t) / statistics.median(plain_t) - 1.0)
    values["trace.coverage"] = root_s / traced_wall
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    info = {"traced_jobs": jobs, "plain_jobs": len(plain_t),
            "attempted": total.attempted, "not_applicable": not_applicable,
            "wrappers_missing": tracer.missing, **_summary(total)}
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return total, metrics, info


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "panharmonic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'panharmonic'}; run from "
              "the root of a panharmonic checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        directory = Path(args.setup_only)
        directory.mkdir(parents=True)
        try:
            seconds, _ = _timed_setup(args.workload, args.seed, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        print(repr(seconds))
        return 0

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    (run_dir / "inputs").mkdir(parents=True)
    try:
        setup_s, inputs = _timed_setup(args.workload, args.seed,
                                       run_dir / "inputs")
        setups = [setup_s] + [_setup_in_child(args, run_dir / f"setup-{n}")
                              for n in range(SETUP_SAMPLES - 1)]
        print("environment:", json.dumps(_environment()), flush=True)
        runner = run_traced if args.trace else run_plain
        total, metrics, info = runner(args, inputs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
        info["setup_samples_s"] = setups
    print("run:", json.dumps(info), flush=True)
    print(json.dumps({
        "correct": not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
