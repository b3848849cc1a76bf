"""Print the SHA-256 of every output of a fixed set of runs, one
``path sha256`` line each, so that two checkouts can be compared byte for
byte:

    python tools/digest_outputs.py --seed 11
    python tools/digest_outputs.py --seed 11 --against ../other-checkout

With ``--against PATH`` the same digest also runs in the checkout at PATH
(its own ``tools/digest_outputs.py``, in a child process), and only the
paths whose hashes differ, or that one side lacks, are printed; the exit
code is 1 if there are any.

The package is imported from this checkout's ``src/`` and the benchmark's
inputs and jobs from its ``bench/workloads.py``, which is only read.  The
runs are:

* sweep-disc and sweep-lshape: three jobs each on the seed's input;
* cli-jobs: one job (four CLI requests) on each of the twelve skylines,
  their output files and the messages of the requests that failed;
* ``panharmonic validate``: its exit code and standard output;
* ``convexity_sweep`` at mu = 5, 10, 20, 40 on the unit square and the
  L-shape at h = 0.0125 and on the unit disc at h = 0.01: ``report.json``
  and ``margins.csv``.

Everything is written under a temporary directory and named by relative
paths, so no output depends on where it ran.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
# One BLAS thread, as bench/run.py fixes it, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from panharmonic import analysis, geometry  # noqa: E402

SWEEP_JOBS = 3
SWEEP_MUS = (5.0, 10.0, 20.0, 40.0)
SWEEPS = {"square": (geometry.unit_square, 0.0125),
          "lshape": (geometry.l_shape, 0.0125),
          "disc": (geometry.unit_disc, 0.01)}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(seed: int) -> dict:
    """relative path -> bytes of every output of the runs."""
    outputs = {}

    def keep(prefix: Path, out: Path) -> None:
        outputs.update({str(prefix / name): data
                        for name, data in workloads.snapshot(out).items()})

    inputs = Path("inputs")
    for name in ("sweep-disc", "sweep-lshape"):
        wl = workloads.WORKLOADS[name]
        (inputs / name).mkdir(parents=True)
        [inp] = wl.make_inputs(seed, inputs / name)
        for job in range(SWEEP_JOBS):
            out = Path(name) / f"job-{job}"
            out.mkdir(parents=True)
            wl.run_job(inp, out)
            keep(out, out)

    wl = workloads.WORKLOADS["cli-jobs"]
    (inputs / "cli-jobs").mkdir(parents=True)
    for inp in wl.make_inputs(seed, inputs / "cli-jobs"):
        out = Path("cli-jobs") / inp.path.stem
        out.mkdir(parents=True)
        outcome = wl.run_job(inp, out)
        keep(out, out)
        outputs[str(out / "failures")] = "\n".join(outcome.failures).encode()

    code, stdout, _ = workloads._request(["validate"])
    outputs["validate/stdout"] = f"exit {code}\n{stdout}".encode()

    for name, (domain, target_h) in SWEEPS.items():
        out = Path("sweep") / name
        out.mkdir(parents=True)
        report = analysis.convexity_sweep(domain(), SWEEP_MUS, target_h)
        analysis.write_report_json(report, out / "report.json")
        analysis.write_margins_csv(report, out / "margins.csv")
        keep(out, out)
    return outputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--against", type=Path, metavar="PATH",
                   help="another checkout: print the paths whose digests differ")
    args = p.parse_args(argv)
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            outputs = _outputs(args.seed)
        finally:
            os.chdir(here)
    digests = {path: _digest(data) for path, data in outputs.items()}
    if args.against is None:
        for path in sorted(digests):
            print(path, digests[path])
        return 0
    theirs = subprocess.run(
        [sys.executable, str(args.against / "tools" / "digest_outputs.py"),
         "--seed", str(args.seed)], check=True, stdout=subprocess.PIPE, text=True).stdout
    other = dict(line.rsplit(" ", 1) for line in theirs.splitlines())
    paths = digests.keys() | other.keys()
    differ = sorted(path for path in paths if digests.get(path) != other.get(path))
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(paths)} outputs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
