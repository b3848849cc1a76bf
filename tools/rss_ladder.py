"""Print the peak resident set size (``ru_maxrss``) of this process after
each stage of one sweep-lshape job, to see which stage sets the workload's
``peak_rss_mb``:

    python tools/rss_ladder.py --seed 11
    python tools/rss_ladder.py --seed 11 --checkout ../other-checkout

The job is ``bench/workloads.py``'s sweep-lshape job on the seed's input,
run once in this fresh interpreter.  The package is imported from the
checkout's ``src/`` and the workload from its ``bench/workloads.py``, which
is only read (``--checkout`` names another checkout, by default this one).
The stage functions are wrapped, not copied, where the package looks them
up, so the job runs its own loop; one line is printed after each call of

* ``mesh.refine_uniform`` (each refinement of the ladder),
* ``Mesh.free_stiffness``, on its first call per mesh (the fine level's
  stiffness block of each solve; later calls read the cache),
* ``analysis.solve_dirichlet``, ``analysis.gradient_field`` and
  ``analysis.condition_margin``: ``convexity_sweep`` hands the first to
  ``analysis.sweep_rows``, the one sweep loop, which looks up the other two,
  so each mu of the sweep prints one line of each,

as ``stage, mu, triangles, ru_maxrss in MB``.  The peak never falls, so a
stage that adds nothing to it repeats the line above.
``tests/test_tools.py`` runs ``_wrap_stages`` on a two-mu sweep and checks
those three lines per mu.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import weakref
from pathlib import Path

# One BLAS thread, as bench/run.py fixes it, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report(stage: str, mu, triangles: int) -> None:
    mu = "" if mu is None else f"{mu:g}"
    print(f"{stage:<16} {mu:>8} {triangles:>9} {_rss_mb():8.1f} MB", flush=True)


def _wrap_stages(meshing, analysis) -> None:
    """Patch the stage functions where the sweep looks them up."""
    refine, free_stiffness = meshing.refine_uniform, meshing.Mesh.free_stiffness
    built = weakref.WeakSet()

    def refine_uniform(mesh, domain):
        fine = refine(mesh, domain)
        _report("refine_uniform", None, fine.n_triangles)
        return fine

    def first_free_stiffness(mesh, free):
        out = free_stiffness(mesh, free)
        if mesh not in built:
            built.add(mesh)
            _report("free_stiffness", None, mesh.n_triangles)
        return out

    def after(stage, call, where):
        # where(*args) names the call's (mu, mesh).
        def wrapped(*args):
            out = call(*args)
            mu, mesh = where(*args)
            _report(stage, mu, mesh.n_triangles)
            return out
        return wrapped

    meshing.refine_uniform = refine_uniform
    meshing.Mesh.free_stiffness = first_free_stiffness
    analysis.solve_dirichlet = after("solve_dirichlet", analysis.solve_dirichlet,
                                     lambda mesh, mu: (mu, mesh))
    analysis.gradient_field = after("gradient_field", analysis.gradient_field,
                                    lambda mesh, field: (field.mu, mesh))
    analysis.condition_margin = after("condition_margin", analysis.condition_margin,
                                      lambda field, *_: (field.mu, field.mesh))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                   metavar="PATH", help="the checkout whose src/ and bench/ to run")
    args = p.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from panharmonic import analysis, mesh as meshing

    _report("imported", None, 0)
    _wrap_stages(meshing, analysis)
    wl = workloads.WORKLOADS["sweep-lshape"]
    with tempfile.TemporaryDirectory() as work:
        [inp] = wl.make_inputs(args.seed, Path(work))
        wl.run_job(inp, Path(work))
    _report("job done", None, 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
