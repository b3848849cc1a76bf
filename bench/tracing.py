"""Outside-in tracing of the panharmonic pipeline.

Every span is recorded from the benchmark's side: each traced public
function is replaced, for the duration of one traced job, by a wrapper
installed at every module attribute where the pipeline looks it up (a
function imported by name into ``analysis`` is patched there as well as in
its home module).  ``Mesh.__init__`` is patched on the class, and the
operator handed to ``solver.solve_spd_system`` is swapped for a thin proxy
that counts and times its applications.  The wrappers call the original
functions with the original arguments, so the arithmetic is unchanged; the
benchmark checks that by comparing output bytes of traced and plain runs.

Spans are kept in memory as ``[name, start, end, parent, job]`` and written
out once, when the benchmark ends.  A span's self time is its duration
minus the durations of its direct children (calls nest, one thread).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import json
import time

from panharmonic import analysis, cli, geometry, mesh, solver

_MODULES = (geometry, mesh, solver, analysis, cli)

# (home module, attribute, span name).  Layers without an entry here are
# not wrapped: ``special`` is reached only through ``panharmonic validate``
# and its cost lands in cli.main's self time.
_TRACED = [
    (geometry, "load_domain", "geometry.load_domain"),
    (geometry, "boundary_distance_batch", "geometry.boundary_distance_batch"),
    (mesh, "triangulate", "mesh.triangulate"),
    (mesh, "refine_uniform", "mesh.refine_uniform"),
    (solver, "assemble", "solver.assemble"),
    (solver, "solve_spd_system", "solver.solve_spd_system"),
    (solver, "solve_dirichlet", "solver.solve_dirichlet"),
    (solver, "solve_neumann", "solver.solve_neumann"),
    (solver, "gradient_field", "solver.gradient_field"),
    (analysis, "condition_margin", "analysis.condition_margin"),
    (analysis, "varadhan_error", "analysis.varadhan_error"),
    (analysis, "decay_envelope_fit", "analysis.decay_envelope_fit"),
    (analysis, "superharmonicity_probe", "analysis.superharmonicity_probe"),
    (analysis, "convexity_sweep", "analysis.convexity_sweep"),
    (analysis, "write_report_json", "analysis.writers"),
    (analysis, "write_margins_csv", "analysis.writers"),
    (cli, "main", "cli.main"),
]

_MESH_BUILDERS = ("mesh.triangulate", "mesh.refine_uniform")


class OperatorProxy:
    """Stands in for the matrix of an SpdSystem: ``a @ x`` is the wrapped
    matrix's own product, counted and timed; every other attribute is
    delegated unchanged."""

    def __init__(self, matrix, counts):
        self._matrix = matrix
        self._counts = counts
        # Bytes one CSR product touches, computed from nnz and n: an 8-byte
        # value and a 4-byte column index per nonzero, a 4-byte row pointer
        # per row, and the 8-byte input and output entries per row.
        n = matrix.shape[0]
        self._bytes = 12 * matrix.nnz + 4 * (n + 1) + 16 * n

    def __getattr__(self, name):
        return getattr(self._matrix, name)

    def __matmul__(self, x):
        t0 = time.perf_counter()
        y = self._matrix @ x
        counts = self._counts
        counts["solver.spmv.s"] += time.perf_counter() - t0
        counts["solver.cg_iters"] += 1
        counts["solver.spmv.bytes_computed"] += self._bytes
        return y


class Tracer:
    """Span recorder plus the per-job bookkeeping behind the mesh and
    field counters.  Trace a job inside ``with tracer.installed():`` and
    call ``finish_job()`` after it."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.missing = []
        self.job = 0
        self._open = []
        self._returned = []   # meshes returned by top-level mesh builders
        self._solved = []     # (mesh, field) pairs returned by the solvers

    # -- spans -------------------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        span = [name, time.perf_counter(), 0.0,
                self._open[-1] if self._open else -1, self.job]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def _inside(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._open)

    # -- wrappers ----------------------------------------------------------
    def _wrapper(self, name, fn):
        counts = self.counts

        if name in _MESH_BUILDERS:
            def wrapper(*args, **kwargs):
                top = not self._inside(_MESH_BUILDERS)
                result = self._call(name, fn, args, kwargs)
                if top:
                    self._returned.append(result)
                return result
        elif name in ("solver.solve_dirichlet", "solver.solve_neumann"):
            def wrapper(*args, **kwargs):
                field = self._call(name, fn, args, kwargs)
                self._solved.append((field.mesh, field))
                return field
        elif name == "solver.solve_spd_system":
            def wrapper(system, *args, **kwargs):
                proxied = dataclasses.replace(
                    system, matrix=OperatorProxy(system.matrix, counts))
                return self._call(name, fn, (proxied,) + args, kwargs)
        elif name == "geometry.boundary_distance_batch":
            def wrapper(domain, points, *args, **kwargs):
                edges = (len(domain.vertices)
                         if isinstance(domain, geometry.Polygon) else 1)
                counts["geometry.boundary_distance_batch.pairs"] += (
                    len(points) * edges)
                return self._call(name, fn, (domain, points) + args, kwargs)
        elif name == "cli.main":
            def wrapper(*args, **kwargs):
                code = self._call(name, fn, args, kwargs)
                counts["cli.exit_nonzero"] += code != 0
                return code
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        undo = []
        try:
            for home, attr, name in _TRACED:
                fn = getattr(home, attr, None)
                if fn is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = self._wrapper(name, fn)
                for module in _MODULES:
                    if getattr(module, attr, None) is fn:
                        undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)
            init = mesh.Mesh.__init__

            def traced_init(obj, *args, **kwargs):
                self._call("mesh.Mesh", init, (obj,) + args, kwargs)
                self.counts["mesh.triangles_built"] += obj.n_triangles

            undo.append((mesh.Mesh, "__init__", init))
            mesh.Mesh.__init__ = functools.wraps(init)(traced_init)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- per-job bookkeeping, run outside any span -------------------------
    def finish_job(self):
        """Fold the job's meshes and fields into the counters, then drop
        the references so they do not outlive the job."""
        counts = self.counts
        solved_ids = {id(m) for m, _ in self._solved}
        counts["mesh.returned"] += len(self._returned)
        counts["mesh.useful"] += sum(id(m) in solved_ids for m in self._returned)
        seen = set()
        for m, field in self._solved:
            if field.boundary_condition == "dirichlet":
                counts["solver.nonpositive_nodes"] += int(
                    (field.values <= 0.0).sum())
            if id(m) in seen:
                continue
            seen.add(id(m))
            q = mesh.mesh_quality(m)
            counts["mesh.solved_triangles"] += m.n_triangles
            counts["mesh.nonobtuse_triangles"] += (
                q.nonobtuse_fraction * m.n_triangles)
            prev = counts.get("mesh.min_angle_deg")
            counts["mesh.min_angle_deg"] = (
                q.min_angle if prev is None else min(prev, q.min_angle))
        self._returned.clear()
        self._solved.clear()
        self.job += 1

    # -- aggregation -------------------------------------------------------
    def span_totals(self):
        """name -> [calls, total_s, self_s], plus the root spans' total."""
        child = [0.0] * len(self.spans)
        root_s = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root_s += end - start
        totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return totals, root_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")
