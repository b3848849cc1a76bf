"""
Triangulating domains
=====================

triangulate(domain, target_h) ear-clips a polygon and flips the result to
its constrained Delaunay triangulation (or lays a concentric web of at most
12 rings over a disc), then refines uniformly until the longest edge is
close to target_h.  Refinement respects curved boundaries: new midpoints on
the disc rim are pushed back out to the circle.
"""

import numpy as np

from panharmonic import (MeshBudgetError, l_shape, mesh_quality,
                         refine_uniform, triangulate, unit_disc)

disc = unit_disc()
ell = l_shape()

print("target_h   nodes   triangles   h_max")
for target in (0.4, 0.2, 0.1, 0.05):
    m = triangulate(disc, target)
    print(f"{target:8.2f} {m.n_nodes:7d} {m.n_triangles:11d}   {m.h_max:.4f}")

# Quality on the finest of those meshes.  The web layout keeps every
# triangle non-obtuse, which is what the solver's M-matrix structure
# (and with it the discrete maximum principle) relies on.
m = triangulate(disc, 0.05)
q = mesh_quality(m)
print(f"\nangles in [{q.min_angle:.1f}, {q.max_angle:.1f}] degrees, "
      f"non-obtuse fraction {q.nonobtuse_fraction:.3f}")

# Rim nodes sit exactly on the unit circle, and refinement keeps them there.
rim = m.nodes[m.boundary_node]
print("max | |x| - 1 | on the rim:", np.abs(np.hypot(rim[:, 0], rim[:, 1]) - 1).max())

fine = refine_uniform(m, disc)
rim = fine.nodes[fine.boundary_node]
print("after refine_uniform:       ", np.abs(np.hypot(rim[:, 0], rim[:, 1]) - 1).max())
print(f"4-way refinement: {m.n_triangles} -> {fine.n_triangles} triangles")

# Polygons keep their area exactly (no boundary to snap).
lm = triangulate(ell, 0.05)
e1 = lm.nodes[lm.triangles[:, 1]] - lm.nodes[lm.triangles[:, 0]]
e2 = lm.nodes[lm.triangles[:, 2]] - lm.nodes[lm.triangles[:, 0]]
areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
print(f"\nL-shape mesh: {lm.n_triangles} triangles, summed area = {areas.sum():.15f}")

# There is a hard ceiling of 2e6 triangles; asking for an absurd spacing
# fails fast instead of exhausting memory.
try:
    triangulate(disc, 1e-4)
except MeshBudgetError as e:
    print("\nbudget guard:", e)
