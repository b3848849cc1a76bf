"""
The gradient-bound margin and the convexity verdict
===================================================

For the unit-data Dirichlet field, convex domains keep |grad v| <= mu v
everywhere, at every mu.  A reentrant corner breaks the bound: the
gradient blows up against a bounded v, so the per-triangle margin
mu * v(centroid) - |grad v| goes strongly negative right at the corner.
convexity_sweep packages this into a verdict, read one-directionally:
nonnegative margins across the sweep back convexity, while a negative
minimum only withholds the certificate (it may be the continuum bound
genuinely failing, or discretization error; the location and size of the
violation tell the two apart, as this script shows).
"""

import numpy as np

from panharmonic import (condition_margin, convexity_sweep, gradient_field,
                         l_shape, solve_dirichlet, triangulate, unit_square)

square = unit_square()
ell = l_shape()

# Low-level view first: solve once, take per-triangle margins.
m = triangulate(ell, 0.025)
field = solve_dirichlet(m, 5.0)
result = condition_margin(field, gradient_field(m, field))
margins = result.margins
c = result.argmin_centroid
print(f"L-shape, mu = 5: {m.n_triangles} triangles")
print(f"  margins in [{margins.min():.3f}, {margins.max():.3f}]")
print(f"  worst triangle centered at ({c.x1:.4f}, {c.x2:.4f})")
print(f"  fraction of triangles in violation: {(margins < 0).mean():.5f}")

# The sweep automates this over a mu ladder, refining the mesh whenever
# mu * h_max > 0.5 and attaching distance-recovery diagnostics.
report = convexity_sweep(ell, [5.0, 10.0, 20.0], 0.025)
print(f"\nL-shape sweep verdict: {report.verdict}")
for res in report.rows:
    c = res.argmin_centroid
    print(f"  mu={res.mu:5g}  min margin {res.min_margin:10.4f}  "
          f"argmin ({c.x1:.4f}, {c.x2:.4f})")
print("the argmin sits on the reentrant corner (1, 1) at every mu, and the")
print("violation is thousands of tolerances deep: the continuum signature")

report = convexity_sweep(square, [2.0, 5.0], 0.05)
print(f"\nunit square sweep verdict: {report.verdict}")
for res in report.rows:
    print(f"  mu={res.mu:5g}  min margin {res.min_margin:10.4f}")
for note in report.notes:
    print("  note:", note)

# A caveat worth knowing before cranking mu higher on polygons: next to a
# straight wall the P1 margin is biased low by O(mu^2 h), while the true
# square margin decays like 2 mu exp(-mu).  The discrete minimum therefore
# goes negative at large mu on any affordable mesh, a resolution artifact,
# not a verdict.  The disc is immune (curvature keeps the true boundary
# margin near 1/2), which is why the test suite certifies it up to mu = 40.
