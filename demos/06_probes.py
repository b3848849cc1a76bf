"""
Superharmonicity probes and the decay envelope
==============================================

Two secondary diagnostics live alongside the margin check.

First, the distance function of a convex domain is superharmonic: its
average over any interior disc never beats its center value.  A reflex
corner flips that locally.  superharmonicity_probe integrates d over
small discs with a Gauss-Legendre rule and reports violations.

Second, the field is squeezed under a decay envelope
v <= C * exp(-mu (1 - rho) d); decay_envelope_fit extracts the smallest
C that the supplied fields allow.
"""

import numpy as np

from panharmonic import (Disc, DiscSolution, Point2, ScalarField,
                         bessel_i0, canonical_corner_probe,
                         decay_envelope_fit, distance_to_boundary, l_shape,
                         superharmonicity_probe, triangulate, unit_disc,
                         unit_square)

ell = l_shape()

# The stock probe for vertex 3 (the reentrant corner at (1,1)): center
# pulled diagonally into the domain, radius an eighth of the scale.
probe = canonical_corner_probe(ell, 3, 0.8)
print(f"probe center ({probe.center.x1}, {probe.center.x2}), radius {probe.radius}")

res = superharmonicity_probe(ell, [probe])[0]
print(f"mean d over probe  {res.mean:.8f}")
print(f"d at probe center  {res.center_value:.8f}")
print(f"violated: {res.violated}  (mean exceeds center by {res.mean - res.center_value:.6f})")

# On the square, random probes never violate.  Radius is half the center
# distance so every probe disc stays strictly inside.
square = unit_square()
rng = np.random.default_rng(7)
probes = []
for _ in range(20):
    xy = 0.1 + 0.8 * rng.random(2)
    d = distance_to_boundary(square, xy)
    probes.append(Disc(Point2(float(xy[0]), float(xy[1])), d / 2.0))
results = superharmonicity_probe(square, probes)
gaps = [r.mean - r.center_value for r in results]
print(f"\nsquare, 20 random probes: violations = {sum(r.violated for r in results)}")
print(f"largest mean - center gap = {max(gaps):.2e}  (all <= 0 up to roundoff)")

# Decay envelope over a ladder of closed-form disc fields at rho = 1/4.
disc = unit_disc()
m = triangulate(disc, 0.05)
r = np.hypot(m.nodes[:, 0], m.nodes[:, 1])
fields = [ScalarField(m, mu, DiscSolution(1.0, mu).value_at_radius(r), True,
                      "dirichlet") for mu in (4.0, 8.0, 16.0, 32.0)]
env = decay_envelope_fit(fields, disc, 0.25)
print(f"\nenvelope constant C = {env.constant:.6f} at rho = {env.rho}")
print("binding node: the mu = 4 center, where C = e^3 / I0(4) =",
      float(np.exp(3.0) / bessel_i0(4.0)))
