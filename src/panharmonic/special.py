"""Modified Bessel functions I0, I1 and the closed-form screened-Poisson fields.

The two closed forms implemented here are the standard benchmark solutions of

    lap(v) - mu^2 v = 0,    v = 1 on the boundary:

* on a disc of radius R about the origin,  v(x) = I0(mu |x|) / I0(mu R),
  with |grad v|(x) = mu I1(mu |x|) / I0(mu R);
* on the upper half-plane,  v(x) = exp(-mu x2), for which mu v - |grad v|
  vanishes identically.

I0 and I1 are thin wrappers over scipy.special.  The log-space variants
switch to the exponentially scaled i0e/i1e above MAX_ARGUMENT, so they stay
finite where exp(z) would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# exp(z) overflows IEEE doubles near z = 709; the direct-value functions are
# capped below that so I0 itself stays representable (I0(700) ~ 1.5e302).
MAX_ARGUMENT = 700.0


def _scipy_special():
    # Imported on first use: scipy.special adds about 50 ms and 5 MB to a
    # fresh interpreter, and the finite-element pipeline never needs it.
    from scipy import special
    return special


def _as_argument(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("bessel argument must be finite and nonnegative")
    return arr


def _direct(z, fn):
    arr = _as_argument(z)
    if np.any(arr > MAX_ARGUMENT):
        raise ValueError(
            f"argument exceeds the overflow guard {MAX_ARGUMENT:g}; "
            "use the log-space variant")
    out = fn(arr)
    return float(out) if arr.ndim == 0 else out


def _log(z, fn, scaled_fn):
    # Up to the guard take the log of the direct value, so the log and
    # direct variants agree to rounding; past it, where I(z) overflows, use
    # log(I(z) e^-z) + z.
    arr = _as_argument(z)
    with np.errstate(divide="ignore"):  # log(0) = -inf for I1 at z=0
        out = np.where(arr <= MAX_ARGUMENT, np.log(fn(arr)),
                       np.log(scaled_fn(arr)) + arr)
    return float(out) if arr.ndim == 0 else out


def bessel_i0(z):
    """Modified Bessel function I0 for 0 <= z <= 700 (scalar or array)."""
    return _direct(z, _scipy_special().i0)


def bessel_i1(z):
    """Modified Bessel function I1 for 0 <= z <= 700 (scalar or array)."""
    return _direct(z, _scipy_special().i1)


def log_bessel_i0(z):
    """log I0(z), overflow-free for large z.

    Near z = 0, where I0(z) ~ 1, the result is accurate to a few ulp of 1
    in absolute terms (about 6e-16 on [1e-3, 1]), not relative to its own
    size: at z = 1e-3 the relative error is about 7e-10.
    """
    sp = _scipy_special()
    return _log(z, sp.i0, sp.i0e)


def log_bessel_i1(z):
    """log I1(z); returns -inf at z = 0."""
    sp = _scipy_special()
    return _log(z, sp.i1, sp.i1e)


@dataclass(frozen=True)
class DiscSolution:
    """Closed-form Dirichlet field on a centered disc: v = a I0(mu |x|).

    The normalization a = 1/I0(mu * radius) pins v = 1 on the boundary
    circle.  Evaluation runs in log space so the exponentially small deep
    interior stays representable up to mu * radius = 700.
    """

    radius: float
    mu: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if self.mu * self.radius > MAX_ARGUMENT:
            raise ValueError("mu * radius exceeds the overflow guard")

    @property
    def _log_edge(self) -> float:
        return log_bessel_i0(self.mu * self.radius)

    def value_at_radius(self, s):
        """v at distance s from the center (scalar or array)."""
        z = self.mu * np.asarray(s, dtype=float)
        out = np.exp(log_bessel_i0(z) - self._log_edge)
        return out if np.ndim(s) else float(out)

    def gradient_magnitude_at_radius(self, s):
        """|grad v| = mu a I1(mu s); zero at the center."""
        z = self.mu * np.asarray(s, dtype=float)
        out = self.mu * np.exp(log_bessel_i1(z) - self._log_edge)
        return out if np.ndim(s) else float(out)

    def margin_at_radius(self, s):
        """Condition margin mu v - |grad v| = mu a (I0 - I1)(mu s)."""
        return self.mu * self.value_at_radius(s) - self.gradient_magnitude_at_radius(s)


def disc_solution_eval(solution: DiscSolution, p) -> tuple[float, float]:
    """Return (value, |gradient|) of the disc field at a point p.

    p is any pair (x1, x2) measured from the disc center; it must lie in the
    closed disc.
    """
    x1, x2 = float(p[0]), float(p[1])
    s = math.hypot(x1, x2)
    if s > solution.radius * (1.0 + 1e-12):
        raise ValueError("point lies outside the disc")
    s = min(s, solution.radius)
    return solution.value_at_radius(s), solution.gradient_magnitude_at_radius(s)


def halfplane_solution_eval(mu: float, p) -> tuple[float, float]:
    """Return (value, |gradient|) of v = exp(-mu x2) on the upper half-plane.

    The margin mu v - |grad v| vanishes identically: the gradient bound is
    tight, so this field exercises the equality case exactly.
    """
    if mu <= 0.0 or not math.isfinite(mu):
        raise ValueError("mu must be positive and finite")
    x2 = float(p[1])
    if x2 < 0.0:
        raise ValueError("point lies outside the upper half-plane")
    value = math.exp(-mu * x2)
    return value, mu * value
