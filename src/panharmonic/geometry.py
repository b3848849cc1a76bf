"""Planar domains: polygons and discs, with exact boundary distance.

A domain is either a simple polygon (vertices stored counterclockwise) or a
disc.  Both support containment tests, the exact Euclidean distance to the
boundary curve (the reference every discrete distance estimate in this
package is judged against), and deterministic disc averages of that distance.
Every boundary distance, of a polygon or a disc, of one point or of many,
comes from one kernel, boundary_distance_batch.  Every orientation decision
(whether a polygon is simple, which vertices are reflex, hence whether it is
convex, and which corners mesh's ear clipping cuts) comes from one turn
test, _orient, evaluated on arrays.

Geometric tolerances are expressed relative to the bounding-box diagonal so
that all predicates are scale-free.

The JSON interchange format is::

    {"type": "polygon", "vertices": [[x1, y1], [x2, y2], ...]}
    {"type": "disc", "center": [cx, cy], "radius": r}

Vertex order in a file may be either orientation; loading normalizes to
counterclockwise.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

# Relative tolerance for "on the boundary" / "coincident vertices" tests,
# multiplied by the bounding-box diagonal.
GEOMETRIC_TOL = 1e-12
# boundary_distance_batch takes a polygon's edges in blocks of at most this
# many point-edge pairs.
_BLOCK_PAIRS = 2**15


class Point2(NamedTuple):
    """A point in the plane; unpacks as an (x1, x2) pair."""

    x1: float
    x2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2], dtype=float)


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError("expected a point with two coordinates")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


def _orient(p, q, r):
    """(q - p) x (r - p): twice the signed area of the triangle pqr, positive
    when r lies left of the line from p to q.  Points are stacked on the last
    axis and broadcast against each other."""
    return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


def _in_box(p, q, r):
    # Whether r lies in the closed bounding box of the segment pq.
    inside = (np.minimum(p, q) <= r) & (r <= np.maximum(p, q))
    return inside[..., 0] & inside[..., 1]


@dataclass(frozen=True)
class Polygon:
    """Simple polygon; vertices are normalized to counterclockwise order."""

    vertices: np.ndarray = field(repr=False)

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        diag = _bbox_diagonal(v)
        gaps = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
        if np.any(gaps <= GEOMETRIC_TOL * diag):
            raise ValueError("polygon has coincident consecutive vertices")
        area2 = _shoelace_twice(v)
        if abs(area2) <= GEOMETRIC_TOL * diag * diag:
            raise ValueError("polygon is degenerate (zero area)")
        if area2 < 0.0:
            v = v[::-1].copy()
        _check_simple(v)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def signed_area(self) -> float:
        return 0.5 * _shoelace_twice(self.vertices)

    def perimeter(self) -> float:
        d = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def interior_angle(self, i: int) -> float:
        """Interior angle at vertex i, in (0, 2 pi).  A turn within the
        collinearity band of reflex_vertices counts as none, so the angle
        exceeds pi exactly when i is a reflex vertex."""
        v = self.vertices
        n = len(v)
        a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
        cross = float(_orient(b, c, a))
        scale = _bbox_diagonal(v)
        if abs(cross) <= GEOMETRIC_TOL * scale * scale:
            cross = 0.0
        return math.pi - math.atan2(cross, float((b - a) @ (c - b)))

    def reflex_vertices(self) -> list[int]:
        """Indices of the vertices where the boundary turns clockwise: the
        cross product of the incoming and outgoing edges is below
        -GEOMETRIC_TOL * scale^2, so the interior angle exceeds pi."""
        v = self.vertices
        turn = _orient(v, np.roll(v, -1, axis=0), np.roll(v, 1, axis=0))
        scale = _bbox_diagonal(v)
        return np.flatnonzero(turn < -GEOMETRIC_TOL * scale * scale).tolist()


def _shoelace_twice(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def _bbox_diagonal(v: np.ndarray) -> float:
    span = v.max(axis=0) - v.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def _check_simple(v: np.ndarray) -> None:
    # Non-adjacent edges must not touch, shared endpoints and collinear
    # overlaps included.  Each edge i is tested against every later edge j
    # but its neighbours at once, and the first pair (i, j) touching raises.
    n = len(v)
    w = np.roll(v, -1, axis=0)
    for i in range(n - 2):
        j0, j1 = i + 2, n - 1 if i == 0 else n
        a, b, c, d = v[i], w[i], v[j0:j1], w[j0:j1]
        o1, o2 = np.sign(_orient(a, b, c)), np.sign(_orient(a, b, d))
        o3, o4 = np.sign(_orient(c, d, a)), np.sign(_orient(c, d, b))
        touch = (((o1 != o2) & (o3 != o4))
                 | ((o1 == 0) & _in_box(a, b, c)) | ((o2 == 0) & _in_box(a, b, d))
                 | ((o3 == 0) & _in_box(c, d, a)) | ((o4 == 0) & _in_box(c, d, b)))
        if touch.any():
            j = j0 + int(np.argmax(touch))
            raise ValueError(
                f"polygon is not simple: edges {i} and {j} intersect")


def _crossing_parity(v: np.ndarray, p: np.ndarray) -> bool:
    # Even-odd ray crossing; points near the boundary are settled by the
    # caller's tolerance band before this runs.
    w = np.roll(v, -1, axis=0)
    span = (v[:, 1] > p[1]) != (w[:, 1] > p[1])
    a, b = v[span], w[span]
    x_cross = a[:, 0] + (p[1] - a[:, 1]) / (b[:, 1] - a[:, 1]) * (b[:, 0] - a[:, 0])
    return bool(np.count_nonzero(p[0] < x_cross) % 2)


@dataclass(frozen=True)
class Disc:
    """A domain, or a probe over which boundary distance is averaged.  A
    probe's closure must lie inside the probed domain; disc_mean_distance
    and the superharmonicity pipeline verify that before integrating."""

    center: Point2
    radius: float

    def __post_init__(self):
        c = Point2(*(float(x) for x in self.center))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if not all(map(math.isfinite, c)):
            raise ValueError("disc center must be finite")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("disc radius must be positive and finite")


Domain = Union[Polygon, Disc]


def domain_scale(domain: Domain) -> float:
    """Bounding-box diagonal, the reference length for tolerances."""
    if isinstance(domain, Polygon):
        return _bbox_diagonal(domain.vertices)
    return 2.0 * math.sqrt(2.0) * domain.radius


def boundary_distance_batch(domain: Domain, points: np.ndarray) -> np.ndarray:
    """Vectorized |boundary distance| for an (n, 2) array of points.

    No containment check is performed; exterior points get their unsigned
    distance to the boundary curve.  For a polygon, one pass per block of
    edges keeps the running minimum of the squared distance to each edge's
    clamped foot point, and one square root ends it (the root is monotone,
    so the two commute).  A block holds at most _BLOCK_PAIRS point-edge
    pairs: all of a small polygon's edges for one point, one edge at a time
    for a large mesh's nodes.  Memory is O(n) and each row is computed
    independently of the others by the same arithmetic, and the minimum is
    exact, so a single-point call returns the same bits as its row here.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    x, y = pts[:, 0], pts[:, 1]
    if isinstance(domain, Disc):
        return np.abs(domain.radius
                      - np.hypot(x - domain.center.x1, y - domain.center.x2))
    v = domain.vertices
    ab = np.roll(v, -1, axis=0) - v
    best = np.full(pts.shape[0], np.inf)
    step = max(1, _BLOCK_PAIRS // max(1, pts.shape[0]))
    for start in range(0, len(v), step):
        # One row per edge of the block, one column per point.
        (ax, ay), (abx, aby) = (a[start:start + step].T[:, :, None] for a in (v, ab))
        apx, apy = x - ax, y - ay
        # In place where the arithmetic allows: the same bits as
        # (apx * abx + apy * aby) / (abx * abx + aby * aby) and
        # apx * apx + apy * apy, with half the temporaries.
        t = apx * abx
        t += apy * aby
        t /= abx * abx + aby * aby
        np.clip(t, 0.0, 1.0, out=t)
        apx -= t * abx
        apy -= t * aby
        apx *= apx
        apy *= apy
        apx += apy
        np.minimum(best, apx.min(axis=0), out=best)
    return np.sqrt(best, out=best)


def _one_point(domain: Domain, p) -> tuple[np.ndarray, float, float]:
    # p as an array, its boundary distance, and the tolerance band.
    p = _as_point(p)
    d = float(boundary_distance_batch(domain, p[None, :])[0])
    return p, d, GEOMETRIC_TOL * domain_scale(domain)


def _inside(domain: Domain, p: np.ndarray) -> bool:
    # Which side of the boundary p lies on; callers first check that p is
    # outside the tolerance band, where the crossing parity is reliable.
    if isinstance(domain, Disc):
        return math.hypot(p[0] - domain.center.x1,
                          p[1] - domain.center.x2) < domain.radius
    return _crossing_parity(domain.vertices, p)


def contains_point(domain: Domain, p) -> bool:
    """True iff p lies in the open domain.

    Points within GEOMETRIC_TOL of the boundary (relative to the
    bounding-box diagonal) are classified as not contained.
    """
    p, d, band = _one_point(domain, p)
    return d > band and _inside(domain, p)


def distance_to_boundary(domain: Domain, p) -> float:
    """Minimum Euclidean distance from p to the domain boundary.

    Defined for points of the closed domain; points strictly outside are
    rejected.  The result is >= 0, vanishes exactly on the boundary and is
    p's row of boundary_distance_batch, bit for bit.
    """
    p, d, band = _one_point(domain, p)
    if d > band and not _inside(domain, p):
        raise ValueError("point lies outside the domain")
    return d


def is_convex_polygon(domain: Domain) -> bool:
    """Convexity ground truth: a disc is convex unconditionally, and a
    polygon when it has no reflex vertex (Polygon.reflex_vertices)."""
    return isinstance(domain, Disc) or not domain.reflex_vertices()


def probe_fits(domain: Domain, probe: Disc) -> bool:
    """True iff the probe's closed disc lies inside the domain."""
    c, d, band = _one_point(domain, probe.center)
    return d > band and _inside(domain, c) and d >= probe.radius - band


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre rule on [-1, 1], computed once per
    order and returned as read-only arrays."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.setflags(write=False)
    return rule


def disc_mean_distance(domain: Domain, probe: Disc,
                       radial_order: int = 24, angular_order: int = 96) -> float:
    """Mean of the boundary distance over the probe disc.

    Tensor quadrature: Gauss-Legendre in the radial variable (with the
    polar Jacobian) times a uniform periodic-trapezoid rule in angle.
    Deterministic for fixed orders.
    """
    if radial_order < 4 or angular_order < 8:
        raise ValueError("need radial_order >= 4 and angular_order >= 8")
    if not probe_fits(domain, probe):
        raise ValueError("probe disc is not contained in the domain")
    xi, w = _gauss_legendre(radial_order)
    rho = probe.radius
    s = 0.5 * rho * (xi + 1.0)        # radial nodes in (0, rho)
    ws = 0.5 * rho * w * s            # GL weight times Jacobian s
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    cx, cy = probe.center
    px = cx + np.outer(s, np.cos(theta))
    py = cy + np.outer(s, np.sin(theta))
    pts = np.column_stack([px.ravel(), py.ravel()])
    d = boundary_distance_batch(domain, pts).reshape(radial_order, angular_order)
    integral = float(ws @ d.sum(axis=1)) * (2.0 * np.pi / angular_order)
    return integral / (np.pi * rho * rho)


def domain_to_dict(domain: Domain) -> dict:
    if isinstance(domain, Polygon):
        return {"type": "polygon", "vertices": domain.vertices.tolist()}
    if isinstance(domain, Disc):
        return {"type": "disc", "center": [domain.center.x1, domain.center.x2],
                "radius": domain.radius}
    raise TypeError(f"not a domain: {type(domain).__name__}")


def domain_from_dict(data: dict) -> Domain:
    if not isinstance(data, dict):
        raise ValueError("domain description must be a JSON object")
    kind = data.get("type")
    if kind == "polygon":
        if "vertices" not in data:
            raise ValueError("polygon domain needs a 'vertices' field")
        return Polygon(data["vertices"])
    if kind == "disc":
        if "center" not in data or "radius" not in data:
            raise ValueError("disc domain needs 'center' and 'radius' fields")
        return Disc(Point2(*data["center"]), data["radius"])
    raise ValueError(f"unknown domain type: {kind!r}")


def load_domain(path) -> Domain:
    with open(path, encoding="utf-8") as f:
        return domain_from_dict(json.load(f))


def dump_domain(domain: Domain, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(domain_to_dict(domain), f, indent=2)
        f.write("\n")


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def l_shape() -> Polygon:
    """The [0,2]^2 square with the quadrant [1,2]x[1,2] removed.

    Its single reflex corner at (1, 1) is the canonical nonconvexity used
    throughout the tests.
    """
    return Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0),
                    (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)])


def unit_disc() -> Disc:
    return Disc(Point2(0.0, 0.0), 1.0)


def regular_polygon(n_sides: int, radius: float = 1.0,
                    center=(0.0, 0.0)) -> Polygon:
    """Regular n-gon inscribed in a circle; a stand-in for smooth domains."""
    if n_sides < 3:
        raise ValueError("need at least 3 sides")
    theta = 2.0 * np.pi * np.arange(n_sides) / n_sides
    cx, cy = float(center[0]), float(center[1])
    return Polygon(np.column_stack([cx + radius * np.cos(theta),
                                    cy + radius * np.sin(theta)]))
