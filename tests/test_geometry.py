"""Planar domain primitives: distances, containment, convexity, probes.

The distance tests lean on a brute-force oracle: sample the boundary
densely by arclength and take the minimum pointwise distance.  With a
million samples the oracle is good to well below 1e-5, so agreement at
that level certifies the analytic segment projections independently.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from panharmonic.geometry import (Disc, Point2, Polygon,
                                  _crossing_parity, _shoelace_twice,
                                  boundary_distance_batch,
                                  contains_point,
                                  disc_mean_distance, distance_to_boundary,
                                  domain_from_dict, domain_scale,
                                  domain_to_dict, dump_domain,
                                  is_convex_polygon, l_shape, load_domain,
                                  probe_fits, regular_polygon, unit_disc,
                                  unit_square)
from strategies import skylines, star_polygons

SQRT2 = math.sqrt(2.0)
# The unit square dented inward by 1e-12 at the midpoint of its top side:
# the turn there is -1e-12, inside the collinearity band.
DENTED_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0.5, 1 - 1e-12), (0, 1)])


def _boundary_samples(polygon: Polygon, n: int) -> np.ndarray:
    """n points spread along the boundary, density proportional to length."""
    v = polygon.vertices
    e = np.roll(v, -1, axis=0) - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    counts = np.maximum((n * lengths / lengths.sum()).astype(int), 2)
    parts = [a + np.linspace(0.0, 1.0, c)[:, None] * d
             for a, d, c in zip(v, e, counts)]
    return np.vstack(parts)


def _oracle_distance(polygon: Polygon, p, samples) -> float:
    return float(np.hypot(*(samples - np.asarray(p, float)).T).min())


def _segment_distance(p, a, b) -> float:
    """Distance from p to the closed segment [a, b], one point at a time:
    the foot point clamped to the segment, then hypot."""
    ab = b - a
    t = min(1.0, max(0.0, float((p - a) @ ab) / float(ab @ ab)))
    return float(np.hypot(*(p - (a + t * ab))))


def _segments_touch(a, b, c, d) -> bool:
    """Whether the closed segments [a, b] and [c, d] meet, one pair at a
    time: proper crossings, shared endpoints and collinear overlaps."""
    def orient(p, q, r):
        v = float((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
        return (v > 0.0) - (v < 0.0)

    def on_segment(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return ((o1 != o2 and o3 != o4)
            or (o1 == 0 and on_segment(a, b, c)) or (o2 == 0 and on_segment(a, b, d))
            or (o3 == 0 and on_segment(c, d, a)) or (o4 == 0 and on_segment(c, d, b)))


def _first_touching_edges(v):
    """The first pair (i, j), i < j, of non-adjacent edges of the closed
    polyline v that meet, scanning pair by pair, or None."""
    n = len(v)
    for i in range(n):
        for j in range(i + 2, n):
            if (j + 1) % n != i and _segments_touch(v[i], v[(i + 1) % n],
                                                    v[j], v[(j + 1) % n]):
                return i, j
    return None


def _crossing_parity_loop(v, p) -> bool:
    """Even-odd ray crossing, one edge at a time."""
    inside = False
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        if (a[1] > p[1]) != (b[1] > p[1]):
            x_cross = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
            if p[0] < x_cross:
                inside = not inside
    return inside


@st.composite
def grid_polylines(draw):
    """Closed polylines of 3 to 8 points of the 4 x 4 integer grid, no two
    consecutive points equal: many shared points, collinear overlaps and
    crossings, with exact orientation signs."""
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        min_size=3, max_size=8))
    pts = [p for k, p in enumerate(pts) if p != pts[k - 1]]
    if len(pts) < 3:
        reject()
    return np.array(pts, dtype=float)


@st.composite
def shuffled_stars(draw):
    """Vertices of a star polygon in a drawn order: mostly crossings in
    general position."""
    v = draw(star_polygons()).vertices
    return v[draw(st.permutations(range(len(v))))]


@st.composite
def polygons_and_points(draw):
    """A star polygon or a skyline with 96 points in its padded bounding
    box and 32 points on its sides."""
    polygon = draw(st.one_of(star_polygons(), skylines()))
    v = polygon.vertices
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = v.min(axis=0), v.max(axis=0)
    box = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (96, 2))
    side = rng.integers(len(v), size=32)
    ab = np.roll(v, -1, axis=0) - v
    on_sides = v[side] + rng.random((32, 1)) * ab[side]
    return polygon, np.vstack([box, on_sides])


# The foot inside a side, a clamp to the side's endpoint, a point on a side.
SIDE_EXAMPLE = (Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, -5.0)]),
                np.array([[0.5, 1.0], [2.0, 0.0], [0.3, 0.0]]))


class TestDistance:
    def test_square_hand_values(self, unit_square):
        assert distance_to_boundary(unit_square, (0.5, 0.5)) == pytest.approx(0.5)
        assert distance_to_boundary(unit_square, (0.25, 0.5)) == pytest.approx(0.25)
        assert distance_to_boundary(unit_square, (1.0, 0.3)) == 0.0

    def test_l_shape_hand_values(self, l_shape):
        # Nearest feature of (0.8, 0.8) is the reentrant corner itself.
        assert distance_to_boundary(l_shape, (0.8, 0.8)) == pytest.approx(
            0.2 * SQRT2, rel=1e-14)
        # (1.2, 0.8) sits in the bottom arm; the top edge of that arm wins.
        assert distance_to_boundary(l_shape, (1.2, 0.8)) == pytest.approx(
            0.2, rel=1e-13)

    def test_against_brute_force_oracle(self, l_shape, unit_square):
        for polygon, probes in (
            (l_shape, [(0.8, 0.8), (1.2, 0.8), (0.1, 1.9), (0.5, 0.5)]),
            (unit_square, [(0.5, 0.5), (0.03, 0.9), (0.4, 0.08)]),
        ):
            samples = _boundary_samples(polygon, 1_000_000)
            for p in probes:
                assert distance_to_boundary(polygon, p) == pytest.approx(
                    _oracle_distance(polygon, p, samples), abs=1e-5)

    def test_corner_probes(self, unit_square, l_shape):
        eps = 1e-3
        # Convex corner: d = eps * sin(theta/2) for a probe on the bisector.
        p = (eps / SQRT2, eps / SQRT2)
        assert distance_to_boundary(unit_square, p) == pytest.approx(
            eps * math.sin(math.pi / 4), rel=1e-9)
        # Reflex corner: the corner point itself is nearest, d = eps.
        q = (1.0 - eps / SQRT2, 1.0 - eps / SQRT2)
        assert distance_to_boundary(l_shape, q) == pytest.approx(eps, rel=1e-9)

    def test_lipschitz(self, l_shape):
        rng = np.random.default_rng(42)
        pts = []
        while len(pts) < 40:
            p = rng.uniform(0.0, 2.0, size=2)
            if contains_point(l_shape, p):
                pts.append(p)
        for a, b in zip(pts[:-1], pts[1:]):
            gap = abs(distance_to_boundary(l_shape, a)
                      - distance_to_boundary(l_shape, b))
            assert gap <= np.hypot(*(a - b)) * (1 + 1e-12)

    def test_scaling_covariance(self):
        small = regular_polygon(5, radius=1.0)
        big = regular_polygon(5, radius=3.0)
        for p in ((0.2, 0.1), (0.0, 0.0), (-0.3, 0.4)):
            d1 = distance_to_boundary(small, p)
            d3 = distance_to_boundary(big, tuple(3.0 * np.asarray(p)))
            assert d3 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_disc_distance(self, unit_disc):
        assert distance_to_boundary(unit_disc, (0.0, 0.0)) == 1.0
        assert distance_to_boundary(unit_disc, (0.6, 0.0)) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            distance_to_boundary(unit_disc, (1.5, 0.0))

    def test_exterior_point_rejected(self, unit_square):
        with pytest.raises(ValueError):
            distance_to_boundary(unit_square, (3.0, 3.0))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(polygons_and_points())
    @example(SIDE_EXAMPLE)
    def test_batch_matches_scalar(self, case):
        polygon, pts = case
        v = polygon.vertices
        edges = list(zip(v, np.roll(v, -1, axis=0)))
        oracle = [min(_segment_distance(p, a, b) for a, b in edges) for p in pts]
        assert boundary_distance_batch(polygon, pts) == pytest.approx(
            oracle, rel=0.0, abs=1e-15 * domain_scale(polygon))

    def test_batch_memory_is_linear(self):
        # 20,000 points against 800 edges: one (n, E, 2) pass would peak
        # near 850 MiB, while the running minimum over blocks of edges
        # (one edge per block at this n) keeps a few (n,) arrays.  Each row
        # is computed on its own, so rows anywhere in the batch equal
        # single-point calls bit for bit.
        polygon = regular_polygon(800)
        pts = np.random.default_rng(3).uniform(-0.7, 0.7, (20_000, 2))
        tracemalloc.start()
        try:
            batch = boundary_distance_batch(polygon, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        for row in (0, 1309, 1310, 2620, 19_999):
            single = boundary_distance_batch(polygon, pts[row:row + 1])
            assert single.tobytes() == batch[row:row + 1].tobytes()


    def test_single_points_match_batch_rows(self):
        # One point takes all 800 edges in one block, 5,000 points a few
        # edges at a time; every row is the same bits either way.
        polygon = regular_polygon(800)
        pts = np.random.default_rng(5).uniform(-0.7, 0.7, (5_000, 2))
        batch = boundary_distance_batch(polygon, pts)
        singles = np.concatenate([boundary_distance_batch(polygon, p[None, :]) for p in pts])
        assert singles.tobytes() == batch.tobytes()

    def test_disc_single_points_match_batch_rows(self):
        # distance_to_boundary on a disc off the origin returns the bits of
        # its point's batch row, as on a polygon.
        disc = Disc(Point2(0.3, -1.7), 2.5)
        rng = np.random.default_rng(6)
        r, theta = 2.4 * np.sqrt(rng.random(5_000)), 2 * math.pi * rng.random(5_000)
        pts = np.column_stack([0.3 + r * np.cos(theta), -1.7 + r * np.sin(theta)])
        singles = np.array([distance_to_boundary(disc, p) for p in pts])
        assert singles.tobytes() == boundary_distance_batch(disc, pts).tobytes()


class TestContainment:
    def test_open_domain(self, unit_square):
        assert contains_point(unit_square, (0.5, 0.5))
        assert not contains_point(unit_square, (0.0, 0.5))  # boundary excluded
        assert not contains_point(unit_square, (-0.1, 0.5))

    def test_l_shape_notch(self, l_shape):
        assert contains_point(l_shape, (0.5, 0.5))
        assert contains_point(l_shape, (1.5, 0.5))
        assert not contains_point(l_shape, (1.5, 1.5))  # inside the notch

    def test_disc(self, unit_disc):
        assert contains_point(unit_disc, (0.9, 0.0))
        assert not contains_point(unit_disc, (1.0, 0.0))


class TestPolygonInvariants:
    def test_orientation_normalized(self):
        cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert cw.signed_area() == pytest.approx(1.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])  # coincident
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (2, 0)])  # zero area

    def test_angles_and_reflex(self, l_shape, unit_square):
        for i in range(4):
            assert unit_square.interior_angle(i) == pytest.approx(math.pi / 2)
        assert l_shape.reflex_vertices() == [3]
        assert l_shape.interior_angle(3) == pytest.approx(1.5 * math.pi)

    def test_area_and_perimeter(self, l_shape):
        assert l_shape.signed_area() == pytest.approx(3.0)
        assert l_shape.perimeter() == pytest.approx(8.0)

    def test_convexity(self, unit_square, l_shape, unit_disc):
        assert is_convex_polygon(unit_square)
        assert not is_convex_polygon(l_shape)
        assert is_convex_polygon(unit_disc)
        assert is_convex_polygon(regular_polygon(7))
        # A collinear vertex keeps the polygon convex.
        assert is_convex_polygon(
            Polygon([(0, 0), (0.5, 0.0), (1, 0), (1, 1), (0, 1)]))

    def test_dent_within_tolerance_is_convex(self):
        # The turn at vertex 3 is -1e-12, above -GEOMETRIC_TOL * scale^2.
        assert DENTED_SQUARE.reflex_vertices() == []
        assert is_convex_polygon(DENTED_SQUARE)
        assert DENTED_SQUARE.interior_angle(3) == math.pi

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(star_polygons(), skylines()))
    @example(DENTED_SQUARE)
    def test_angle_above_pi_iff_reflex(self, polygon):
        reflex = polygon.reflex_vertices()
        assert [i for i in range(len(polygon))
                if polygon.interior_angle(i) > math.pi] == reflex

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(star_polygons(), skylines()))
    def test_convex_iff_no_reflex_vertex(self, polygon):
        assert is_convex_polygon(polygon) == (not polygon.reflex_vertices())

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(grid_polylines(), shuffled_stars(),
                     star_polygons().map(lambda polygon: polygon.vertices)))
    def test_simplicity_matches_pairwise_oracle(self, v):
        try:
            Polygon(v)
            got = None
        except ValueError as exc:
            named = re.search(r"not simple: edges (\d+) and (\d+) ", str(exc))
            if named is None:
                reject()  # zero area, caught before the simplicity check
            got = tuple(map(int, named.groups()))
        # Polygon orients its vertices counterclockwise before the check.
        ccw = v if _shoelace_twice(v) > 0.0 else v[::-1]
        assert got == _first_touching_edges(ccw)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_polylines())
    def test_crossing_parity_matches_loop(self, v):
        # The even-odd rule needs no simple polygon.  Points on the grid and
        # half grid lie on sides, at vertices and on the horizontal lines
        # through vertices.
        half_grid = np.linspace(0.0, 3.0, 7)
        for p in np.array(np.meshgrid(half_grid, half_grid)).reshape(2, -1).T:
            assert _crossing_parity(v, p) == _crossing_parity_loop(v, p)

    def test_domain_scale(self, unit_square, unit_disc):
        assert domain_scale(unit_square) == pytest.approx(SQRT2)
        assert domain_scale(unit_disc) == pytest.approx(2.0 * SQRT2)


class TestProbes:
    def test_probe_fits(self, l_shape):
        assert probe_fits(l_shape, Disc(Point2(0.5, 0.5), 0.3))
        assert not probe_fits(l_shape, Disc(Point2(0.5, 0.5), 0.6))
        assert not probe_fits(l_shape, Disc(Point2(1.5, 1.5), 0.1))

    def test_centered_disc_mean_closed_form(self, unit_disc):
        # Mean of (1 - |x|) over a centered probe of radius rho: 1 - 2 rho/3.
        for rho in (0.2, 0.5, 0.9):
            got = disc_mean_distance(unit_disc, Disc(Point2(0.0, 0.0), rho))
            assert got == pytest.approx(1.0 - 2.0 * rho / 3.0, rel=1e-12)

    def test_mean_against_monte_carlo(self, unit_square):
        probe = Disc(Point2(0.3, 0.45), 0.2)
        rng = np.random.default_rng(1905)
        n = 1_000_000
        r = probe.radius * np.sqrt(rng.random(n))
        th = rng.random(n) * 2 * math.pi
        pts = np.column_stack([probe.center.x1 + r * np.cos(th),
                               probe.center.x2 + r * np.sin(th)])
        mc = float(boundary_distance_batch(unit_square, pts).mean())
        got = disc_mean_distance(unit_square, probe)
        assert got == pytest.approx(mc, abs=5e-4)

    def test_quadrature_order_converges(self, l_shape):
        probe = Disc(Point2(0.8, 0.8), 0.1)
        coarse = disc_mean_distance(l_shape, probe, radial_order=4,
                                    angular_order=8)
        fine = disc_mean_distance(l_shape, probe, radial_order=48,
                                  angular_order=192)
        default = disc_mean_distance(l_shape, probe)
        assert abs(default - fine) < abs(coarse - fine) + 1e-12
        assert default == pytest.approx(fine, abs=2e-5)


class TestSerialization:
    def test_polygon_round_trip(self, tmp_path, l_shape):
        path = tmp_path / "dom.json"
        dump_domain(l_shape, path)
        back = load_domain(path)
        assert isinstance(back, Polygon)
        assert np.array_equal(back.vertices, l_shape.vertices)

    def test_disc_round_trip(self, tmp_path):
        d = Disc(Point2(0.5, -1.0), 2.5)
        path = tmp_path / "disc.json"
        dump_domain(d, path)
        back = load_domain(path)
        assert isinstance(back, Disc)
        assert back.center == d.center and back.radius == d.radius

    @pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf)])
    def test_disc_rejects_nonfinite_center(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            Disc(Point2(*center), 1.0)

    def test_dict_shape(self, unit_disc):
        data = domain_to_dict(unit_disc)
        assert data["type"] == "disc"
        assert domain_from_dict(data).radius == 1.0
        with pytest.raises((ValueError, KeyError)):
            domain_from_dict({"type": "torus"})


def test_point2_helpers():
    p = Point2(1.5, -2.0)
    assert p.x1 == 1.5 and p.x2 == -2.0
    assert np.array_equal(p.as_array(), np.array([1.5, -2.0]))
