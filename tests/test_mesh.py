"""Triangulation: ear clipping, Lawson flips and refinement for polygons,
a refined web for discs.

Regression constants (node/triangle counts, h values) were recorded from
the current construction; they pin determinism rather than derive from
theory.  Geometric assertions (areas, angle bounds, boundary placement)
are the actual correctness checks.
"""

import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from panharmonic.geometry import (Disc, Point2, Polygon, contains_point, domain_scale,
                                  unit_disc, unit_square, l_shape, regular_polygon)
from panharmonic import mesh as meshing
from panharmonic.mesh import (TRIANGLE_BUDGET, Mesh, MeshBudgetError, _disc_web,
                              _ear_clip, _edge_topology, _grid_mesh, _lawson_flip,
                              _signed_areas, chain_root, mesh_quality,
                              refine_uniform, refine_until, save_mesh_text, triangulate)
from panharmonic.solver import (RESOLUTION_LIMIT, ResolutionWarning, solve_dirichlet,
                                solve_neumann)
from strategies import (comb, combs, refined_discs, refined_web, rotated_l_shape,
                        skyline, skylines, star_polygons)


def stiffness(m):
    """The P1 stiffness K on all nodes, as the mesh caches it."""
    return m.free_stiffness(np.ones(m.n_nodes, dtype=bool))[0]


class TestSquare:
    def test_coarse_structured(self, unit_square):
        m = triangulate(unit_square, 0.5)
        assert m.n_nodes == 9
        assert m.n_triangles == 8
        assert m.h_max == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert m.triangle_areas().sum() == pytest.approx(1.0, rel=1e-14)

    def test_target_respected(self, unit_square):
        m = triangulate(unit_square, 0.03)
        assert m.h_max <= 1.5 * 0.03
        assert m.triangle_areas().min() > 0.0

    def test_refine_halves_exactly(self, unit_square):
        m = triangulate(unit_square, 0.5)
        r = refine_uniform(m, unit_square)
        assert r.h_max / m.h_max == 0.5
        assert r.n_triangles == 4 * m.n_triangles
        assert r.triangle_areas().sum() == pytest.approx(1.0, rel=1e-14)


class TestDiscWeb:
    def test_counts_and_reach(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        # The 8-ring web refined once: 16 rings.
        assert (m.n_nodes, m.n_triangles) == (817, 1536)
        assert m.h_max == pytest.approx(0.08899870183108555, rel=1e-15)
        # All boundary nodes exactly on the circle.
        r = np.hypot(*m.nodes[m.boundary_node].T)
        assert np.abs(r - 1.0).max() < 1e-14
        # Area converges to pi from below (inscribed polygon).
        area = m.triangle_areas().sum()
        assert 0.0 < math.pi - area < 0.01

    def test_quality(self, unit_disc):
        q = mesh_quality(triangulate(unit_disc, 0.1))
        assert q.min_angle > 40.0
        assert q.max_angle < 90.0 + 1e-9
        assert q.nonobtuse_fraction == 1.0
        assert q.h_min == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_refine_projects_boundary(self, unit_disc):
        m = triangulate(unit_disc, 0.2)
        r = refine_uniform(m, unit_disc)
        rad = np.hypot(*r.nodes[r.boundary_node].T)
        assert np.abs(rad - 1.0).max() < 1e-14
        # Projection makes the halving slightly inexact but close.
        assert 0.45 <= r.h_max / m.h_max <= 0.55

    def test_center_node_first(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        assert np.hypot(*m.nodes[0]) == 0.0


def assert_nonobtuse(m):
    off, _ = m.stiffness_weights
    assert np.count_nonzero(off > 0.0) == 0
    assert mesh_quality(m).nonobtuse_fraction == 1.0


class TestPolygonGeneral:
    def test_l_shape(self, l_shape):
        m = triangulate(l_shape, 0.05)
        assert (m.n_nodes, m.n_triangles) == (2145, 4096)
        assert m.h_max == pytest.approx(0.0625, rel=1e-15)
        assert m.h_max <= 1.5 * 0.05
        assert m.triangle_areas().sum() == pytest.approx(3.0, rel=1e-13)
        # The Delaunay coarse mesh has no obtuse triangle, so K is an
        # M-matrix at every level.
        assert_nonobtuse(m)
        assert_nonobtuse(triangulate(l_shape, 0.0125))
        assert_nonobtuse(refine_uniform(m, l_shape))

    def test_nonconvex_coarse(self, l_shape):
        m = triangulate(l_shape, 1.3)
        assert m.triangle_areas().sum() == pytest.approx(3.0, rel=1e-13)
        assert m.h_max <= 1.5 * 1.3

    def test_heptagon(self):
        dom = regular_polygon(7, radius=1.0)
        m = triangulate(dom, 0.2)
        exact = 3.5 * math.sin(2 * math.pi / 7)
        assert m.triangle_areas().sum() == pytest.approx(exact, rel=1e-13)
        assert m.h_max <= 0.3


def _ear_clip_loop(vertices: np.ndarray) -> np.ndarray:
    """_ear_clip with every orientation test written out one vertex at a
    time: the ear at b is convex when (b - a) x (c - b) > eps, and blocked
    when a remaining vertex lies inside or on it."""
    diag = math.hypot(*(vertices.max(axis=0) - vertices.min(axis=0)))
    eps = 1e-12 * diag * diag
    idx = list(range(len(vertices)))
    tris = []
    while len(idx) > 3:
        n = len(idx)
        for pos in range(n):
            a, b, c = idx[pos - 1], idx[pos], idx[(pos + 1) % n]
            pa, pb, pc = vertices[a], vertices[b], vertices[c]
            u, v = pb - pa, pc - pb
            if u[0] * v[1] - u[1] * v[0] <= eps:
                continue
            if any(min((pb[0] - pa[0]) * (q[1] - pa[1]) - (pb[1] - pa[1]) * (q[0] - pa[0]),
                       (pc[0] - pb[0]) * (q[1] - pb[1]) - (pc[1] - pb[1]) * (q[0] - pb[0]),
                       (pa[0] - pc[0]) * (q[1] - pc[1]) - (pa[1] - pc[1]) * (q[0] - pc[0]))
                   >= -eps for q in vertices[[o for o in idx if o not in (a, b, c)]]):
                continue
            tris.append((a, b, c))
            del idx[pos]
            break
        else:
            raise ValueError("ear clipping failed: degenerate or collinear polygon")
    tris.append(tuple(idx))
    return np.array(tris, dtype=np.int64)


class TestEarClip:
    @staticmethod
    def check(polygon):
        try:
            expected = _ear_clip_loop(polygon.vertices)
        except ValueError:
            with pytest.raises(ValueError, match="ear clipping failed"):
                _ear_clip(polygon.vertices)
            return
        assert _ear_clip(polygon.vertices).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(star_polygons(), skylines()))
    def test_matches_loop(self, polygon):
        self.check(polygon)

    @pytest.mark.parametrize("name", ["square", "l_shape", "heptagon"])
    def test_named_domains(self, name):
        self.check({"square": unit_square, "l_shape": l_shape,
                    "heptagon": lambda: regular_polygon(7)}[name]())


class TestValidation:
    def test_target_h_bounds(self, unit_square):
        with pytest.raises(ValueError):
            triangulate(unit_square, 0.0)
        with pytest.raises(ValueError):
            triangulate(unit_square, 10.0)  # >= half the domain scale

    def test_budget(self, unit_disc, unit_square):
        with pytest.raises(MeshBudgetError):
            triangulate(unit_disc, 1e-4)  # ~ 10^8 triangles
        m = triangulate(unit_square, 0.002)  # 2^21 triangles > budget/4
        assert 4 * m.n_triangles > TRIANGLE_BUDGET
        with pytest.raises(MeshBudgetError):
            refine_uniform(m, unit_square)

    def test_mesh_constructor_rejects_garbage(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Mesh(nodes, np.array([[0, 1, 3]]))  # index out of range
        with pytest.raises(ValueError):
            Mesh(nodes, np.array([[0, 2, 1]]))  # clockwise -> negative area
        nodes4 = np.vstack([nodes, [2.0, 2.0]])
        with pytest.raises(ValueError):
            Mesh(nodes4, np.array([[0, 1, 2]]))  # orphan node

    def test_mesh_constructor_rejects_nonfinite_nodes(self):
        # A NaN node gives a NaN area, which no "area <= 0" test catches.
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0]])
        with pytest.raises(ValueError, match="nodes must be finite"):
            Mesh(nodes, np.array([[0, 1, 2]]))

    def test_orphan_below_largest_index(self):
        # Node 2 is unused although node 3, the last, is referenced.
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="orphan"):
            Mesh(nodes, np.array([[0, 1, 3]]))

    def test_edge_shared_by_256_triangles(self):
        # Per-edge triangle counts are uint8; 256 must not wrap to 0 and
        # pass as a conforming mesh.
        nodes = np.vstack([[[0.0, 0.0], [1.0, 0.0]],
                           np.column_stack([np.full(256, 0.5), np.arange(1.0, 257.0)])])
        fan = np.column_stack([np.zeros(256, int), np.ones(256, int), np.arange(2, 258)])
        with pytest.raises(ValueError, match="nonconforming"):
            Mesh(nodes, fan)

    def test_arrays_read_only(self, unit_square):
        m = triangulate(unit_square, 0.5)
        with pytest.raises(ValueError):
            m.nodes[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.triangles[0, 0] = 2


class TestBoundaryData:
    def test_normals_point_outward(self, unit_disc):
        m = triangulate(unit_disc, 0.2)
        mids = 0.5 * (m.nodes[m.boundary_edges[:, 0]]
                      + m.nodes[m.boundary_edges[:, 1]])
        # The outward normal of an edge with the domain on its left is the
        # edge direction turned clockwise.
        e = (m.nodes[m.boundary_edges[:, 1]]
             - m.nodes[m.boundary_edges[:, 0]])
        normals = np.column_stack([e[:, 1], -e[:, 0]])
        outward = np.einsum("ij,ij->i", normals, mids)
        assert np.all(outward > 0.0)

    def test_flags_match_edges(self, l_shape):
        m = triangulate(l_shape, 0.2)
        flagged = set(np.flatnonzero(m.boundary_node))
        from_edges = set(m.boundary_edges.ravel().tolist())
        assert flagged == from_edges


def test_determinism(unit_disc, l_shape):
    for dom, h in ((unit_disc, 0.1), (l_shape, 0.1)):
        a = triangulate(dom, h)
        b = triangulate(dom, h)
        assert a.nodes.tobytes() == b.nodes.tobytes()
        assert a.triangles.tobytes() == b.triangles.tobytes()


def test_save_mesh_text(tmp_path, unit_square):
    m = triangulate(unit_square, 0.5)
    path = tmp_path / "mesh.txt"
    save_mesh_text(m, path)
    lines = path.read_text().splitlines()
    assert len(lines) == m.n_nodes + m.n_triangles
    x, y, flag = lines[0].split()
    assert float(x) == m.nodes[0, 0] and float(y) == m.nodes[0, 1]
    assert flag in ("0", "1")
    i, j, k = lines[m.n_nodes].split()
    assert [int(i), int(j), int(k)] == m.triangles[0].tolist()


# Ear clipping of these skylines leaves slivers on the rectilinear steps; a
# former smoothing pass flattened them to 0 degrees, and refining the result
# then failed with "degenerate or flipped".  triangulate now meshes them
# from their grid, with no angle below 45 degrees; it must keep at least
# half the ear clip's smallest angle and still refine to 4x triangles.
@pytest.mark.parametrize("heights", [
    (0.4, 1.2, 0.8, 0.4, 1.2), (1.2, 0.4, 0.8, 1.2, 0.8),
    (1.2, 0.4, 0.8, 1.2, 0.4), (1.2, 0.8, 1.2, 0.8, 0.4),
    (1.2, 0.4, 1.2, 0.8, 0.4)])
def test_skyline_smoothing_keeps_angles(heights):
    dom = skyline(heights)
    target_h = 0.0625
    rough = Mesh(dom.vertices, _ear_clip(dom.vertices))
    while rough.h_max > 1.5 * target_h:
        rough = refine_uniform(rough, dom)
    m = triangulate(dom, target_h)
    assert mesh_quality(m).min_angle >= 0.5 * mesh_quality(rough).min_angle
    r = refine_uniform(m, dom)
    assert r.n_triangles == 4 * m.n_triangles


class TestFastPaths:
    """The vectorized mesh routines against the plain versions they
    replaced, kept here as references."""

    # (uniq, inverse, counts) of _edge_topology and of every mesh.
    TOPOLOGY_DTYPES = (np.int32, np.int32, np.uint8)

    @staticmethod
    def edge_topology_reference(triangles):
        directed = np.concatenate([triangles[:, [0, 1]],
                                   triangles[:, [1, 2]],
                                   triangles[:, [2, 0]]])
        uniq, inverse, counts = np.unique(np.sort(directed, axis=1), axis=0,
                                          return_inverse=True,
                                          return_counts=True)
        return directed, uniq, inverse.reshape(-1), counts

    @staticmethod
    def disc_web_reference(rings):
        def ring_start(k):
            return 1 + 3 * k * (k - 1) if k >= 1 else 0

        tris = []
        for k in range(1, rings + 1):
            ro, ri = ring_start(k), ring_start(k - 1)
            for s in range(6):
                def outer(j):
                    return ro + (s * k + j) % (6 * k)

                def inner(j):
                    if k == 1:
                        return 0
                    return ri + (s * (k - 1) + j) % (6 * (k - 1))

                for j in range(k):
                    tris.append((outer(j), outer(j + 1), inner(j)))
                for j in range(k - 1):
                    tris.append((inner(j + 1), inner(j), outer(j + 1)))
        return np.array(tris, dtype=np.int64)

    @staticmethod
    def permuted(m, seed=3):
        perm = np.random.default_rng(seed).permutation(m.n_nodes)
        nodes = np.empty_like(m.nodes)
        nodes[perm] = m.nodes
        return Mesh(nodes, perm[m.triangles])

    @pytest.mark.parametrize("case", ["l_shape", "disc", "permuted"])
    def test_edge_topology(self, case, l_shape, unit_disc):
        if case == "disc":
            m = triangulate(unit_disc, 0.1)
        else:
            m = triangulate(l_shape, 0.1)
            if case == "permuted":
                m = self.permuted(m)
        got = _edge_topology(m.triangles, m.n_nodes)
        _, *ref = self.edge_topology_reference(m.triangles)
        for g, r, dtype in zip(got, ref, self.TOPOLOGY_DTYPES):
            assert g.dtype == dtype
            assert np.array_equal(g, r)
        assert np.array_equal(m._edges_unique, ref[0])
        self.assert_boundary_edges(m)

    def assert_boundary_edges(self, m):
        # The boundary edges are the triangle sides no other triangle
        # shares, in the order of the stacked sides 01, 12, 20.
        directed, _, inverse, counts = self.edge_topology_reference(m.triangles)
        ref = directed[counts[inverse] == 1]
        assert m.boundary_edges.dtype == ref.dtype
        assert m.boundary_edges.shape == ref.shape
        assert m.boundary_edges.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["l_shape", "disc", "heptagon", "skyline"])
    def test_refined_edge_topology(self, name):
        # refine_uniform derives the child's edges from the parent's (the
        # last step of triangulate on polygons); the disc refines its web
        # with midpoints projected onto the circle.
        dom, target_h = {"l_shape": (l_shape(), 0.1), "disc": (unit_disc(), 0.2),
                         "heptagon": (regular_polygon(7, radius=1.0), 0.2),
                         "skyline": (skyline((1.2, 0.4, 0.8, 1.2, 0.4)), 0.1)}[name]
        coarse = triangulate(dom, target_h)
        once = refine_uniform(coarse, dom)
        for m in (coarse, once, refine_uniform(once, dom)):
            uniq, inverse, counts = _edge_topology(m.triangles, m.n_nodes)
            for got, ref, dtype in zip((m._edges_unique, m._edge_inverse, m._edge_counts),
                                       (uniq, inverse, counts), self.TOPOLOGY_DTYPES):
                assert got.dtype == ref.dtype == dtype
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
            self.assert_boundary_edges(m)

    @pytest.mark.parametrize("target_h", [0.5, 0.3, 0.1, 0.05])
    def test_disc_web(self, target_h, unit_disc):
        # A disc chain's root is the web; 0.5 and 0.3 are roots themselves.
        m = triangulate(unit_disc, target_h)
        while m.coarse is not None:
            m = m.coarse
        rings = math.isqrt(m.n_triangles // 6)
        assert 6 * rings * rings == m.n_triangles
        assert np.array_equal(m.triangles, self.disc_web_reference(rings))

    @staticmethod
    def grid_mesh_reference(polygon):
        v = polygon.vertices
        xs, ys = sorted(set(v[:, 0].tolist())), sorted(set(v[:, 1].tolist()))
        cells = [(i, j) for j in range(len(ys) - 1) for i in range(len(xs) - 1)
                 if contains_point(polygon, (0.5 * (xs[i] + xs[i + 1]),
                                             0.5 * (ys[j] + ys[j + 1])))]
        used = sorted({(j + dj, i + di) for i, j in cells
                       for di in (0, 1) for dj in (0, 1)})
        number = {key: k for k, key in enumerate(used)}
        tris = []
        for i, j in cells:
            a, b = number[(j, i)], number[(j, i + 1)]
            c, d = number[(j + 1, i + 1)], number[(j + 1, i)]
            tris += [(a, b, c), (a, c, d)]
        return np.array([(xs[i], ys[j]) for j, i in used]), np.array(tris)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(skylines(), combs()), st.integers(0, 3))
    def test_grid_mesh(self, polygon, quarter_turns):
        v = polygon.vertices
        for _ in range(quarter_turns):
            v = np.column_stack([-v[:, 1], v[:, 0]])
        polygon = Polygon(v)
        m = _grid_mesh(polygon)
        nodes, tris = self.grid_mesh_reference(polygon)
        assert m.nodes.tobytes() == nodes.tobytes()
        assert np.array_equal(m.triangles, tris)


class TestHierarchy:
    """The chain of coarse meshes that meshes keep for the multigrid solver."""

    @pytest.mark.parametrize("name", ["l_shape", "square", "heptagon"])
    def test_polygon_prolongation_is_refinement(self, name):
        dom = {"l_shape": l_shape(), "square": unit_square(),
               "heptagon": regular_polygon(7, radius=1.0)}[name]
        m = Mesh(dom.vertices, _ear_clip(dom.vertices))
        assert m.coarse is None and m.prolongation is None
        chain = [m]
        for _ in range(3):
            chain.append(refine_uniform(chain[-1], dom))
        for coarse, fine in zip(chain, chain[1:]):
            assert fine.coarse is coarse
            p = fine.prolongation
            assert p.shape == (fine.n_nodes, coarse.n_nodes)
            assert (p @ coarse.nodes).tobytes() == fine.nodes.tobytes()

    def test_triangulate_keeps_chain_to_ear_clip(self, l_shape):
        m = triangulate(l_shape, 0.05)
        depth, bottom = 0, m
        while bottom.coarse is not None:
            depth, bottom = depth + 1, bottom.coarse
        # The chain ends at the coarse mesh on the polygon's own vertices:
        # the ear clip after Lawson flips.
        assert np.array_equal(bottom.nodes, l_shape.vertices)
        assert np.array_equal(
            bottom.triangles, _lawson_flip(l_shape.vertices, _ear_clip(l_shape.vertices)))
        assert depth == 5  # five uniform refinements above the coarse mesh

    @staticmethod
    def midpoint_prolongation(coarse):
        """Midpoint interpolation from coarse's nodes to those of its
        uniform refinement, whose node n + e is the midpoint of coarse edge
        e in sorted order."""
        _, uniq, _, _ = TestFastPaths.edge_topology_reference(coarse.triangles)
        n, n_edges = coarse.n_nodes, uniq.shape[0]
        rows = np.concatenate([np.arange(n), np.repeat(n + np.arange(n_edges), 2)])
        vals = np.concatenate([np.ones(n), np.full(2 * n_edges, 0.5)])
        cols = np.concatenate([np.arange(n), uniq.ravel()])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n + n_edges, n))

    @pytest.mark.parametrize("target_h", [0.5, 0.1, 0.0106, 0.00265])
    def test_disc_prolongation(self, target_h, unit_disc):
        # A disc chain is nested like a polygon's, except at the boundary
        # midpoints, which refinement projects onto the circle.
        m = triangulate(unit_disc, target_h)
        while m.coarse is not None:
            coarse, p = m.coarse, m.prolongation
            ref = self.midpoint_prolongation(coarse)
            for got, want in ((p.indptr, ref.indptr), (p.indices, ref.indices),
                              (p.data, ref.data)):
                assert np.array_equal(got, want)
            projected = m.boundary_node.copy()
            projected[:coarse.n_nodes] = False
            interp = p @ coarse.nodes
            assert interp[~projected].tobytes() == m.nodes[~projected].tobytes()
            assert np.abs(np.hypot(*m.nodes[projected].T) - 1.0).max() <= 1e-15
            m = coarse
        rings = math.isqrt(m.n_triangles // 6)
        assert rings <= 12
        assert np.array_equal(m.triangles, TestFastPaths.disc_web_reference(rings))

    @pytest.mark.parametrize("name", ["l_shape", "disc"])
    def test_chain_holds_no_reference_cycle(self, name):
        # A mesh holds its coarse mesh and never the reverse, so dropping
        # the fine mesh and its field frees the whole chain, cached
        # operators included, without the cycle collector.
        dom = l_shape() if name == "l_shape" else unit_disc()
        gc.collect()
        gc.disable()
        try:
            fine = triangulate(dom, 0.05)
            field = solve_dirichlet(fine, 5.0)
            solve_neumann(fine, 5.0)
            refs, m = [], fine
            while m is not None:
                refs.append(weakref.ref(m))
                m = m.coarse
            assert len(refs) >= 3
            del fine, field
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


@st.composite
def disc_chains(draw):
    """(disc, root rings, refinements): a similarity copy of the unit disc,
    its centre within about 14 radii of the origin as in the bench's, and a
    web of 1 to 12 rings refined to at most 100,000 triangles."""
    radius = draw(st.floats(1e-3, 1e3))
    cx, cy = (radius * draw(st.floats(-10.0, 10.0)) for _ in range(2))
    rings = draw(st.integers(1, 12))
    levels = draw(st.integers(0, max(k for k in range(8) if 6 * rings**2 * 4**k <= 100_000)))
    return Disc(Point2(cx, cy), radius), rings, levels


class TestDiscChain:
    """A disc is meshed as a web of at most 12 rings refined uniformly, with
    boundary midpoints projected onto the circle: one chain, as for
    polygons.  Every level stays nonobtuse, so K is an M-matrix."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(disc_chains())
    @example((unit_disc(), 12, 3))
    @example((unit_disc(), 1, 7))
    def test_refined_webs_nonobtuse_on_circle(self, chain):
        disc, rings, levels = chain
        centre = np.array(disc.center)
        m = _disc_web(disc, rings)
        for level in range(levels + 1):
            assert mesh_quality(m).max_angle <= 90.0 + 1e-9
            off, _ = m.stiffness_weights
            assert off.max() <= 1e-12 * np.abs(stiffness(m).data).max()
            # Each coordinate is rounded relative to its own magnitude, so
            # the radius is exact to rounding of |centre| + radius: relative
            # to the radius for a disc at the origin.
            r = np.hypot(*(m.nodes[m.boundary_node] - centre).T)
            assert np.abs(r - disc.radius).max() <= 1e-15 * (disc.radius + np.hypot(*centre))
            assert m.nodes[0].tobytes() == centre.tobytes()
            if level < levels:
                m = refine_uniform(m, disc)
        assert m.n_triangles == 6 * (rings << levels) ** 2

    def test_ring_rule(self, unit_disc):
        # The fewest rings of the form R0 2^L, R0 <= 12, at or above the
        # 1.448 / target_h that the web's longest edge needs, from the
        # largest root.  In the budget band, 1.448 / 0.00251 needs 577
        # rings, which round up to 640 = 10 2^6, over the budget; the most
        # at that depth, 576 = 9 2^6, fit within 1.5 target_h.
        m = triangulate(unit_disc, 0.00251)
        assert m.h_max <= 1.5 * 0.00251
        rings = []
        while m is not None:
            rings.append(math.isqrt(m.n_triangles // 6))
            m = m.coarse
        assert rings == [576 >> k for k in range(7)]
        for target_h in [0.9 * 0.6**k for k in range(12)] + [0.00265]:
            need = max(2, math.ceil(1.448 / target_h))
            m = triangulate(unit_disc, target_h)
            root, depth = m, 0
            while root.coarse is not None:
                root, depth = root.coarse, depth + 1
            rings = math.isqrt(m.n_triangles // 6)
            assert rings == min(r << k for r in range(1, 13) for k in range(12)
                                if r << k >= need)
            assert 6 * (rings - need) < need
            root_rings = math.isqrt(root.n_triangles // 6)
            assert root_rings <= 12 and rings == root_rings << depth
            assert depth == 0 or math.ceil(need / 2 ** (depth - 1)) > 12
            assert m.h_max <= target_h

    def test_budget_band_takes_most_rings_that_fit(self, unit_disc,
                                                   monkeypatch):
        # 1.448 / 0.115 needs 13 rings, which round up to 14 = 7 2^1; at a
        # budget of 6 13^2 triangles those are over, and 12 = 6 2^1 fit.
        monkeypatch.setattr(meshing, "TRIANGLE_BUDGET", 6 * 13**2)
        m = triangulate(unit_disc, 0.115)
        assert m.n_triangles == 6 * 12**2
        assert m.coarse.n_triangles == 6 * 6**2 and m.coarse.coarse is None
        assert m.h_max <= 1.5 * 0.115

    @pytest.mark.parametrize("domain, target_h", [
        (unit_disc(), 0.5), (unit_disc(), 0.5 / 10), (unit_disc(), 0.5 / 150),
        (unit_disc(), 0.00251), (l_shape(), 0.05), (regular_polygon(7), 0.05),
        (skyline((0.4, 0.8, 0.4, 1.2, 0.4)), 0.05)],
        ids=["disc-1", "disc-10", "disc-150", "disc-band", "lshape", "heptagon",
             "skyline"])
    def test_chain_root(self, domain, target_h):
        # The coarsest mesh of triangulate's chain, node for node: at the
        # band target 0.00251, the 9-ring root of the 576-ring chain.  A
        # polygon's root does not depend on the target, even past
        # triangulate's range.
        root = triangulate(domain, target_h)
        while root.coarse is not None:
            root = root.coarse
        got = chain_root(domain, target_h)
        assert np.array_equal(got.nodes, root.nodes)
        assert np.array_equal(got.triangles, root.triangles)
        if target_h == 0.00251:
            assert got.n_triangles == 6 * 9**2
        if not isinstance(domain, Disc):
            assert np.array_equal(chain_root(domain, 1e3).nodes, root.nodes)

    @pytest.mark.parametrize("domain, target_h", [
        (unit_disc(), 1e-4), (l_shape(), 0.0005)], ids=["disc", "lshape"])
    def test_budget_checked_before_building(self, domain, target_h, monkeypatch):
        # ~10^8 and 4^13 = 67,108,864 triangles: refine_until refuses
        # before the first refinement, having built only the root (a disc's
        # web of at most 12 rings, 864 triangles).
        roots, refined = [], []

        def root(*args):
            roots.append(chain_root(*args))
            return roots[-1]

        monkeypatch.setattr(meshing, "chain_root", root)
        monkeypatch.setattr(meshing, "refine_uniform",
                            lambda *args: refined.append(args))
        with pytest.raises(MeshBudgetError):
            triangulate(domain, target_h)
        assert [m.n_triangles <= 6 * 12**2 for m in roots] == [True]
        assert refined == []


class TestDiscRimRefusal:
    """A disc's projected rim makes each refinement less than halve h_max,
    so refine_until bounds the refined h_max from the rim itself: on the
    unit disc the budget's 576-ring chain ends at h_max =
    0.0025126983582356654, and a mu just past it is refused at the 9-ring
    root, before any refinement."""

    @staticmethod
    def ladder_mesh(disc, mu, monkeypatch):
        """The Ladder's mesh for mu alone, and the triangle counts that
        refine_uniform was asked to refine."""
        refined = []

        def spy(mesh, domain):
            refined.append(mesh.n_triangles)
            return refine_uniform(mesh, domain)

        monkeypatch.setattr(meshing, "refine_uniform", spy)
        try:
            return refine_until(chain_root(disc, RESOLUTION_LIMIT / mu), disc,
                                lambda h: mu * h > RESOLUTION_LIMIT), refined
        except MeshBudgetError as exc:
            return exc, refined

    def test_last_resolved_mu(self, unit_disc, monkeypatch):
        m, refined = self.ladder_mesh(unit_disc, 198.98, monkeypatch)
        assert m.n_triangles == 6 * 576**2 == 1_990_656
        assert m.h_max == 0.0025126983582356654
        assert refined == [6 * 9**2 * 4**k for k in range(6)]

    @pytest.mark.parametrize("mu", [199.0, 204.0])
    def test_refused_at_the_root(self, unit_disc, mu, monkeypatch):
        # Each refinement halving h_max would reach mu * h_max <= 0.5 here;
        # the rim does not let it, so nothing is built.
        exc, refined = self.ladder_mesh(unit_disc, mu, monkeypatch)
        assert isinstance(exc, MeshBudgetError)
        assert str(exc).startswith(f"{6 * 9**2} triangles at h_max=")
        assert refined == []
        root = chain_root(unit_disc, RESOLUTION_LIMIT / mu)
        assert mu * root.h_max / 2**6 <= RESOLUTION_LIMIT
        assert meshing._refined_h_max_bound(root, unit_disc, 6) == 0.0025126983582356654


class TestRefineUntil:
    """triangulate is refine_until on chain_root: it stops where the ring
    rule and the reference loop do, and refuses over the budget.  The budget
    is patched small so that the band and the refusals come cheap."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(1e-3, 1e3), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
           st.integers(13, 120), st.data())
    def test_disc_chain_follows_ring_rule(self, radius, cx, cy, fit_rings, data):
        disc = Disc(Point2(radius * cx, radius * cy), radius)
        budget = 6 * fit_rings**2
        # target_h for about x rings, the band near fit_rings drawn often.
        x = data.draw(st.one_of(st.floats(1.1, 1.6 * fit_rings),
                                st.floats(0.9 * fit_rings, 1.1 * fit_rings)))
        target_h = 1.448 * radius / x
        need = max(2, math.ceil(1.448 * radius / target_h))
        rings = min(r << k for r in range(1, 13) for k in range(12) if r << k >= need)
        depth = min(k for k in range(12) if 12 << k >= need)
        fits = (math.isqrt(budget // 6) >> depth) << depth
        if rings > fits and 1.448 * radius <= 1.5 * target_h * fits:
            rings = fits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(meshing, "TRIANGLE_BUDGET", budget)
            if 6 * rings**2 > budget:
                with pytest.raises(MeshBudgetError):
                    triangulate(disc, target_h)
                return
            m = triangulate(disc, target_h)
        assert m.n_triangles == 6 * rings**2
        assert m.h_max <= 1.5 * target_h
        assert m.coarse is None or m.coarse.h_max > 1.5 * target_h

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(skylines(), star_polygons()), st.floats(1.1, 8.0),
           st.integers(1_000, 50_000))
    def test_polygon_chain_matches_reference_loop(self, polygon, halvings, budget):
        target_h = domain_scale(polygon) * 2.0**-halvings
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(meshing, "TRIANGLE_BUDGET", budget)
            reference = chain_root(polygon, target_h)
            try:
                while (reference.h_max > 1.5 * target_h
                       or reference.boundary_node.all()):
                    reference = refine_uniform(reference, polygon)
            except MeshBudgetError:
                with pytest.raises(MeshBudgetError):
                    triangulate(polygon, target_h)
                return
            m = triangulate(polygon, target_h)
        while reference is not None:
            assert np.array_equal(m.nodes, reference.nodes)
            assert np.array_equal(m.triangles, reference.triangles)
            m, reference = m.coarse, reference.coarse
        assert m is None

    @pytest.mark.parametrize("domain, target_h", [
        (l_shape(), 1.4), (Polygon([(0, 0), (1, 0), (0, 1)]), 0.6)],
        ids=["lshape", "triangle"])
    def test_result_has_interior_node(self, domain, target_h):
        # Each root meets 1.5 target_h after at most one refinement, and has
        # no interior node until one more: triangulate's meshes are solvable.
        m = triangulate(domain, target_h)
        assert not m.boundary_node.all() and m.coarse.boundary_node.all()
        assert m.coarse.h_max <= 1.5 * target_h
        field = solve_dirichlet(m, 0.2)
        assert field.resolution_ok and np.all(field.values > 0.0)


class TestLawsonFlip:
    """_lawson_flip against the properties of the constrained Delaunay
    triangulation, checked with the stiffness weights: an interior edge is
    locally Delaunay exactly when its two opposite angles sum to at most
    180 degrees, i.e. when -(cot a + cot b) / 2 is not positive."""

    @staticmethod
    def check(polygon):
        vertices = polygon.vertices
        try:
            ears = _ear_clip(vertices)
        except ValueError as exc:
            if "ear clipping" not in str(exc):
                raise
            reject()  # nearly collinear corners
        flipped = _lawson_flip(vertices, ears)
        assert flipped.dtype == np.int64 and flipped.shape == ears.shape
        assert np.all(_signed_areas(vertices, flipped) > 0.0)
        m = Mesh(vertices, flipped)
        assert m.n_nodes == len(vertices)
        assert m.triangle_areas().sum() == pytest.approx(polygon.signed_area(), rel=1e-13)
        n = len(vertices)
        sides = {(i, (i + 1) % n) for i in range(n)}
        assert set(map(tuple, m.boundary_edges.tolist())) == sides
        off, _ = m.stiffness_weights
        assert np.all(off[m._edge_counts == 2] <= 1e-9)
        assert mesh_quality(m).min_angle >= mesh_quality(Mesh(vertices, ears)).min_angle

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(star_polygons())
    def test_star_polygons(self, polygon):
        self.check(polygon)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(skylines())
    def test_skylines(self, polygon):
        self.check(polygon)

    @pytest.mark.parametrize("name", ["square", "heptagon"])
    def test_co_circular_input_unchanged(self, name):
        dom = unit_square() if name == "square" else regular_polygon(7, radius=1.0)
        ears = _ear_clip(dom.vertices)
        flipped = _lawson_flip(dom.vertices, ears)
        assert flipped.dtype == ears.dtype
        assert flipped.tobytes() == ears.tobytes()

    def test_flips_l_shape_diagonal(self, l_shape):
        # Ear clipping gives the L-shape a 135-degree corner; the flip
        # leaves right angles only.
        ears = _ear_clip(l_shape.vertices)
        assert mesh_quality(Mesh(l_shape.vertices, ears)).max_angle > 90.0 + 1e-9
        assert_nonobtuse(Mesh(l_shape.vertices, _lawson_flip(l_shape.vertices, ears)))


class TestSimilarRefinement:
    """Midpoint refinement splits each triangle into four similar to it, so
    every level of a triangulate chain has exactly the angles of the coarse
    mesh at its bottom, and each level's nodes are the prolongation of the
    level below: the P1 spaces are nested."""

    L_SHAPE, HEPTAGON = l_shape(), regular_polygon(7, radius=1.0)

    # The second argument is target_h as a fraction of the domain scale.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(skylines(), star_polygons()), st.sampled_from([0.1, 0.04]))
    @example(L_SHAPE, 0.0125 / domain_scale(L_SHAPE))
    @example(HEPTAGON, 0.05 / domain_scale(HEPTAGON))
    def test_chain_is_nested_and_similar(self, polygon, fraction):
        try:
            fine = triangulate(polygon, fraction * domain_scale(polygon))
        except ValueError as exc:
            if "ear clipping" not in str(exc):
                raise
            reject()  # nearly collinear corners
        self.check(fine, polygon)

    @staticmethod
    def check(fine, polygon):
        """Asserts the chain under fine is nested and similar; returns it,
        fine first."""
        chain = [fine]
        while chain[-1].coarse is not None:
            chain.append(chain[-1].coarse)
        bottom = mesh_quality(chain[-1])
        for level in chain[:-1]:
            q = mesh_quality(level)
            assert abs(q.min_angle - bottom.min_angle) <= 1e-9
            assert abs(q.max_angle - bottom.max_angle) <= 1e-9
            p = level.prolongation
            assert (p @ level.coarse.nodes).tobytes() == level.nodes.tobytes()
        assert refine_uniform(fine, polygon).n_triangles == 4 * fine.n_triangles
        return chain


class TestInheritedGeometry:
    """A uniform refinement copies its areas, hat gradients and local
    stiffness from its parent, except on a disc's rim, which computes
    them from its nodes.  At every level of the chain they match what a
    fresh Mesh(nodes, triangles) computes from the nodes: within rounding
    in general, bit for bit on dyadic polygons."""

    ROTATED_L = rotated_l_shape()

    @staticmethod
    def levels(fine):
        """(level, the same mesh built directly) down the chain under fine."""
        level = fine
        while level is not None:
            yield level, Mesh(level.nodes, level.triangles)
            level = level.coarse

    @staticmethod
    def geometry(m):
        off, diag = m.stiffness_weights
        return off, diag, m.triangle_areas(), m.lumped_mass, m.hat_gradients[0]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(skylines(), combs(), star_polygons()))
    @example(ROTATED_L)
    @example(regular_polygon(7, radius=1.0))
    def test_matches_computed_geometry(self, polygon):
        try:
            fine = triangulate(polygon, 0.01 * domain_scale(polygon))
        except ValueError as exc:
            if "ear clipping" not in str(exc):
                raise
            reject()  # nearly collinear corners
        assert fine.coarse is not None
        self.check_levels(fine)

    def check_levels(self, fine):
        for level, fresh in self.levels(fine):
            for got, ref in zip(self.geometry(level), self.geometry(fresh)):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(refined_discs())
    @example((unit_disc(), 12, 3))
    @example((Disc(Point2(1e4, -1e4), 1e3), 1, 3))
    def test_disc_matches_computed_geometry(self, chain):
        # The rim, the children with a corner at a projected boundary
        # midpoint (a boundary node the parent does not have), is 3 rows
        # per parent boundary edge.
        fine = refined_web(*chain)
        self.check_levels(fine)
        level = fine
        while level.coarse is not None:
            parent, tris = level.coarse, level.triangles
            assert level._rim.size == 3 * np.count_nonzero(parent._edge_counts == 1)
            projected = level.boundary_node[tris] & (tris >= parent.n_nodes)
            assert np.array_equal(level._rim, np.flatnonzero(projected.any(axis=1)))
            level = parent

    def test_polygon_has_no_rim(self, l_shape):
        level = triangulate(l_shape, 0.05)
        assert level.coarse is not None
        while level.coarse is not None:
            assert level._rim.size == 0
            level = level.coarse

    def test_flipped_rim_child_names_its_row(self, unit_disc):
        # A projected midpoint moved to the centre flips rim children only;
        # the error names the first one by its row in the whole mesh, not
        # in the rim.
        fine = refine_uniform(_disc_web(unit_disc, 3), unit_disc)
        parent = fine.coarse
        nodes = fine.nodes.copy()
        nodes[parent.n_nodes + np.flatnonzero(parent._edge_counts == 1)[-1]] = nodes[0]
        bad = np.flatnonzero(_signed_areas(nodes, fine.triangles) <= 0.0)
        assert bad.size and np.isin(bad, fine._rim).all()
        k = int(bad[0])
        assert np.searchsorted(fine._rim, k) != k
        edges = (fine._edges_unique, fine._edge_inverse, fine._edge_counts)
        with pytest.raises(ValueError, match=f"^triangle {k} is degenerate or flipped$"):
            Mesh(nodes, fine.triangles, (parent, fine._rim), edges)
        with pytest.raises(ValueError, match=re.escape(f"triangle {k} ")):
            Mesh(nodes, fine.triangles)

    @pytest.mark.parametrize("name", ["square", "l_shape"])
    def test_dyadic_domains_bit_identical(self, name):
        dom = unit_square() if name == "square" else l_shape()
        for level, fresh in self.levels(triangulate(dom, 0.01)):
            for got, ref in zip(self.geometry(level)[:4], self.geometry(fresh)[:4]):
                assert got.tobytes() == ref.tobytes()
            assert stiffness(level).data.tobytes() == stiffness(fresh).data.tobytes()

    def test_int32_topology_past_key_overflow(self, l_shape):
        # Above 46,341 nodes the edge key lo * n_nodes overflows int32; the
        # refined edges and a fresh sort must still match the int64
        # reference.
        m = refine_uniform(triangulate(l_shape, 0.0125), l_shape)
        assert m.n_nodes > 46_341
        _, *ref = TestFastPaths.edge_topology_reference(m.triangles.astype(np.int64))
        for got in ((m._edges_unique, m._edge_inverse, m._edge_counts),
                    _edge_topology(m.triangles, m.n_nodes)):
            for g, r, dtype in zip(got, ref, TestFastPaths.TOPOLOGY_DTYPES):
                assert g.dtype == dtype
                assert np.array_equal(g, r)


class TestFreeMasks:
    """A solve's free nodes on a coarse mesh are the prefix of its mask on
    the refinement: refine_uniform numbers the parent's nodes first, and
    each keeps its boundary flag."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(skylines(), star_polygons()))
    def test_polygon_chain_prefix(self, polygon):
        try:
            fine = triangulate(polygon, 0.05 * domain_scale(polygon))
        except ValueError as exc:
            if "ear clipping" not in str(exc):
                raise
            reject()  # nearly collinear corners
        self.check_prefix(fine)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(refined_discs())
    def test_disc_chain_prefix(self, chain):
        self.check_prefix(refined_web(*chain))

    @staticmethod
    def check_prefix(fine):
        refinements = 0
        while fine.coarse is not None:
            b, b_coarse = fine.boundary_node, fine.coarse.boundary_node
            assert np.array_equal(b[:fine.coarse.n_nodes], b_coarse)
            got = fine.free_prolongation(~b)
            ref = fine.prolongation[~b][:, ~b_coarse].tocsr()
            assert got.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert fine.free_prolongation(np.ones(fine.n_nodes, dtype=bool)) is fine.prolongation
            fine, refinements = fine.coarse, refinements + 1
        assert refinements >= 1


class TestGridCoarseMesh:
    """Polygons with axis-parallel sides whose constrained Delaunay
    triangulation has an obtuse triangle are meshed from the grid through
    their vertex coordinates: every triangle is right-angled, so no
    stiffness weight is positive at any level of the chain."""

    COMB = comb(3)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(skylines(), combs()), st.sampled_from([0.1, 0.04]))
    @example(COMB, 0.05 / domain_scale(COMB))
    def test_chain_is_m_matrix(self, polygon, fraction):
        fine = triangulate(polygon, fraction * domain_scale(polygon))
        chain = TestSimilarRefinement.check(fine, polygon)
        assert mesh_quality(chain[-1]).nonobtuse_fraction == 1.0
        for level in chain:
            off, _ = level.stiffness_weights
            assert off.max() <= 1e-12 * np.abs(stiffness(level).data).max()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            for mu in (1.0, 10.0):
                values = solve_dirichlet(fine, mu).values
                assert values.min() > 0.0 and values.max() <= 1.0

    def test_skyline_grid(self):
        dom = skyline((0.4, 1.2, 0.4, 0.8, 1.2))
        m = triangulate(dom, 0.0625)
        while m.coarse is not None:
            m = m.coarse
        # Ten cells of 0.4 x 0.4 under the columns, two right isosceles
        # triangles each; every diagonal's weight is an exact 0.
        grid = _grid_mesh(dom)
        assert m.nodes.tobytes() == grid.nodes.tobytes()
        assert m.triangles.tobytes() == grid.triangles.tobytes()
        assert (m.n_nodes, m.n_triangles) == (21, 20)
        assert abs(mesh_quality(m).min_angle - 45.0) <= 1e-9
        off, _ = m.stiffness_weights
        assert np.count_nonzero(off > 0.0) == 0 and np.count_nonzero(off == 0.0) == 10

    @pytest.mark.parametrize("name", ["square", "l_shape"])
    def test_nonobtuse_delaunay_kept(self, name):
        # Both have axis-parallel sides and nonobtuse constrained Delaunay
        # triangulations, which stay their coarse meshes bit for bit.
        dom = unit_square() if name == "square" else l_shape()
        v = dom.vertices
        for target_h in (0.3, 0.05):
            ref = Mesh(v, _lawson_flip(v, _ear_clip(v)))
            while ref.h_max > 1.5 * target_h:
                ref = refine_uniform(ref, dom)
            m = triangulate(dom, target_h)
            assert m.nodes.tobytes() == ref.nodes.tobytes()
            assert m.triangles.tobytes() == ref.triangles.tobytes()
