"""Triangulation: ear clipping, Lawson flips and refinement for polygons,
a web for discs.

Regression constants (node/triangle counts, h values) were recorded from
the current construction; they pin determinism rather than derive from
theory.  Geometric assertions (areas, angle bounds, boundary placement)
are the actual correctness checks.
"""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from panharmonic.geometry import (Polygon, contains_point, domain_scale,
                                  unit_disc, unit_square, l_shape, regular_polygon)
from panharmonic.mesh import (TRIANGLE_BUDGET, Mesh, MeshBudgetError,
                              _ear_clip, _edge_topology, _grid_mesh, _lawson_flip,
                              _signed_areas, mesh_quality, refine_uniform,
                              save_mesh_text, triangulate)
from panharmonic.solver import ResolutionWarning, solve_dirichlet, solve_neumann
from strategies import comb, combs, skyline, skylines, star_polygons


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
        assert (m.n_nodes, m.n_triangles) == (721, 1350)
        assert m.h_max == pytest.approx(0.09482378723772782, rel=1e-15)
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
        assert q.h_min == pytest.approx(2.0 / 30.0, rel=1e-12)

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
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
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
            for got, ref in ((m._edges_unique, uniq), (m._edge_inverse, inverse),
                             (m._edge_counts, counts)):
                assert got.dtype == ref.dtype
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
            self.assert_boundary_edges(m)

    @pytest.mark.parametrize("target_h", [0.5, 0.3, 0.1, 0.05])
    def test_disc_web(self, target_h, unit_disc):
        m = triangulate(unit_disc, target_h)
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


def _disc_web_nodes(rings):
    return 1 + 3 * rings * (rings + 1)


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

    @pytest.mark.parametrize("target_h", [0.5, 0.1, 0.0106, 0.00265])
    def test_disc_prolongation(self, target_h, unit_disc):
        m = triangulate(unit_disc, target_h)
        rings = math.isqrt(m.n_triangles // 6)
        while m.coarse is not None:
            coarse_rings = (rings + 1) // 2
            p, coarse = m.prolongation, m.coarse
            n_coarse = _disc_web_nodes(coarse_rings)
            assert coarse.n_triangles == 6 * coarse_rings * coarse_rings
            assert p.shape == (_disc_web_nodes(rings), n_coarse)
            assert np.abs(np.asarray(p.sum(axis=1)).ravel() - 1.0).max() <= 1e-15
            assert p.data.min() > 0.0
            expected = np.zeros(n_coarse, dtype=bool)
            expected[-6 * coarse_rings:] = True
            assert np.array_equal(coarse.boundary_node, expected)
            # Boundary values come from the coarse boundary alone, so the
            # Dirichlet restriction drops nothing from them.
            assert p[m.boundary_node][:, ~coarse.boundary_node].nnz == 0
            rings, m = coarse_rings, coarse
        assert rings == 1

    def test_disc_prolongation_interpolates_radius(self, unit_disc):
        # The radius is linear across rings and constant along them, so
        # polar-bilinear interpolation reproduces it.
        m = triangulate(unit_disc, 0.05)
        coarse_rings = (math.isqrt(m.n_triangles // 6) + 1) // 2
        ring = np.arange(1, coarse_rings + 1)
        radius = np.concatenate([[0.0], np.repeat(ring, 6 * ring) / coarse_rings])
        interp = m.prolongation @ radius
        assert np.abs(interp - np.hypot(*m.nodes.T)).max() < 1e-14

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
            assert off.max() <= 1e-12 * np.abs(level.stiffness.data).max()
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
