"""Conforming P1 triangulations of polygons and discs.

Polygons are ear-clipped to a coarse triangulation on their own vertices,
whose interior edges are then flipped to the constrained Delaunay
triangulation (Lawson flips), then refined uniformly until the edge-length
target holds.  Midpoint refinement splits each triangle into four similar
to it, so every level keeps the coarse mesh's angles exactly, and a
nonobtuse coarse mesh gives an M-matrix at every level.  A polygon whose
sides are all axis-parallel and whose constrained Delaunay triangulation
has an obtuse triangle gets a nonobtuse coarse mesh instead: the grid
through its vertex coordinates, each cell cut into two right triangles.
Discs start from a concentric web of at most 12 rings, refined the same
way but with boundary midpoints projected onto the circle: every boundary
node lies exactly on it, and every level stays nonobtuse.

Every refinement keeps the Mesh it was built from (Mesh.coarse) and the
midpoint interpolation from its nodes (Mesh.prolongation): one chain per
domain, nested except at a disc's projected boundary midpoints, and grown
by one loop, refine_until, which refuses what the budget cannot fit before
building it.  The solver's multigrid preconditioner runs over that chain
of meshes, each level with the operators its own mesh caches for the
solve's free nodes: the free nodes of a coarse mesh are a prefix of its
refinement's, since a refinement numbers its parent's nodes first.

Every mesh computes the geometry of some of its rows from its nodes (its
rim) and copies the rest from its coarse mesh: a root or a directly built
mesh computes all of them, a refinement only its rim.  Each child triangle
of a uniform refinement is similar to its parent at half the size (the middle
child also turned by a half-turn), so its area is the parent's area / 4, its
hat gradients are +-2 times the parent's, and its local stiffness products
A grad(lambda_i).grad(lambda_j), which depend only on the angles, are the
parent's; _CHILD_CORNERS says which parent corner each child corner copies.
The rim is the exception: on a disc, the 3 children at each projected
boundary midpoint are not similar to their parent, and compute their
geometry from the nodes.  Scaling by 2 and 4 is exact in binary floating
point, so every local product of a refined level is, exactly, one of the
chain's coarsest mesh or of a rim child, and on a polygon each stiffness
weight is a weight of the coarsest mesh (on the halves of a coarse edge) or
twice one of its local side products (on the edges between midpoints).
Positive areas and the sign pattern of K (an M-matrix exactly when no
weight is positive) are therefore settled on the coarsest mesh plus the rim
children, whatever the rounding of the refined nodes.

Topology is kept compact: triangles, unique edges and the side-to-edge map
are int32 (TRIANGLE_BUDGET keeps every index below 2^31), and the count of
triangles per edge is uint8.

Everything here is deterministic: no randomization, fixed iteration orders,
and refinement that depends only on the input mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry import (GEOMETRIC_TOL, Disc, Domain, Polygon, _bbox_diagonal,
                       _orient, domain_scale)

TRIANGLE_BUDGET = 2_000_000
# refine_uniform's child block j (of 4) is similar to its parent triangle
# with child corner i at parent corner _CHILD_CORNERS[j][i], so child side i
# (corner i to i + 1) lies along parent side _CHILD_CORNERS[j][i].  Blocks
# 0-2 are the corner children, scaled by 1/2 about a parent corner; block 3
# is the middle child, scaled by -1/2, which negates its gradients.
_CHILD_CORNERS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 0, 1]])
_CHILD_GRADIENT_SCALES = (2.0, 2.0, 2.0, -2.0)
# The ring rule for discs: a web's longest edge, the first sector diagonal of
# an annulus, is sqrt(1 + (pi/3)^2) ~ 1.448 ring spacings, so a disc needs
# R = ceil(1.448 radius / target_h) rings.  _ring_rule alone picks R0 2^L,
# the fewest at or above R with a root of R0 <= 12 rings (397 interior nodes
# at most); over the budget, the most at that L that fit within 1.5 target_h.
_DISC_EDGE_FACTOR = 1.4480


class MeshBudgetError(RuntimeError):
    """Raised when a construction step would exceed TRIANGLE_BUDGET."""


@dataclass(frozen=True)
class MeshQuality:
    min_angle: float          # degrees
    max_angle: float          # degrees
    h_min: float
    h_max: float
    nonobtuse_fraction: float


class Mesh:
    """Immutable triangle mesh with boundary structure.

    nodes: (N, 2) float array.  triangles: (M, 3) int32 array, each row
    counterclockwise.  boundary_node: (N,) bool.  boundary_edges: (B, 2)
    int32, directed so the domain lies on the left.  coarse: the triple
    (coarse mesh, prolongation, rim) of a uniform refinement
    (refine_uniform), or None; kept as the attributes coarse, prolongation
    and _rim.  prolongation is the (N, coarse.n_nodes) CSR interpolation
    from the coarse mesh's nodes to these, every row summing to 1.  A coarse
    mesh never refers back to its refinements, so a chain holds no
    reference cycle.  edges: the (uniq, inverse, counts) that _edge_topology
    would return for triangles, when the caller already has them.

    _rim: the rows whose geometry is computed from the nodes (see the
    module docstring): every row, slice(None), without a coarse mesh; on a
    refinement the sorted int32 rows of the children with a corner at a
    projected boundary midpoint, which are not similar to their parents,
    empty on a polygon.  Their areas are checked positive; every other
    row's area is its parent's / 4, positive when the parent's is.

    The mu-free pieces of P1 assembly are cached on first use: the lumped
    mass, and per mask of free nodes (all for a Neumann solve, the interior
    for a Dirichlet one) the block of K with the row sums K 1 and the
    prolongation on them.  Of the hat gradients only the rim's are cached
    (_rim_gradients), so a root's are all of them; a refinement gathers
    the rest, and its local stiffness products, from its coarse mesh
    whenever they are asked for.  gradient_field reads them block by block
    (_gradient_blocks) and never forms a refinement's (M, 3, 2) gradients.
    """

    def __init__(self, nodes, triangles,
                 coarse: tuple[Mesh, sp.csr_matrix, np.ndarray] | None = None,
                 edges: tuple | None = None):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        triangles = np.asarray(triangles)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an (N, 2) array")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (M, 3) array")
        n = nodes.shape[0]
        if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= n:
            raise ValueError("triangle node index out of range")
        triangles = np.ascontiguousarray(triangles, dtype=np.int32)
        self.coarse, self.prolongation, self._rim = coarse or (None, None, slice(None))
        areas = _checked_areas(nodes, triangles, self._rim)
        if self.coarse is not None:
            rim_areas, areas = areas, np.tile(0.25 * self.coarse._areas, 4)
            areas[self._rim] = rim_areas

        uniq, inverse, counts = _edge_topology(triangles, n) if edges is None else edges
        if counts.max(initial=1) > 2:
            raise ValueError("nonconforming mesh: an edge is shared by >2 triangles")
        # Boundary edges are the sides of a single triangle; entry k M + t of
        # inverse is side k of triangle t, running from corner k to k + 1.
        side, t = np.divmod(np.flatnonzero(counts[inverse] == 1), triangles.shape[0])
        boundary_dir = np.column_stack([triangles[t, side], triangles[t, (side + 1) % 3]])

        if not np.all(np.bincount(triangles.ravel(), minlength=n) > 0):
            raise ValueError("mesh has orphan nodes")

        boundary_node = np.zeros(n, dtype=bool)
        boundary_node[boundary_dir.ravel()] = True

        for arr in (nodes, triangles, areas, boundary_node, boundary_dir,
                    uniq, inverse, counts):
            arr.setflags(write=False)
        self.nodes = nodes
        self.triangles = triangles
        self.boundary_node = boundary_node
        self.boundary_edges = boundary_dir
        # Edge topology as returned by _edge_topology, kept for refinement.
        self._edges_unique = uniq
        self._edge_inverse = inverse
        self._edge_counts = counts
        self._areas = areas
        self._free_stiffness, self._free_prolongations = {}, {}  # per free mask

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        return self._areas

    @cached_property
    def h_max(self) -> float:
        # Per coordinate column, with no (E, 2) row gathers: the same bits.
        lo, hi = self._edges_unique[:, 0], self._edges_unique[:, 1]
        dx, dy = self.nodes[hi, 0], self.nodes[hi, 1]
        dx -= self.nodes[lo, 0]
        dy -= self.nodes[lo, 1]
        return float(np.hypot(dx, dy, out=dx).max())

    # The mu-free pieces of P1 assembly.  They depend only on the mesh, which
    # is immutable, so each operator is built on first use and lives as long
    # as the mesh does; the solver adds mu^2 times the lumped mass per solve.

    @cached_property
    def _rim_gradients(self) -> np.ndarray:
        """The (R, 3, 2) hat gradients of the rows computed from the nodes
        (_rim), read-only: every row on a root."""
        rim = self._rim
        grads = _hat_gradients(self.nodes, self.triangles[rim], self._areas[rim])
        grads.setflags(write=False)
        return grads

    @property
    def hat_gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of the three hat functions on each triangle, and the
        triangle areas they are scaled by: ((M, 3, 2), (M,)), read-only.

        grad(lambda_i) = rot90(p_{i+2} - p_{i+1}) / (2 A), rot90 = (-y, x).
        A root's are _rim_gradients, cached; a refinement's are gathered on
        each call from its coarse mesh's, +-2 times them in the child's
        corner order, and its rim's own.
        """
        if self.coarse is None:
            return self._rim_gradients, self._areas
        grads = _children(self.coarse.hat_gradients[0], _CHILD_GRADIENT_SCALES)
        grads[self._rim] = self._rim_gradients
        grads.setflags(write=False)
        return grads, self._areas

    @property
    def stiffness_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries of the P1 stiffness matrix K, one per unique edge and
        one per node: (off, diag) with shapes (E,) and (N,), read-only.

        off[e] is K at both (lo, hi) and (hi, lo) of _edges_unique[e]: the
        sum over the one or two triangles sharing the edge of
        A_t grad(lambda_lo).grad(lambda_hi), i.e. -(cot a + cot b) / 2 for
        the angles a, b opposite it.  K is an M-matrix exactly when no off[e]
        is positive.  diag[i] sums A_t |grad(lambda_i)|^2 over the triangles
        at node i, in triangle order.  The per-triangle products come from
        _local_products; on a refinement they are copies of the coarsest
        mesh's and the rim children's, so the signs of off are settled
        there (see the module docstring).  Computed on each call and not
        cached: the operators built from them are.
        """
        sides, corners = self._local_products()
        # np.add.at sums in index order from zero, as np.bincount does, but
        # reads the int32 indices in place instead of copying them to intp.
        off = np.zeros(self._edges_unique.shape[0])
        np.add.at(off, self._edge_inverse, sides.ravel())
        del sides
        diag = np.zeros(self.n_nodes)
        np.add.at(diag, self.triangles.ravel(), corners.ravel())
        off.setflags(write=False)
        diag.setflags(write=False)
        return off, diag

    def _gradient_blocks(self) -> list:
        """The hat gradients in row blocks of the triangles, as a list of
        (rows, grads, corners, scale): on the triangles[rows], the gradient
        of corner i's hat function is scale * grads[:, corners[i]].  A
        refinement's start with four slices on its parent's (see
        _CHILD_CORNERS); the last block, which replaces what those give its
        rows, is always this mesh's own _rim_gradients."""
        own = [(self._rim, self._rim_gradients, (0, 1, 2), 1.0)]
        if self.coarse is None:
            return own
        grads, m = self.coarse.hat_gradients[0], self.coarse.n_triangles
        blocks = zip(_CHILD_CORNERS, _CHILD_GRADIENT_SCALES)
        return [(slice(j * m, (j + 1) * m), grads, corners, scale)
                for j, (corners, scale) in enumerate(blocks)] + own

    def _local_products(self) -> tuple[np.ndarray, np.ndarray]:
        """The local stiffness A_t grad(lambda_i).grad(lambda_j) of each
        triangle: the (3, M) products on the sides 01, 12, 20, ordered by
        side first as _edge_inverse is, and the (M, 3) products at the
        corners (i = j).  A refinement copies its parent's, then computes
        its rim's.  Not cached."""
        own = _stiffness_products(self._rim_gradients, self._areas[self._rim])
        if self.coarse is None:
            return own
        sides, corners = self.coarse._local_products()
        # sides[_CHILD_CORNERS.T][i, j] holds side _CHILD_CORNERS[j][i] of
        # every parent, side i of child block j: (3, 4, M) -> (3, 4M).
        sides, corners = sides[_CHILD_CORNERS.T].reshape(3, -1), _children(corners)
        sides[:, self._rim], corners[self._rim] = own
        return sides, corners

    def free_stiffness(self, free: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
        """(K[free][:, free], (K 1)[free]) for an (N,) bool mask of the free
        nodes: the block of K from the edges whose two ends are free,
        verified to be exactly symmetric, and the row sums of K, zero up to
        rounding.  Cached per mask, from one evaluation of the stiffness
        weights, which are not kept.  Read-only."""
        key = np.packbits(free).tobytes()
        if key not in self._free_stiffness:
            off, diag = self.stiffness_weights
            edges = self._edges_unique
            k = _symmetric_csr(edges, off, diag, free)  # before the sums, out of its peak
            sums = diag + np.bincount(edges[:, 0], weights=off, minlength=self.n_nodes)
            sums += np.bincount(edges[:, 1], weights=off, minlength=self.n_nodes)
            sums = sums[free]
            sums.setflags(write=False)
            self._free_stiffness[key] = k, sums
        return self._free_stiffness[key]

    def free_prolongation(self, free: np.ndarray) -> sp.csr_matrix:
        """P[free][:, free[:coarse.n_nodes]], the prolongation between free
        nodes: the coarse mesh's are the mask's prefix, as refine_uniform
        numbers the parent's nodes first.  prolongation itself when every
        node is free, else cached per mask."""
        if free.all():
            return self.prolongation
        key = np.packbits(free).tobytes()
        if key not in self._free_prolongations:
            self._free_prolongations[key] = (
                self.prolongation[free][:, free[:self.coarse.n_nodes]].tocsr())
        return self._free_prolongations[key]

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Lumped mass vector: one third of the adjacent triangle area per
        node.  Read-only."""
        lumped = np.zeros(self.n_nodes)
        np.add.at(lumped, self.triangles.ravel(), np.repeat(self._areas / 3.0, 3))
        lumped.setflags(write=False)
        return lumped


def _children(values: np.ndarray, scales=(1.0, 1.0, 1.0, 1.0)) -> np.ndarray:
    """A per-corner (M, 3, ...) array of parent triangles carried to
    refine_uniform's 4M children: child block j takes scales[j] times the
    values at the parent corners _CHILD_CORNERS[j]."""
    m = values.shape[0]
    out = np.empty((4 * m,) + values.shape[1:], dtype=values.dtype)
    for j, (corners, scale) in enumerate(zip(_CHILD_CORNERS, scales)):
        block = out[j * m:(j + 1) * m]
        # mode="clip" writes straight into block; "raise" would buffer a copy.
        np.take(values, corners, axis=1, out=block, mode="clip")
        block *= scale
    return out


def _symmetric_csr(edges: np.ndarray, off: np.ndarray, diag: np.ndarray,
                   free: np.ndarray) -> sp.csr_matrix:
    """The block on the nodes where free is True, renumbered in order, of
    the symmetric matrix with diagonal diag and off[e] at both (lo, hi) and
    (hi, lo) of edges[e], the rows of edges sorted and lo < hi.  Built by
    scipy's COO -> CSR conversion; no entry is duplicated, so nothing is
    summed.  Exact zeros in off are not stored.  Raises AssertionError
    unless the result is exactly symmetric (_assert_symmetric); its arrays
    are read-only.
    """
    lo, hi = edges[:, 0], edges[:, 1]
    keep = off != 0.0
    keep &= free[lo]
    keep &= free[hi]
    renumber = np.cumsum(free, dtype=np.int32)
    renumber -= 1
    n, e = int(renumber[-1]) + 1, int(np.count_nonzero(keep))
    # The COO entries are filled in place: first (hi, lo) of each kept edge,
    # then the diagonal, then (lo, hi).  Edges sort by (lo, hi), so every
    # row lists its columns in ascending order and the CSR needs no sort.
    rows = np.empty(2 * e + n, dtype=np.int32)
    cols = np.empty_like(rows)
    data = np.empty(2 * e + n)
    lower, diagonal, upper = slice(0, e), slice(e, e + n), slice(e + n, None)
    rows[lower] = renumber[hi[keep]]
    cols[lower] = renumber[lo[keep]]
    rows[diagonal] = cols[diagonal] = np.arange(n, dtype=np.int32)
    rows[upper], cols[upper] = cols[lower], rows[lower]
    data[lower] = off[keep]
    data[diagonal] = diag[free]
    data[upper] = data[lower]
    del keep, renumber
    k = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    # The check's transpose is the peak of building K_II: free these first.
    del rows, cols, data
    _assert_symmetric(k)
    for arr in (k.data, k.indices, k.indptr):
        arr.setflags(write=False)
    return k


def _assert_symmetric(k: sp.csr_matrix) -> None:
    """Raises AssertionError unless the CSR matrix k, whose indices are
    sorted, equals its transpose exactly: k.T converted to CSR with sorted
    indices has k's indptr, indices and data."""
    kt = k.T.tocsr()
    kt.sort_indices()
    if not (np.array_equal(kt.indptr, k.indptr) and np.array_equal(kt.indices, k.indices)
            and np.array_equal(kt.data, k.data)):
        raise AssertionError("stiffness matrix is not exactly symmetric")


def _edge_topology(triangles: np.ndarray, n_nodes: int):
    """Edges of a triangle list on nodes 0 .. n_nodes - 1.

    Returns (uniq, inverse, counts): the (E, 2) int32 sorted unique
    undirected edges; the int32 index into uniq of each of the 3M triangle
    sides, in blocks 01, 12, 20; and, as uint8 saturating at 255, how many
    triangles share each unique edge.  Edges are deduplicated on the int64
    key lo * n_nodes + hi, which sorts exactly as the (lo, hi) rows do.
    """
    directed = np.concatenate([triangles[:, [0, 1]],
                               triangles[:, [1, 2]],
                               triangles[:, [2, 0]]])
    lo = np.minimum(directed[:, 0], directed[:, 1]).astype(np.int64)
    hi = np.maximum(directed[:, 0], directed[:, 1])
    del directed
    keys, inverse, counts = np.unique(lo * n_nodes + hi,
                                      return_inverse=True, return_counts=True)
    uniq = np.column_stack([keys // n_nodes, keys % n_nodes]).astype(np.int32)
    return uniq, inverse.astype(np.int32), np.minimum(counts, 255).astype(np.uint8)


def _corner_coordinates(nodes, triangles) -> tuple[np.ndarray, np.ndarray]:
    """The (M, 3) x and y coordinates of each triangle's corners."""
    return nodes[:, 0][triangles], nodes[:, 1][triangles]


def _checked_areas(nodes, triangles, rows=slice(None)) -> np.ndarray:
    """The areas of triangles[rows], checked positive; the error names the
    row of triangles."""
    areas = _signed_areas(nodes, triangles[rows])
    if np.any(areas <= 0.0):
        bad = np.arange(triangles.shape[0])[rows][np.argmax(areas <= 0.0)]
        raise ValueError(f"triangle {bad} is degenerate or flipped")
    return areas


def _hat_gradients(nodes, triangles, areas) -> np.ndarray:
    """The (M, 3, 2) hat gradients of the triangles with the given areas:
    grad(lambda_i) = rot90(p_{i+2} - p_{i+1}) / (2 A), rot90 = (-y, x)."""
    x, y = _corner_coordinates(nodes, triangles)
    # Column i holds p_{i+2} - p_{i+1}.
    ex = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    ey = y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
    twice = (2.0 * areas)[:, None]
    return np.stack([-ey / twice, ex / twice], axis=2)


def _stiffness_products(grads, areas) -> tuple[np.ndarray, np.ndarray]:
    """Mesh._local_products of triangles with the given (M, 3, 2) hat
    gradients and (M,) areas."""
    sides = np.einsum("tbk,tbk->tb", grads, grads[:, [1, 2, 0]]) * areas[:, None]
    corners = np.einsum("tbk,tbk->tb", grads, grads) * areas[:, None]
    return sides.T, corners


def _signed_areas(nodes, triangles) -> np.ndarray:
    # The same bits as geometry._orient on the corners, but about 3x faster
    # on contiguous corner columns than on strided (M, 3, 2) corner points.
    x, y = _corner_coordinates(nodes, triangles)
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def _angles_and_sides(nodes, triangles):
    """(3, M) interior angles in degrees, angle k at vertex k, and (3, M)
    side lengths, side k opposite vertex k."""
    p = nodes[triangles]
    sides = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]])
    lens = np.hypot(sides[:, :, 0], sides[:, :, 1])
    a, b, c = lens[0], lens[1], lens[2]
    angles = np.empty_like(lens)
    for k, opp in enumerate((a, b, c)):
        adj1, adj2 = (b, c, a)[k], (c, a, b)[k]
        cosv = (adj1**2 + adj2**2 - opp**2) / (2.0 * adj1 * adj2)
        angles[k] = np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))
    return angles, lens


def mesh_quality(mesh: Mesh) -> MeshQuality:
    """Per-triangle angle and edge-length extrema."""
    angles, lens = _angles_and_sides(mesh.nodes, mesh.triangles)
    nonobtuse = np.all(angles <= 90.0 + 1e-9, axis=0)
    return MeshQuality(
        min_angle=float(angles.min()),
        max_angle=float(angles.max()),
        h_min=float(lens.min()),
        h_max=float(lens.max()),
        nonobtuse_fraction=float(np.count_nonzero(nonobtuse) / angles.shape[1]),
    )


def _ear_clip(vertices: np.ndarray) -> np.ndarray:
    """Triangulate a simple CCW polygon using only its own vertices."""
    # The collinearity band of Polygon.reflex_vertices.
    diag = _bbox_diagonal(vertices)
    eps = GEOMETRIC_TOL * diag * diag
    idx = list(range(len(vertices)))
    tris = []
    while len(idx) > 3:
        n = len(idx)
        for pos in range(n):
            a, b, c = idx[pos - 1], idx[pos], idx[(pos + 1) % n]
            pa, pb, pc = vertices[a], vertices[b], vertices[c]
            if _orient(pb, pc, pa) <= eps:
                continue  # reflex or collinear corner, not an ear
            # Any other remaining vertex (the ring from b, less a, b and c)
            # inside or on the candidate ear blocks it.
            q = vertices[(idx[pos:] + idx[:pos])[2:-1]]
            if np.any((_orient(pa, pb, q) >= -eps) & (_orient(pb, pc, q) >= -eps)
                      & (_orient(pc, pa, q) >= -eps)):
                continue
            tris.append((a, b, c))
            del idx[pos]
            break
        else:
            raise ValueError("ear clipping failed: degenerate or collinear polygon")
    tris.append(tuple(idx))
    return np.array(tris, dtype=np.int64)


def _lawson_flip(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Flip interior edges of a CCW triangulation of a polygon's own vertices
    until each is locally Delaunay, giving the constrained Delaunay
    triangulation: of all triangulations of the polygon, the one whose
    smallest angle is largest (Lawson 1977).

    The polygon's sides lie on one triangle each, so they are never flipped.
    An edge is flipped only when the far vertex lies inside the circumcircle
    of the near triangle by more than a relative tolerance, so co-circular
    quadrilaterals keep the input's diagonal.  Edges wait on a stack, seeded
    with every interior edge in sorted order; a flip pushes the four sides of
    its quadrilateral.  Rows of triangles never flipped come back unchanged.
    """
    tris = triangles.tolist()
    owners: dict[tuple[int, int], list[int]] = {}
    for t, tri in enumerate(tris):
        for k in range(3):
            owners.setdefault(_edge_key(tri[k], tri[k - 2]), []).append(t)
    stack = sorted((e for e, ts in owners.items() if len(ts) == 2), reverse=True)
    while stack:
        edge = stack.pop()
        pair = owners.get(edge)
        if pair is None or len(pair) != 2:
            continue  # flipped away, or a side of the polygon
        t1, t2 = pair
        tri = tris[t1]
        k = next(k for k in range(3) if _edge_key(tri[k], tri[k - 2]) == edge)
        a, b, c = tri[k], tri[k - 2], tri[k - 1]
        d = next(v for v in tris[t2] if v not in edge)
        if not _in_circumcircle(vertices, a, b, c, d):
            continue
        # CCW quadrilateral a, d, b, c; its diagonal ab becomes cd.
        tris[t1], tris[t2] = [c, a, d], [d, b, c]
        del owners[edge]
        owners[_edge_key(c, d)] = [t1, t2]
        owners[_edge_key(a, d)] = [t1 if t == t2 else t for t in owners[_edge_key(a, d)]]
        owners[_edge_key(b, c)] = [t2 if t == t1 else t for t in owners[_edge_key(b, c)]]
        stack += [_edge_key(c, a), _edge_key(b, c), _edge_key(d, b), _edge_key(a, d)]
    return np.array(tris, dtype=np.int64)


def _edge_key(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def _in_circumcircle(vertices, a, b, c, d) -> bool:
    """Whether d lies inside the circumcircle of the CCW triangle abc by
    more than 1e-12 times the sum of the magnitudes of the incircle
    determinant's terms (its rounding error is under 1e-15 times that)."""
    (adx, ady), (bdx, bdy), (cdx, cdy) = (vertices[[a, b, c]] - vertices[d]).tolist()
    alift, blift, clift = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
    terms = (alift * bdx * cdy, -alift * cdx * bdy, blift * cdx * ady,
             -blift * adx * cdy, clift * adx * bdy, -clift * bdx * ady)
    return sum(terms) > 1e-12 * sum(abs(x) for x in terms)


def _disc_web(disc: Disc, rings: int) -> Mesh:
    """The concentric web of the disc with the given number of rings: node 0
    at the centre, then ring k of 6k nodes at radius k / rings."""
    cx, cy = disc.center
    chunks = [np.array([[cx, cy]])]
    for k in range(1, rings + 1):
        theta = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        r = disc.radius * (k / rings)
        chunks.append(np.column_stack([cx + r * np.cos(theta),
                                       cy + r * np.sin(theta)]))
    nodes = np.concatenate(chunks)

    # Annulus k (between rings k-1 and k) is six sectors; sector s holds k
    # triangles on the outer ring, then k-1 on the inner ring.
    # Ring k >= 1 starts at node 1 + 3k(k-1); ring 0 is the centre node 0.
    blocks = []
    s = np.arange(6, dtype=np.int64)[:, None]
    for k in range(1, rings + 1):
        j = np.arange(k + 1, dtype=np.int64)[None, :]
        outer = 1 + 3 * k * (k - 1) + (s * k + j) % (6 * k)     # (6, k + 1)
        if k == 1:
            inner = np.zeros_like(outer)
        else:
            inner = 1 + 3 * (k - 1) * (k - 2) + (s * (k - 1) + j) % (6 * (k - 1))
        up = np.stack([outer[:, :k], outer[:, 1:], inner[:, :k]], axis=2)
        down = np.stack([inner[:, 1:k], inner[:, :k - 1], outer[:, 1:k]], axis=2)
        blocks.append(np.concatenate([up, down], axis=1).reshape(-1, 3))
    return Mesh(nodes, np.concatenate(blocks))


def _grid_mesh(polygon: Polygon) -> Mesh:
    """The conforming grid through the distinct vertex coordinates of a
    polygon whose sides are all axis-parallel.  The sides run along grid
    lines, so each cell lies inside or outside; the cells inside are kept
    and cut by the diagonal from their lower left to their upper right
    corner into two right triangles.  Nodes are the grid nodes of kept
    cells, numbered row by row (y, then x); triangles come in the same
    order, two per cell."""
    v = polygon.vertices
    xs, ys = np.unique(v[:, 0]), np.unique(v[:, 1])
    # The even-odd rule of geometry._crossing_parity, counted on the grid in
    # O(cells + sides): the ray from a cell's centre towards +x crosses the
    # vertical sides on the grid lines right of the cell that span its row.
    w = np.roll(v, -1, axis=0)
    vertical = v[:, 0] == w[:, 0]
    line = np.searchsorted(xs, v[vertical, 0])
    ends = np.searchsorted(ys, np.sort(np.column_stack([v[vertical, 1], w[vertical, 1]])))
    # spans is +1 at the row where a side on grid line k starts and -1 where
    # it ends; its sums down the rows count the sides on line k spanning a
    # row, and crossings[j, k] those on line k or right of it.
    spans = np.zeros((ys.size, xs.size), dtype=np.int64)
    np.add.at(spans, (ends[:, 0], line), 1)
    np.add.at(spans, (ends[:, 1], line), -1)
    crossings = np.cumsum(np.cumsum(spans, axis=0)[:-1, ::-1], axis=1)[:, ::-1]
    row, col = np.nonzero(crossings[:, 1:] % 2)
    lower_left = row * xs.size + col
    upper_right = lower_left + xs.size + 1
    cells = np.stack([np.column_stack([lower_left, lower_left + 1, upper_right]),
                      np.column_stack([lower_left, upper_right, upper_right - 1])],
                     axis=1).reshape(-1, 3)
    used, renumbered = np.unique(cells, return_inverse=True)
    gx, gy = np.meshgrid(xs, ys)
    return Mesh(np.column_stack([gx.ravel(), gy.ravel()])[used],
                renumbered.reshape(cells.shape))


def _ring_rule(disc: Disc, target_h: float) -> int:
    """R0, the root's count of the ring rule's R0 2^L rings for target_h.
    Over the budget R0 2^L is the most rings at depth L that fit, if their
    longest edge keeps 1.5 target_h; otherwise (and for any need capped at
    TRIANGLE_BUDGET, far above what fits) refine_until refuses."""
    need = max(2, math.ceil(min(_DISC_EDGE_FACTOR * disc.radius / target_h,
                                TRIANGLE_BUDGET)))
    levels = (math.ceil(need / 12) - 1).bit_length()  # least L, 12 2^L >= need
    rings = math.ceil(need / 2**levels) << levels
    fits = (math.isqrt(TRIANGLE_BUDGET // 6) >> levels) << levels
    if rings > fits and _DISC_EDGE_FACTOR * disc.radius <= 1.5 * target_h * fits:
        rings = fits
    return rings >> levels


def chain_root(domain: Domain, target_h: float) -> Mesh:
    """The coarsest mesh of triangulate(domain, target_h)'s chain, for any
    target_h > 0, whether the chain fits the budget or not: a disc's web of
    _ring_rule's R0 rings, or a polygon's constrained Delaunay triangulation
    (ear clipping, Lawson flips), which the right-angled grid of _grid_mesh
    replaces when it has an obtuse triangle (mesh_quality's test) and every
    side is axis-parallel.  A polygon's root does not depend on target_h."""
    if isinstance(domain, Disc):
        return _disc_web(domain, _ring_rule(domain, target_h))
    vertices = domain.vertices
    mesh = Mesh(vertices, _lawson_flip(vertices, _ear_clip(vertices)))
    sides = np.roll(vertices, -1, axis=0) - vertices
    if (np.all((sides[:, 0] == 0.0) | (sides[:, 1] == 0.0))
            and mesh_quality(mesh).nonobtuse_fraction < 1.0):
        return _grid_mesh(domain)
    return mesh


def triangulate(domain: Domain, target_h: float) -> Mesh:
    """Mesh the domain with longest edge at most 1.5 * target_h and at least
    one interior node, so that it is solvable: chain_root refined by
    refine_until, which refuses over the budget before refining.

    Polygons: the result is nested in the chain down to the root and has
    exactly its angles, so a nonobtuse root gives an M-matrix at every
    level.  Discs: it has _ring_rule's R0 2^L rings (_DISC_EDGE_FACTOR),
    boundary nodes exactly on the circle, node 0 at its centre.
    """
    if not (target_h > 0.0 and math.isfinite(target_h)):
        raise ValueError("target_h must be positive and finite")
    if target_h >= 0.5 * domain_scale(domain):
        raise ValueError("target_h must be below half the bounding-box diagonal")
    return refine_until(chain_root(domain, target_h), domain,
                        lambda h: h > 1.5 * target_h)


def refine_until(mesh: Mesh, domain: Domain, too_coarse) -> Mesh:
    """mesh refined uniformly while too_coarse(h_max) holds or it has no
    interior node, so the result is solvable.  Each refinement at most
    halves h_max, so once the floor(log4(TRIANGLE_BUDGET / n_triangles))
    refinements that fit could not end the loop, it raises MeshBudgetError
    before building them."""
    while too_coarse(mesh.h_max) or mesh.boundary_node.all():
        more = ((TRIANGLE_BUDGET // mesh.n_triangles).bit_length() - 1) // 2
        if more < 1 or too_coarse(mesh.h_max / 2**more):
            raise MeshBudgetError(
                f"{mesh.n_triangles} triangles at h_max={mesh.h_max:g} cannot be refined "
                f"far enough within the budget of {TRIANGLE_BUDGET} triangles")
        mesh = refine_uniform(mesh, domain)
    return mesh


def refine_uniform(mesh: Mesh, domain: Domain) -> Mesh:
    """Split every triangle into 4 by edge midpoints.

    For disc domains, midpoints of boundary edges are projected onto the
    circle so refinement never flattens the boundary (the prolongation is
    still midpoint interpolation).  Parent nodes keep their indices.  The
    refined Mesh inherits its areas, hat gradients and local stiffness from
    mesh (see the module docstring), except on its rim: on a disc, the
    children at a projected midpoint, 3 per boundary edge of mesh, which
    compute theirs from the nodes.
    """
    if 4 * mesh.n_triangles > TRIANGLE_BUDGET:
        raise MeshBudgetError(
            f"refining {mesh.n_triangles} triangles would exceed the budget "
            f"of {TRIANGLE_BUDGET}")
    tris = mesh.triangles
    m = mesh.n_triangles
    uniq, inverse = mesh._edges_unique, mesh._edge_inverse
    mids = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])

    rim = np.empty(0, dtype=np.int32)
    if isinstance(domain, Disc):
        on_boundary = mesh._edge_counts == 1
        c = np.array([domain.center.x1, domain.center.x2])
        rel = mids[on_boundary] - c
        norm = np.hypot(rel[:, 0], rel[:, 1])
        mids[on_boundary] = c + domain.radius * rel / norm[:, None]
        # The rim: the midpoint of side k of parent t is a corner of its
        # children k, k + 1 (mod 3) and 3, rows j m + t.
        side, t = np.divmod(np.flatnonzero(on_boundary[inverse]), m)
        rim = np.unique(np.concatenate([side * m + t, (side + 1) % 3 * m + t,
                                        3 * m + t])).astype(np.int32)

    mid_idx = mesh.n_nodes + np.arange(uniq.shape[0], dtype=np.int32)
    m01 = mid_idx[inverse[:m]]
    m12 = mid_idx[inverse[m:2 * m]]
    m20 = mid_idx[inverse[2 * m:]]
    a, b, cv = tris[:, 0], tris[:, 1], tris[:, 2]
    children = np.concatenate([
        np.column_stack([a, m01, m20]),
        np.column_stack([b, m12, m01]),
        np.column_stack([cv, m20, m12]),
        np.column_stack([m01, m12, m20]),
    ])
    # Midpoint interpolation: the parent's nodes keep their values, each
    # midpoint takes half of each end of its parent edge.
    n, n_edges = mesh.n_nodes, uniq.shape[0]
    prolongation = sp.csr_matrix(
        (np.concatenate([np.ones(n), np.full(2 * n_edges, 0.5)]),
         np.concatenate([np.arange(n), uniq.ravel()]).astype(np.int32),
         np.concatenate([np.arange(n), n + 2 * np.arange(n_edges + 1)])),
        shape=(n + n_edges, n))
    rim.setflags(write=False)
    return Mesh(np.concatenate([mesh.nodes, mids]), children, (mesh, prolongation, rim),
                _refined_edges(mesh))


def _refined_edges(mesh: Mesh) -> tuple:
    """(uniq, inverse, counts) of refine_uniform's children, equal to what
    _edge_topology returns for them, without sorting all 12M directed edges.

    Parent edge e = (u, w) splits into (u, n + e) and (w, n + e), each
    shared by as many children as e was by parents, and parent triangle t
    adds the midpoint edges 01-12, 12-20 and 20-01, each shared by two
    children.  These 2E + 3M edges are distinct, so one argsort of their
    keys puts them in _edge_topology's order.
    """
    n, m = mesh.n_nodes, mesh.n_triangles
    uniq, inverse, counts = mesh._edges_unique, mesh._edge_inverse, mesh._edge_counts
    n_edges = uniq.shape[0]
    # The midpoint of parent edge e is child node n + e.
    e01, e12, e20 = inverse[:m], inverse[m:2 * m], inverse[2 * m:]
    # Generated order: halves at u, halves at w, then the three midpoint
    # edge blocks of the parent triangles.
    lo = np.concatenate([uniq[:, 0], uniq[:, 1], n + np.minimum(e01, e12),
                         n + np.minimum(e12, e20), n + np.minimum(e20, e01)])
    mid_nodes = n + np.arange(n_edges, dtype=np.int32)
    hi = np.concatenate([mid_nodes, mid_nodes, n + np.maximum(e01, e12),
                         n + np.maximum(e12, e20), n + np.maximum(e20, e01)])
    order = np.argsort(lo.astype(np.int64) * (n + n_edges) + hi)
    rank = np.empty(order.shape, dtype=np.int32)
    rank[order] = np.arange(order.shape[0], dtype=np.int32)

    tris = mesh.triangles

    def half(e, corner):
        return np.where(uniq[e, 0] == corner, e, n_edges + e)

    first = 2 * n_edges + np.arange(m, dtype=np.int32)
    mid01_12, mid12_20, mid20_01 = first, first + m, first + 2 * m
    # The children's sides 01, 12, 20 in the block order of refine_uniform.
    generated = np.concatenate([
        half(e01, tris[:, 0]), half(e12, tris[:, 1]), half(e20, tris[:, 2]), mid01_12,
        mid20_01, mid01_12, mid12_20, mid12_20,
        half(e20, tris[:, 0]), half(e01, tris[:, 1]), half(e12, tris[:, 2]), mid20_01,
    ])
    child_counts = np.concatenate([counts, counts, np.full(3 * m, 2, dtype=counts.dtype)])
    return (np.column_stack([lo[order], hi[order]]), rank[generated],
            child_counts[order])


def save_mesh_text(mesh: Mesh, path) -> None:
    """Plain-text dump: one node per line "x y boundary_flag", then one
    triangle per line "i j k"."""
    with open(path, "w", encoding="utf-8") as f:
        for (x, y), flag in zip(mesh.nodes, mesh.boundary_node):
            f.write(f"{float(x)!r} {float(y)!r} {int(flag)}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")
