"""P1 finite elements for the screened Poisson operator lap(v) = mu^2 v.

Weak form: find v with integral(grad v . grad phi) + mu^2 integral(v phi) = F(phi).
The mu^2 term uses the lumped (row-sum diagonal) mass matrix, which keeps the
system an M-matrix on nonobtuse meshes and makes the discrete bound
0 < v <= 1 checkable rather than merely plausible.  Dirichlet data v = 1 is
imposed strongly through the lift v = 1 + w with w = 0 on the boundary;
Neumann data dv/dn = mu enters as the boundary functional mu * integral(phi ds).

Both solves are one masked solve (_solve), and every operator is one
recipe (_operator): the block K[F][:, F] of the stiffness that a mesh caches
per mask F of free nodes (Mesh.free_stiffness), shifted by mu^2 times the
lumped mass m_F, a fresh copy of its values on its own read-only index
arrays.  The mask alone tells the solves apart: a Neumann solve frees all
nodes; a Dirichlet solve the interior ones, with right-hand side
-(K 1 + mu^2 m)_I from the cached row sums K 1, so it never builds K or A.

The linear solve is conjugate gradients preconditioned by one symmetric
V(1,1)-cycle of geometric multigrid over the chain of meshes each mesh
keeps (Mesh.coarse, Mesh.prolongation).  Every level, the fine one
included, is its own mesh's operator on its prefix of the mask; on
nested P1 spaces a coarse level so rediscretized equals the Galerkin
product P^T A P.  Smoothing is damped Jacobi weighted from a Gershgorin
bound.  A level with at most COARSEST_SIZE free nodes is solved exactly
through its Cholesky factor L: the cycle keeps W = L^-1, so the coarse
solve W^T (W r) is symmetric positive definite by construction.  A system
without a coarse mesh and above that size falls back to diagonal scaling,
i.e. Jacobi-PCG.  Zero start and a fixed iteration order keep the result
deterministic down to the last bit for a given assembled system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

CG_TOLERANCE = 1e-13
# Multigrid descends until a level has at most this many free nodes, then
# solves that level through its Cholesky factor.
COARSEST_SIZE = 500
# _lower_inverse hands blocks of at most this many rows to LAPACK.  Of the
# cuts 32, 40, 48 and 64, this one took the least total time over twelve
# sizes n = 40 ... 500 (2-core x86-64, OpenBLAS on one thread).
_TRIANGULAR_CUT = 32
_BLOCK_ROWS = 2**13  # Multigrid's Gershgorin row sums take this many rows at a time.
# Boundary-layer resolution rule: solves with mu * h_max above this are
# flagged unreliable (the layer has width ~1/mu and needs a few cells).
RESOLUTION_LIMIT = 0.5


class ResolutionWarning(UserWarning):
    """Solve attempted on a mesh too coarse for the requested mu."""


class ConvergenceError(RuntimeError):
    """The linear solve failed.  Either the coarsest multigrid level is
    numerically singular, as a Neumann system is at a mu so small that
    mu^2 m_i is lost to rounding beside K_ii, or conjugate gradients hit
    its iteration cap, which on these SPD systems signals an assembly bug,
    not bad luck."""


@dataclass(frozen=True)
class ScalarField:
    mesh: object
    mu: float
    values: np.ndarray
    resolution_ok: bool
    boundary_condition: str  # "dirichlet" or "neumann"

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mu", float(self.mu))


@dataclass(frozen=True)
class GradientField:
    mesh: object
    vectors: np.ndarray  # (n_triangles, 2), constant per triangle

    def __post_init__(self):
        vecs = np.ascontiguousarray(self.vectors, dtype=float)
        if not np.all(np.isfinite(vecs)):
            raise ValueError("gradient vectors must be finite")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    def magnitudes(self) -> np.ndarray:
        return np.hypot(self.vectors[:, 0], self.vectors[:, 1])


class Multigrid:
    """One symmetric V(1,1)-cycle as a preconditioner: z = B r.

    levels: (A_l, P_l) from fine to coarse, P_0 = None and P_l the
    interpolation from level l to level l - 1; A_l need not be
    P_l^T A_{l-1} P_l.  Each level but the coarsest is smoothed by damped
    Jacobi with omega = 4 / (3 lam), lam the Gershgorin bound
    max_i sum_j |a_ij| / a_ii >= lambda_max(D^-1 A).
    The coarsest is solved as W^T (W r), W the inverse of its Cholesky
    factor (_inverse_cholesky_factor), when it has at most COARSEST_SIZE
    unknowns, and scaled by its diagonal otherwise.  The cycle is a loop
    over the levels, not a recursive closure, so it holds no reference
    cycle and its memory is returned as soon as the solve drops it.
    """

    def __init__(self, levels):
        self.matrices = [a for a, _ in levels]
        self.prolongations = [p for _, p in levels[1:]]
        # The restrictions P_l^T, as transposed views sharing P_l's arrays.
        self._restrictions = [p.T for p in self.prolongations]
        self.smoothers = []
        for a in self.matrices[:-1]:
            diag, lam = a.diagonal(), 0.0
            # No |a| copy of the level; each row is summed as over all of a.
            for start in range(0, a.shape[0], _BLOCK_ROWS):
                ptr = a.indptr[start:start + _BLOCK_ROWS + 1]
                row_abs = np.add.reduceat(np.abs(a.data[ptr[0]:ptr[-1]]), ptr[:-1] - ptr[0])
                lam = max(lam, float(np.max(row_abs / diag[start:start + _BLOCK_ROWS])))
            self.smoothers.append(4.0 / (3.0 * lam) / diag)
        # Held as an attribute: a bound method as its only owner would let
        # NumPy write a product into the scale in place (temporary elision).
        coarsest = self.matrices[-1]
        if coarsest.shape[0] <= COARSEST_SIZE:
            self._coarsest = _inverse_cholesky_factor(coarsest.toarray())
        else:
            self._coarsest = 1.0 / coarsest.diagonal()

    @property
    def n_levels(self) -> int:
        return len(self.matrices)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        # Updates run in place where they can: on large levels a fresh
        # temporary per vector operation costs as much as the arithmetic.
        residuals, pre = [], []
        for a, smooth, restrict in zip(self.matrices, self.smoothers,
                                       self._restrictions):
            x = smooth * r
            residuals.append(r)
            pre.append(x)
            defect = a @ x
            np.subtract(r, defect, out=defect)
            r = restrict @ defect
        w = self._coarsest
        x = w.T @ (w @ r) if w.ndim == 2 else w * r
        for level in reversed(range(len(self.smoothers))):
            a, smooth = self.matrices[level], self.smoothers[level]
            x = self.prolongations[level] @ x
            x += pre[level]
            defect = a @ x
            np.subtract(residuals[level], defect, out=defect)
            defect *= smooth
            x += defect
        return x


def _inverse_cholesky_factor(a: np.ndarray) -> np.ndarray:
    """W = L^-1 for the Cholesky factor L of the dense SPD matrix a, so
    that a^-1 = W^T W.

    Raises ConvergenceError when a is numerically singular: the
    factorization fails, or its smallest pivot l_jj^2 is at most
    n eps max_i a_ii, numpy's matrix_rank tolerance.
    """
    n = a.shape[0]
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        l = None
    if l is None or not (np.min(np.diagonal(l)) ** 2
                         > n * np.finfo(float).eps * np.max(np.diagonal(a))):
        raise ConvergenceError(
            f"the coarsest multigrid level ({n} unknowns) is numerically "
            "singular at this mu")
    return _lower_inverse(l)


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular l by recursive 2x2 blocks:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], with LAPACK's
    inverse on blocks of at most _TRIANGULAR_CUT rows."""
    n = l.shape[0]
    if n <= _TRIANGULAR_CUT:
        return np.linalg.inv(l)
    h = n // 2
    a_inv, c_inv = _lower_inverse(l[:h, :h]), _lower_inverse(l[h:, h:])
    w = np.zeros_like(l)
    w[:h, :h] = a_inv
    w[h:, h:] = c_inv
    w[h:, :h] = -(c_inv @ l[h:, :h]) @ a_inv
    return w


@dataclass(frozen=True)
class SpdSystem:
    """A x = b with A symmetric positive definite.  preconditioner: the
    Multigrid cycle to use; None means the single-level cycle built from
    the matrix itself (its Cholesky factor up to COARSEST_SIZE unknowns,
    Jacobi above)."""
    matrix: sp.csr_matrix
    rhs: np.ndarray
    preconditioner: Multigrid | None = None


def _operator(mesh, mu: float, free: np.ndarray) -> sp.csr_matrix:
    """The system matrix K[free][:, free] + mu^2 diag(m[free]) on the free
    nodes of mesh at this mu, for the P1 stiffness K and the lumped mass m
    (one third of the adjacent triangle area per node)."""
    return _shift_diagonal(mesh.free_stiffness(free)[0], mu * mu * mesh.lumped_mass[free])


def _shift_diagonal(k: sp.csr_matrix, shift: np.ndarray) -> sp.csr_matrix:
    """k + diag(shift) for a CSR k that stores its whole diagonal: a copy
    of k's data, each diagonal entry k_ii + shift_i, on k's own read-only
    indices and indptr, which are shared, not copied."""
    a = sp.csr_matrix((k.data.copy(), k.indices, k.indptr), shape=k.shape)
    a.setdiag(k.diagonal() + shift)
    return a


def solve_spd_system(system: SpdSystem, tol: float) -> np.ndarray:
    """Preconditioned conjugate gradients, zero start, multigrid
    preconditioner (system.preconditioner, or the single-level cycle of
    the matrix: up to COARSEST_SIZE unknowns that is an exact solve through
    its Cholesky factor, above it Jacobi-PCG).

    Returns x with ||b - A x|| <= tol * ||b||.  Deterministic.  The cap of
    20 * sqrt(n) iterations for n unknowns is generous for the systems
    assembled here; hitting it raises ConvergenceError.  ValueError if
    ||b|| is not finite (it overflows once the entries pass about
    1e154 / sqrt(n)): the stopping test would then be void.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must be in (0, 1e-4]")
    a, b = system.matrix, system.rhs
    n = b.shape[0]
    with np.errstate(over="ignore"):
        b_norm = float(np.linalg.norm(b))
    if not math.isfinite(b_norm):
        raise ValueError(f"the norm of the right-hand side is not finite ({b_norm})")
    if b_norm == 0.0:
        return np.zeros(n)
    precondition = system.preconditioner or Multigrid([(a, None)])
    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    cap = max(1, math.ceil(20.0 * math.sqrt(n)))
    # Every update runs in place: the product a @ p is the only fresh vector
    # per iteration besides the preconditioner's, and its buffer is reused
    # for both scaled updates once p @ ap is taken.
    for _ in range(cap):
        ap = a @ p
        alpha = rz / float(p @ ap)
        ap *= alpha
        r -= ap
        np.multiply(p, alpha, out=ap)
        x += ap
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol * b_norm:
            return x
        z = precondition(r)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients did not reach tol={tol:g} within {cap} "
        f"iterations: final relative residual {r_norm / b_norm:.3e}, "
        f"{precondition.n_levels} multigrid level(s)")


def _multigrid(mesh, mu: float, free: np.ndarray) -> Multigrid:
    """The V-cycle on the free nodes of mesh at this mu.  Level 0 is mesh's
    own operator (_operator) and each further level that of the next mesh
    down mesh.coarse on the prefix of free its nodes are, until a level
    has at most COARSEST_SIZE free nodes.  Each transfer is
    Mesh.free_prolongation, built only when the cycle descends."""
    levels = [(_operator(mesh, mu, free), None)]
    while mesh.coarse is not None and levels[-1][0].shape[0] > COARSEST_SIZE:
        p = mesh.free_prolongation(free)
        mesh = mesh.coarse
        free = free[:mesh.n_nodes]
        levels.append((_operator(mesh, mu, free), p))
    return Multigrid(levels)


def _solve(mesh, mu: float, free: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x on the free nodes with _operator(mesh, mu, free) x = rhs, by
    conjugate gradients preconditioned with the _multigrid cycle."""
    cycle = _multigrid(mesh, mu, free)
    return solve_spd_system(SpdSystem(cycle.matrices[0], rhs, cycle), CG_TOLERANCE)


def _check_mu(mesh, mu: float, rhs: np.ndarray) -> bool:
    """Whether a solve at this mu is resolved, with a ResolutionWarning if
    not.  ValueError unless mu is positive, finite and does not overflow
    mu^2 m or the norm of rhs, which CG's stopping test divides by."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be positive and finite")
    with np.errstate(over="ignore"):
        finite = np.isfinite([mu * mu * np.max(mesh.lumped_mass), np.linalg.norm(rhs)])
    if not finite.all():
        raise ValueError(
            f"mu = {mu:g} overflows: mu^2 times the lumped mass, or the norm "
            "of the right-hand side, is not finite")
    if mu * mesh.h_max > RESOLUTION_LIMIT:
        warnings.warn(
            f"mu * h_max = {mu * mesh.h_max:.3g} exceeds {RESOLUTION_LIMIT}; "
            "the boundary layer is under-resolved and the result is flagged "
            "unreliable", ResolutionWarning, stacklevel=3)
        return False
    return True


def solve_dirichlet(mesh, mu: float) -> ScalarField:
    """Solve lap(v) = mu^2 v with v = 1 on the boundary.

    Implemented through the lift v = 1 + w: boundary values are exactly 1,
    and w solves A_II w = -(A @ 1)_I on the interior nodes I, with
    A_II = K_II + mu^2 diag(m_I) and A @ 1 = K @ 1 + mu^2 m from the
    cached row sums of K.  The full K and A are never built here.
    """
    interior = ~mesh.boundary_node
    if not np.any(interior):
        raise ValueError("mesh has no interior nodes")
    rhs = -(mesh.free_stiffness(interior)[1] + mu * mu * mesh.lumped_mass[interior])
    resolution_ok = _check_mu(mesh, mu, rhs)
    w = _solve(mesh, mu, interior, rhs)
    values = np.ones(mesh.n_nodes)
    values[interior] += w
    return ScalarField(mesh, mu, values, resolution_ok, "dirichlet")


def solve_neumann(mesh, mu: float) -> ScalarField:
    """Solve lap(v) = mu^2 v with dv/dn = mu on the boundary.

    All nodes are free; the flux enters as mu times the boundary lumped
    trace (half the length of each adjacent boundary edge per node).  No
    maximum-principle bound holds: values exceed 1 near the boundary.
    """
    be = mesh.boundary_edges
    seg = mesh.nodes[be[:, 1]] - mesh.nodes[be[:, 0]]
    half_len = 0.5 * np.hypot(seg[:, 0], seg[:, 1])
    trace = np.zeros(mesh.n_nodes)
    np.add.at(trace, be[:, 0], half_len)
    np.add.at(trace, be[:, 1], half_len)
    rhs = mu * trace
    resolution_ok = _check_mu(mesh, mu, rhs)
    v = _solve(mesh, mu, np.ones(mesh.n_nodes, dtype=bool), rhs)
    return ScalarField(mesh, mu, v, resolution_ok, "neumann")


def gradient_field(mesh, field: ScalarField) -> GradientField:
    """Constant per-triangle gradient of the P1 interpolant of the field:
    the sum over each triangle's corners i of v_i grad(lambda_i), in corner
    order from zero.

    The gradients are read block by block (Mesh._gradient_blocks), one
    corner column and one (m,) gather of corner values at a time.  Every
    mesh's last block is the rows it computes from its nodes: all of a
    root's, in place; on a refinement, after four blocks of the parent's
    gradients scaled by +-2, a disc's rim rows, summed again apart.
    Neither the (M, 3, 2) gradients nor the (M, 3) corner values are
    formed.
    """
    if field.mesh is not mesh or field.values.shape[0] != mesh.n_nodes:
        raise ValueError("field is not defined on this mesh")
    vectors = np.zeros((mesh.n_triangles, 2))
    for rows, grads, corners, scale in mesh._gradient_blocks():
        # A slice of rows is summed in place (numpy skips the assignment of
        # a view to itself); the rim's rows are summed apart and replaced.
        block = vectors[rows] if isinstance(rows, slice) else np.zeros((rows.size, 2))
        tris = mesh.triangles[rows]
        for i, corner in enumerate(corners):
            term = grads[:, corner] * scale
            term *= field.values[tris[:, i]][:, None]
            block += term
        vectors[rows] = block
    return GradientField(mesh, vectors)


def save_field_text(field: ScalarField, path) -> None:
    """Plain-text dump: one line "x y value" per node."""
    with open(path, "w", encoding="utf-8") as f:
        for (x, y), v in zip(field.mesh.nodes, field.values):
            f.write(f"{float(x)!r} {float(y)!r} {float(v)!r}\n")
