"""P1 finite elements for the screened Poisson operator lap(v) = mu^2 v.

Weak form: find v with integral(grad v . grad phi) + mu^2 integral(v phi) = F(phi).
The mu^2 term uses the lumped (row-sum diagonal) mass matrix, which keeps the
system an M-matrix on nonobtuse meshes and makes the discrete bound
0 < v <= 1 checkable rather than merely plausible.  Dirichlet data v = 1 is
imposed strongly through the lift v = 1 + w with w = 0 on the boundary;
Neumann data dv/dn = mu enters as the boundary functional mu * integral(phi ds).

The linear solve is plain preconditioned conjugate gradients (diagonal
preconditioner, zero start, fixed iteration order), deterministic down to
the last bit for a given assembled system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

CG_TOLERANCE = 1e-10
# Boundary-layer resolution rule: solves with mu * h_max above this are
# flagged unreliable (the layer has width ~1/mu and needs a few cells).
RESOLUTION_LIMIT = 0.5


class ResolutionWarning(UserWarning):
    """Solve attempted on a mesh too coarse for the requested mu."""


class ConvergenceError(RuntimeError):
    """Conjugate gradients hit its iteration cap; the assembled system is
    SPD by construction, so this signals an assembly bug, not bad luck."""


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


@dataclass(frozen=True)
class SpdSystem:
    dimension: int
    matrix: sp.csr_matrix
    rhs: np.ndarray


def assemble(mesh, mu: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble the operator A = K + mu^2 diag(m) and return (A, m).

    K is the P1 stiffness matrix, m the lumped mass vector (one third of
    the adjacent triangle area per node); both are built once per mesh and
    cached on it (``Mesh.stiffness``, ``Mesh.lumped_mass``), so m is
    read-only.  A is exactly symmetric: K is verified to be, and the added
    term is diagonal.
    """
    lumped = mesh.lumped_mass
    return mesh.stiffness + sp.diags(mu * mu * lumped, format="csr"), lumped


def solve_spd_system(system: SpdSystem, tol: float) -> np.ndarray:
    """Preconditioned conjugate gradients, zero start, Jacobi preconditioner.

    Returns x with ||b - A x|| <= tol * ||b||.  Deterministic.  The cap of
    20 * sqrt(dimension) iterations is generous for the systems assembled
    here; hitting it raises ConvergenceError.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must be in (0, 1e-4]")
    a, b = system.matrix, system.rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(system.dimension)
    inv_diag = 1.0 / a.diagonal()
    x = np.zeros(system.dimension)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    cap = max(1, math.ceil(20.0 * math.sqrt(system.dimension)))
    for _ in range(cap):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= tol * b_norm:
            return x
        z = inv_diag * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients did not reach tol={tol:g} within {cap} iterations")


def _check_resolution(mesh, mu: float) -> bool:
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be positive and finite")
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
    and w solves the interior system with right-hand side -(A @ 1).
    """
    resolution_ok = _check_resolution(mesh, mu)
    operator, _ = assemble(mesh, mu)
    interior = ~mesh.boundary_node
    if not np.any(interior):
        raise ValueError("mesh has no interior nodes")
    a_ii = operator[interior][:, interior].tocsr()
    rhs = -(operator @ np.ones(mesh.n_nodes))[interior]
    w = solve_spd_system(SpdSystem(int(a_ii.shape[0]), a_ii, rhs), CG_TOLERANCE)
    values = np.ones(mesh.n_nodes)
    values[interior] += w
    return ScalarField(mesh, mu, values, resolution_ok, "dirichlet")


def solve_neumann(mesh, mu: float) -> ScalarField:
    """Solve lap(v) = mu^2 v with dv/dn = mu on the boundary.

    All nodes are free; the flux enters as mu times the boundary lumped
    trace (half the length of each adjacent boundary edge per node).  No
    maximum-principle bound holds: values exceed 1 near the boundary.
    """
    resolution_ok = _check_resolution(mesh, mu)
    operator, _ = assemble(mesh, mu)
    be = mesh.boundary_edges
    seg = mesh.nodes[be[:, 1]] - mesh.nodes[be[:, 0]]
    half_len = 0.5 * np.hypot(seg[:, 0], seg[:, 1])
    trace = np.zeros(mesh.n_nodes)
    np.add.at(trace, be[:, 0], half_len)
    np.add.at(trace, be[:, 1], half_len)
    v = solve_spd_system(SpdSystem(mesh.n_nodes, operator, mu * trace),
                         CG_TOLERANCE)
    return ScalarField(mesh, mu, v, resolution_ok, "neumann")


def gradient_field(mesh, field: ScalarField) -> GradientField:
    """Constant per-triangle gradient of the P1 interpolant of the field."""
    if field.mesh is not mesh or field.values.shape[0] != mesh.n_nodes:
        raise ValueError("field is not defined on this mesh")
    grads, _ = mesh.hat_gradients
    vals = field.values[mesh.triangles]               # (M, 3)
    vectors = np.einsum("ti,tik->tk", vals, grads)
    return GradientField(mesh, vectors)


def save_field_text(field: ScalarField, path) -> None:
    """Plain-text dump: one line "x y value" per node."""
    with open(path, "w", encoding="utf-8") as f:
        for (x, y), v in zip(field.mesh.nodes, field.values):
            f.write(f"{float(x)!r} {float(y)!r} {float(v)!r}\n")
