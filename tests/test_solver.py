"""P1 finite element solver on the screened Poisson operator.

The oracle ladder: small systems are checked against a dense direct
solve; full Dirichlet/Neumann fields are checked against the closed-form
radial solutions on the disc (whose Bessel evaluator is itself verified
against extended precision in test_special).
"""

import dataclasses
import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from panharmonic import mesh as meshing
from panharmonic import solver
from panharmonic.analysis import Ladder, condition_margin
from panharmonic.geometry import unit_disc, unit_square, l_shape
from panharmonic.geometry import Polygon, domain_scale, regular_polygon
from panharmonic.mesh import Mesh, _disc_web, triangulate, refine_uniform
from panharmonic.solver import (CG_TOLERANCE, RESOLUTION_LIMIT,
                                ConvergenceError, ResolutionWarning,
                                ScalarField, SpdSystem,
                                gradient_field, save_field_text,
                                solve_dirichlet, solve_neumann,
                                solve_spd_system)
from panharmonic.special import bessel_i0, bessel_i1, log_bessel_i0
from strategies import (combs, refined_discs, refined_web, rotated_l_shape, skyline,
                        skylines, star_polygons)


def assert_same_csr(a, b):
    """Same structure and bit-identical values."""
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


def all_free(m):
    """The free mask of a Neumann solve: every node."""
    return np.ones(m.n_nodes, dtype=bool)


def stiffness(m):
    """The P1 stiffness K on all nodes, as the mesh caches it."""
    return m.free_stiffness(all_free(m))[0]


def neumann_operator(m, mu):
    """K + mu^2 diag(m) on all nodes."""
    return solver._operator(m, mu, all_free(m))


def boundary_trace(m):
    """Half the length of each adjacent boundary edge, per node."""
    be = m.boundary_edges
    half = 0.5 * np.hypot(*(m.nodes[be[:, 1]] - m.nodes[be[:, 0]]).T)
    trace = np.zeros(m.n_nodes)
    np.add.at(trace, be[:, 0], half)
    np.add.at(trace, be[:, 1], half)
    return trace


class TestAssembly:
    def test_symmetry_check_rejects_one_asymmetric_entry(self):
        # One off-diagonal entry with no mirror, and a mirrored pair that
        # differs in its last bit.
        lone = sp.csr_matrix(([1.0, 0.5, 1.0], ([0, 0, 1], [0, 1, 1])), shape=(2, 2))
        uneven = sp.csr_matrix(np.array([[1.0, 0.5], [0.5 + 2.0**-53, 1.0]]))
        for k in (lone, uneven):
            with pytest.raises(AssertionError, match="not exactly symmetric"):
                meshing._assert_symmetric(k)
        meshing._assert_symmetric(sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]])))

    def test_exact_symmetry(self, l_shape):
        operator = neumann_operator(triangulate(l_shape, 0.3), 2.0)
        skew = (operator - operator.T).tocsr()
        assert skew.nnz == 0 or np.abs(skew.data).max() == 0.0

    def test_lumped_mass_partitions_area(self, unit_disc):
        m = triangulate(unit_disc, 0.2)
        lumped = m.lumped_mass
        assert lumped.sum() == pytest.approx(m.triangle_areas().sum(), rel=1e-13)
        assert lumped.min() > 0.0

    def test_positive_definite(self, unit_square):
        operator = neumann_operator(triangulate(unit_square, 0.5), 1.5)
        eigs = np.linalg.eigvalsh(operator.toarray())
        assert eigs.min() > 0.0

    @staticmethod
    def assemble_reference(mesh):
        """Gradients, stiffness and lumped mass rebuilt from the nodes the
        way assembly used to: (M, 3, 2) gradients from a strided gather,
        9 entries per triangle summed by coo -> csr, and in-test loop sums
        of the diagonal in triangle order.  Returns (grads, K, diag, m)."""
        p = mesh.nodes[mesh.triangles]
        e = np.empty_like(p)
        for i in range(3):
            e[:, i] = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        areas = 0.5 * (e[:, 1, 0] * e[:, 2, 1] - e[:, 1, 1] * e[:, 2, 0])
        grads = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2) / (2.0 * areas)[:, None, None]
        n, tri = mesh.n_nodes, mesh.triangles
        local = np.einsum("tik,tjk->tij", grads, grads) * areas[:, None, None]
        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        stiffness = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        stiffness.eliminate_zeros()
        diag = [0.0] * n
        for t, corners in enumerate(tri.tolist()):
            for i, node in enumerate(corners):
                diag[node] += float(local[t, i, i])
        lumped = np.zeros(n)
        np.add.at(lumped, tri.ravel(), np.repeat(areas / 3.0, 3))
        return grads, stiffness, np.array(diag), lumped

    def test_cached_assembly_is_bit_identical(self, l_shape):
        # Off-diagonals match the coo reference bit for bit (one or two
        # terms per edge, so summation order cannot matter); the diagonal
        # matches a loop sum in triangle order.  coo -> csr sums the
        # diagonal's duplicates in its own order, which moves a few ulp.
        m = triangulate(l_shape, 0.1)
        grads, ref_k, ref_diag, ref_lumped = self.assemble_reference(m)
        # A computed mesh's gradients match bit for bit.  The refined mesh
        # inherits its parent's, which equal them by value; a few zeros
        # differ in sign.
        assert Mesh(m.nodes, m.triangles).hat_gradients[0].tobytes() == grads.tobytes()
        assert np.array_equal(m.hat_gradients[0], grads)
        p = m.nodes[m.triangles]
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        signed = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        assert m.triangle_areas().tobytes() == signed.tobytes()
        assert m.hat_gradients[1] is m.triangle_areas()
        k = stiffness(m)
        assert np.array_equal(k.indptr, ref_k.indptr)
        assert np.array_equal(k.indices, ref_k.indices)
        off = k.indices != np.repeat(np.arange(m.n_nodes), np.diff(k.indptr))
        assert k.data[off].tobytes() == ref_k.data[off].tobytes()
        assert k.diagonal().tobytes() == ref_diag.tobytes()
        ref_k.setdiag(ref_diag)
        for mu in (0.5, 3.0, 40.0, 3.0):
            cached, lumped = neumann_operator(m, mu), m.lumped_mass
            fresh_mesh = Mesh(m.nodes, m.triangles)
            fresh, fresh_lumped = neumann_operator(fresh_mesh, mu), fresh_mesh.lumped_mass
            ref = ref_k + sp.diags(mu * mu * ref_lumped, format="csr")
            for other, other_lumped in ((fresh, fresh_lumped), (ref, ref_lumped)):
                assert_same_csr(cached, other)
                assert lumped.tobytes() == other_lumped.tobytes()
        assert neumann_operator(m, 1.0) is not neumann_operator(m, 1.0)
        # Cached per mask value, not per mask array.
        assert stiffness(m) is stiffness(m)

    @pytest.mark.parametrize("name", ["l_shape", "disc", "square", "heptagon"])
    def test_interior_block_is_the_slice(self, name):
        dom = {"l_shape": l_shape(), "disc": unit_disc(),
               "square": unit_square(),
               "heptagon": regular_polygon(7, radius=1.0)}[name]
        m = triangulate(dom, 0.05)
        interior = ~m.boundary_node
        k, sums = m.free_stiffness(all_free(m))
        k_interior, interior_sums = m.free_stiffness(interior)
        assert_same_csr(k_interior, k[interior][:, interior])
        k_max = np.abs(k.data).max()
        assert np.abs(sums).max() <= 1e-12 * k_max
        assert interior_sums.tobytes() == sums[interior].tobytes()

    @pytest.mark.parametrize("name", ["square", "disc"])
    def test_nonobtuse_meshes_give_m_matrices(self, name):
        # The M-matrix half of the discrete maximum principle: no edge
        # weight -(cot a + cot b) / 2 is positive.
        dom = unit_square() if name == "square" else unit_disc()
        for h in (0.2, 0.05, 0.01):
            m = triangulate(dom, h)
            off, _ = m.stiffness_weights
            assert np.count_nonzero(off > 0.0) == 0
            k = stiffness(m)
            rows = np.repeat(np.arange(m.n_nodes), np.diff(k.indptr))
            assert np.all(k.data[k.indices != rows] < 0.0)

    @pytest.mark.parametrize("dirichlet", [True, False])
    def test_per_mu_operator_shares_index_arrays(self, l_shape, dirichlet):
        # Each mu copies only the values of the cached K or K_II; the index
        # arrays are K's own, read-only and untouched.
        m = triangulate(l_shape, 0.05)
        free = ~m.boundary_node if dirichlet else all_free(m)
        k = m.free_stiffness(free)[0]
        data = k.data.copy()
        shift = np.linspace(1.0, 2.0, k.shape[0])
        rows = np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))
        on_diagonal = k.indices == rows
        expected = k.data.copy()
        expected[on_diagonal] += shift
        for a in (solver._operator(m, 3.0, free), solver._shift_diagonal(k, shift)):
            assert np.shares_memory(a.indices, k.indices)
            assert np.shares_memory(a.indptr, k.indptr)
            assert not np.shares_memory(a.data, k.data)
        assert a.data.tobytes() == expected.tobytes()
        assert k.data.tobytes() == data.tobytes()
        assert not any(arr.flags.writeable for arr in (k.data, k.indices, k.indptr))


class TestAssemblyProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(star_polygons(), st.sampled_from([0.2, 0.1]))
    def test_star_polygon_operators(self, polygon, target_h):
        try:
            m = triangulate(polygon, target_h)
        except ValueError as exc:
            if "ear clipping" not in str(exc):
                raise
            reject()  # nearly collinear corners
        k = stiffness(m)
        assert (k != k.T).nnz == 0
        assert np.abs(k @ np.ones(m.n_nodes)).max() <= 1e-12 * np.abs(k.data).max()
        interior = ~m.boundary_node
        assert_same_csr(m.free_stiffness(interior)[0], k[interior][:, interior])
        assert m.lumped_mass.sum() == pytest.approx(polygon.signed_area(), rel=1e-12)


class TestConjugateGradient:
    def test_against_dense_solve(self, l_shape):
        m = triangulate(l_shape, 0.3)
        operator = neumann_operator(m, 3.0)
        interior = np.flatnonzero(~m.boundary_node)
        a = operator[interior][:, interior].tocsr()
        rng = np.random.default_rng(11)
        b = rng.standard_normal(a.shape[0])
        got = solve_spd_system(SpdSystem(a, b), 1e-12)
        ref = np.linalg.solve(a.toarray(), b)
        assert np.abs(got - ref).max() < 1e-9 * np.abs(ref).max()

    def test_identity_system(self):
        b = np.array([2.0, -1.0, 0.5])
        x = solve_spd_system(SpdSystem(sp.eye(3, format="csr"), b), 1e-12)
        assert np.allclose(x, b, rtol=1e-12)

    def test_zero_rhs_short_circuits(self):
        x = solve_spd_system(SpdSystem(sp.eye(2, format="csr"),
                                       np.zeros(2)), 1e-10)
        assert np.array_equal(x, np.zeros(2))

    def test_cap_error_names_residual_and_levels(self):
        # 1-D Laplacian without a hierarchy: Jacobi-PCG needs about n
        # iterations, more than the cap of 20 sqrt(n).
        n = 600
        a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1], format="csr")
        with pytest.raises(ConvergenceError,
                           match=r"within 490 iterations: final relative "
                                 r"residual \d\.\d{3}e[-+]\d+, 1 multigrid level"):
            solve_spd_system(SpdSystem(
                a, np.random.default_rng(5).standard_normal(n)), 1e-12)

    @staticmethod
    def tridiagonal(n):
        return sp.diags([-np.ones(n - 1), np.full(n, 4.0), -np.ones(n - 1)],
                        [-1, 0, 1], format="csr")

    def test_rhs_norm_overflow_refuses(self):
        # ||b|| overflows to inf once the entries pass about 1e154 / sqrt(n),
        # which voids the stopping test ||r|| <= tol ||b||: refused before
        # the first iteration, not a nan residual at the cap.
        from scipy.sparse.linalg import spsolve
        a = self.tridiagonal(2000)
        b = np.random.default_rng(12).standard_normal(2000)
        with pytest.raises(ValueError, match=r"^the norm of the right-hand side "
                                             r"is not finite \(inf\)$"):
            solve_spd_system(SpdSystem(a, 1e160 * b), 1e-10)
        got = solve_spd_system(SpdSystem(a, 1e150 * b), 1e-10)
        ref = spsolve(a.tocsc(), 1e150 * b)
        assert np.abs(got - ref).max() < 1e-9 * np.abs(ref).max()

    def test_single_level_cycle_is_repeatable(self):
        # At 32,768 unknowns the diagonal scale is large enough (256 KiB)
        # for NumPy to reuse an unshared operand in place; the cycle must
        # not write into its own scale.
        cycle = solver.Multigrid([(self.tridiagonal(2**15), None)])
        r = np.random.default_rng(8).standard_normal(2**15)
        assert cycle(r).tobytes() == cycle(r).tobytes()

    def test_single_level_solves_match_direct_solve(self):
        from scipy.sparse.linalg import spsolve
        a = self.tridiagonal(2**15)
        b = np.random.default_rng(9).standard_normal(2**15)
        got = solve_spd_system(SpdSystem(a, b), 1e-12)
        ref = spsolve(a.tocsc(), b)
        assert np.abs(got - ref).max() < 1e-9 * np.abs(ref).max()
        # A 120-ring web: 42,841 interior nodes and no coarse mesh.
        m = meshing._disc_web(unit_disc(), 120)
        ref = TestMultigrid.direct_dirichlet(m, 10.0)
        got = solve_dirichlet(m, 10.0).values
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_tolerance_validation(self):
        system = SpdSystem(sp.eye(1, format="csr"), np.ones(1))
        for bad in (0.0, -1e-8, 2e-4):
            with pytest.raises(ValueError):
                solve_spd_system(system, bad)


class TestDirichlet:
    def test_boundary_exact_and_interior_bounded(self, l_shape):
        field = solve_dirichlet(triangulate(l_shape, 0.1), 3.0)
        assert np.all(field.values[field.mesh.boundary_node] == 1.0)
        inside = field.values[~field.mesh.boundary_node]
        assert inside.min() > 0.0 and inside.max() < 1.0

    def test_disc_center_value(self, unit_disc):
        field = solve_dirichlet(triangulate(unit_disc, 0.05), 1.0)
        exact = 1.0 / bessel_i0(1.0)  # 0.7898483148251120
        assert float(field.values[0]) == pytest.approx(exact, abs=1e-4)

    def test_convergence_factor(self, unit_disc):
        mu = 1.0
        errs = []
        mesh = triangulate(unit_disc, 0.16)
        for _ in range(2):
            field = solve_dirichlet(mesh, mu)
            s = np.hypot(*mesh.nodes.T)
            exact = np.exp(log_bessel_i0(mu * s) - log_bessel_i0(mu))
            errs.append(np.abs(field.values - exact).max())
            mesh = refine_uniform(mesh, unit_disc)
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_monotone_in_mu(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        low = solve_dirichlet(m, 1.0)
        high = solve_dirichlet(m, 2.0)
        inside = ~m.boundary_node
        assert np.all(high.values[inside] < low.values[inside])

    def test_discrete_maximum_principle(self, unit_square):
        field = solve_dirichlet(triangulate(unit_square, 0.05), 7.0)
        assert field.values.max() == 1.0
        assert field.values.min() > 0.0

    def test_determinism(self, unit_disc):
        m = triangulate(unit_disc, 0.1)
        a = solve_dirichlet(m, 2.0)
        b = solve_dirichlet(m, 2.0)
        assert a.values.tobytes() == b.values.tobytes()


class TestNeumann:
    def test_disc_against_closed_form(self, unit_disc):
        field = solve_neumann(triangulate(unit_disc, 0.05), 2.0)
        center_exact = 1.0 / bessel_i1(2.0)
        edge_exact = bessel_i0(2.0) / bessel_i1(2.0)
        assert float(field.values[0]) == pytest.approx(center_exact, rel=5e-3)
        edge = field.values[field.mesh.boundary_node]
        assert edge.mean() == pytest.approx(edge_exact, rel=5e-3)

    def test_radial_symmetry(self, unit_disc):
        field = solve_neumann(triangulate(unit_disc, 0.05), 2.0)
        edge = field.values[field.mesh.boundary_node]
        assert np.ptp(edge) / edge.mean() < 2e-3

    def test_flags(self, unit_disc):
        field = solve_neumann(triangulate(unit_disc, 0.2), 1.0)
        assert field.boundary_condition == "neumann"

    def test_skyline_converges(self):
        # Columns of width 0.4 and heights 0.4, 1.2, 0.4, 0.8, 1.2.  The
        # coarse mesh is the grid of 0.4 x 0.4 cells, each cut into two
        # right triangles, and every level keeps their angles; CG must
        # converge well inside its cap.
        dom = Polygon([[0.0, 0.0], [2.0, 0.0], [2.0, 1.2], [1.6, 1.2],
                       [1.6, 0.8], [1.2, 0.8], [1.2, 0.4], [0.8, 0.4],
                       [0.8, 1.2], [0.4, 1.2], [0.4, 0.4], [0.0, 0.4]])
        m = refine_uniform(triangulate(dom, 0.125), dom)
        field = solve_neumann(m, 4.0)
        assert field.resolution_ok and field.values.min() > 0.0

    @pytest.mark.parametrize("mu", [1e-300, 1e-8])
    @pytest.mark.parametrize("name", ["square", "l_shape", "disc"])
    def test_tiny_mu_refuses(self, name, mu):
        # mu^2 m_i is lost to rounding beside K_ii, so K + mu^2 diag(m) is
        # numerically singular; at 1e-300 the right-hand side mu * trace
        # would also underflow to a zero norm and return v = 0.
        dom = {"square": unit_square(), "l_shape": l_shape(), "disc": unit_disc()}[name]
        m = triangulate(dom, 0.2)
        with pytest.raises(ConvergenceError, match=(
                rf"coarsest multigrid level \({m.n_nodes} unknowns\) is "
                r"numerically singular at this mu")):
            solve_neumann(m, mu)

    @pytest.mark.parametrize("mu", [1e-6, 1e-5])
    @pytest.mark.parametrize("name", ["square", "l_shape", "disc"])
    def test_small_mu_solves(self, name, mu):
        # The smallest Cholesky pivot clears the n eps singularity test by a
        # factor above ten.  Summing the equations gives the discrete flux
        # balance mu^2 m.v = mu |boundary|; the system's condition number
        # grows like 1 / mu^2, and so does the rounding in that balance.
        dom = {"square": unit_square(), "l_shape": l_shape(), "disc": unit_disc()}[name]
        m = triangulate(dom, 0.2)
        a = neumann_operator(m, mu).toarray()
        assert a.shape[0] <= solver.COARSEST_SIZE
        pivot = np.min(np.diagonal(np.linalg.cholesky(a))) ** 2
        assert pivot >= 10 * a.shape[0] * np.finfo(float).eps * np.max(np.diagonal(a))
        field = solve_neumann(m, mu)
        be = m.boundary_edges
        perimeter = np.hypot(*(m.nodes[be[:, 1]] - m.nodes[be[:, 0]]).T).sum()
        balance = mu * float(m.lumped_mass @ field.values) / perimeter
        assert balance == pytest.approx(1.0, rel={1e-6: 0.1, 1e-5: 1e-3}[mu])


class TestOverflow:
    """Refusals of a mu too large for floating point: one whose mu^2
    overflows, before any operator is built at it, and one whose
    right-hand side overflows, by solve_spd_system after the operators
    are built."""

    @pytest.mark.parametrize("mu", [1e155, 1e200])
    @pytest.mark.parametrize("solve", [solve_dirichlet, solve_neumann])
    def test_mu_squared_overflow_refuses(self, unit_square, solve, mu):
        # mu^2 itself is inf, not a singular coarsest level.
        m = triangulate(unit_square, 0.2)
        with pytest.raises(ValueError, match="^" + re.escape(f"mu = {mu:g} overflows: mu^2 times")):
            solve(m, mu)

    def test_neumann_solves_below_overflow(self, unit_square):
        m = triangulate(unit_square, 0.2)
        with pytest.warns(ResolutionWarning):
            got = solve_neumann(m, 1e150).values
        ref = np.linalg.solve(neumann_operator(m, 1e150).toarray(), 1e150 * boundary_trace(m))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dirichlet_rhs_norm_overflow_refuses(self, unit_square):
        # The Dirichlet right-hand side -(K 1 + mu^2 m)_I has entries near
        # mu^2 h^2, so its 2-norm overflows long before mu^2 does, and then
        # the stopping test ||r|| <= tol ||b|| of conjugate gradients holds
        # after any first step: on this three-level mesh at mu = 1e80 one
        # step leaves interior values up to 0.107, where the field is 0.
        m = triangulate(unit_square, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            values = solve_dirichlet(m, 1e70).values
            assert np.abs(values[~m.boundary_node]).max() <= 1e-12
            with pytest.raises(ValueError, match="^the norm of the right-hand side is not finite"):
                solve_dirichlet(m, 1e80)


class _CountingMatrix:
    """Counts the conjugate-gradient products a @ p; the multigrid cycle
    works on its own copies of the operators, so it is not counted."""

    def __init__(self, matrix, counter):
        self._matrix, self._counter = matrix, counter

    def __getattr__(self, name):
        return getattr(self._matrix, name)

    def __matmul__(self, x):
        self._counter.append(1)
        return self._matrix @ x


def _iterations(monkeypatch, solve, mesh, mu):
    counter = []
    plain = solver.solve_spd_system

    def counted(system, tol):
        return plain(dataclasses.replace(
            system, matrix=_CountingMatrix(system.matrix, counter)), tol)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "solve_spd_system", counted)
        solve(mesh, mu)
    return len(counter)


# The twelve skylines of the cli-jobs benchmark: five columns of width 0.4,
# each of height 0.4, 0.8 or 1.2 and different from its neighbours.
BENCH_SKYLINES = [
    (0.4, 0.8, 0.4, 1.2, 0.4), (0.4, 1.2, 0.8, 0.4, 1.2), (1.2, 0.8, 0.4, 1.2, 0.4),
    (1.2, 0.4, 0.8, 1.2, 0.8), (0.8, 1.2, 0.4, 1.2, 0.4), (1.2, 0.8, 0.4, 0.8, 1.2),
    (1.2, 0.4, 0.8, 0.4, 0.8), (0.8, 0.4, 1.2, 0.8, 1.2), (0.4, 1.2, 0.4, 0.8, 1.2),
    (1.2, 0.8, 0.4, 0.8, 0.4), (1.2, 0.4, 0.8, 1.2, 0.4), (1.2, 0.8, 1.2, 0.8, 0.4)]


@pytest.mark.parametrize("heights", BENCH_SKYLINES)
def test_skyline_cg_budget(heights, monkeypatch):
    # As the CLI solves them: the mesh for mu starts at h = RESOLUTION_LIMIT
    # / mu and is refined until resolved.  Their grid coarse meshes give
    # M-matrices at every level, and multigrid-CG needs at most 20
    # iterations per solve (about 51 on their Delaunay coarse meshes).
    dom = skyline(heights)
    for solve, mu in ((solve_dirichlet, 8.0), (solve_neumann, 4.0)):
        [(_, m)] = Ladder(dom, [mu])
        assert _iterations(monkeypatch, solve, m, mu) <= 20


class TestMultigrid:
    @pytest.mark.parametrize("name", ["l_shape", "square", "disc"])
    def test_iterations_do_not_grow_with_refinement(self, name, monkeypatch):
        dom = {"l_shape": l_shape(), "square": unit_square(),
               "disc": unit_disc()}[name]
        m = triangulate(dom, 0.05)
        counts = {solve_dirichlet: [], solve_neumann: []}
        for level in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResolutionWarning)
                for solve, seen in counts.items():
                    seen.append(_iterations(monkeypatch, solve, m, 10.0))
            if level < 3:
                m = refine_uniform(m, dom)
        for seen in counts.values():
            assert max(seen) <= 45
            assert seen[-1] - seen[-2] <= 4

    @staticmethod
    def direct_dirichlet(m, mu):
        from scipy.sparse.linalg import spsolve
        operator = neumann_operator(m, mu)
        interior = ~m.boundary_node
        values = np.ones(m.n_nodes)
        values[interior] = spsolve(
            operator[interior][:, interior].tocsc(),
            -(operator[interior][:, ~interior] @ np.ones(np.count_nonzero(~interior))))
        return values

    @pytest.mark.parametrize("name", ["l_shape", "disc"])
    def test_dirichlet_matches_direct_solve(self, name):
        dom = l_shape() if name == "l_shape" else unit_disc()
        m = refine_uniform(triangulate(dom, 0.05), dom)
        got = solve_dirichlet(m, 10.0).values
        ref = self.direct_dirichlet(m, 10.0)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_dirichlet_stops_above_a_root_without_interior(self):
        # The root of a 504-gon has no interior node, and its first
        # refinement's n - 3 = 501 exceed COARSEST_SIZE: the cycle stops
        # at that refinement, above the root, and scales its unknowns by
        # their diagonal.
        from scipy.sparse.linalg import splu
        m = triangulate(regular_polygon(504), 0.5)
        interior = ~m.boundary_node
        cycle = solver._multigrid(m, 0.5, interior)
        assert [a.shape[0] for a in cycle.matrices] == [3009, 501]
        got = solve_dirichlet(m, 0.5).values
        operator = neumann_operator(m, 0.5)
        ref = np.ones(m.n_nodes)
        ref[interior] += splu(operator[interior][:, interior].tocsc()).solve(
            -(operator @ np.ones(m.n_nodes))[interior])
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_neumann_matches_direct_solve(self, l_shape):
        from scipy.sparse.linalg import spsolve
        m = refine_uniform(triangulate(l_shape, 0.05), l_shape)
        got = solve_neumann(m, 10.0).values
        operator = neumann_operator(m, 10.0)
        ref = spsolve(operator.tocsc(), 10.0 * boundary_trace(m))
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    @staticmethod
    def spy_preconditioners(monkeypatch):
        seen = []
        plain = solver.solve_spd_system

        def spy(system, tol):
            seen.append(system.preconditioner)
            return plain(system, tol)

        monkeypatch.setattr(solver, "solve_spd_system", spy)
        return seen

    @staticmethod
    def count_operator_builds(monkeypatch):
        calls = []
        plain = meshing._symmetric_csr

        def counted(*args):
            calls.append(1)
            return plain(*args)

        monkeypatch.setattr(meshing, "_symmetric_csr", counted)
        return calls

    @staticmethod
    def assert_coarse_levels(mesh, mu, cycle):
        # Level l + 1 is the l-th coarse mesh's own interior operator at mu.
        for a, p, r in zip(cycle.matrices[1:], cycle.prolongations, cycle._restrictions):
            assert p is mesh.free_prolongation(~mesh.boundary_node)
            # The restriction is P^T as a view on P's arrays, not a copy.
            assert r.shape == p.shape[::-1] and np.shares_memory(r.data, p.data)
            mesh = mesh.coarse
            interior = ~mesh.boundary_node
            m = mesh.lumped_mass[interior]
            assert_same_csr(a, solver._shift_diagonal(mesh.free_stiffness(interior)[0],
                                                      mu * mu * m))

    def test_coarse_operators_cached_per_mesh(self, unit_disc, monkeypatch):
        m = triangulate(unit_disc, 0.02)
        seen = self.spy_preconditioners(monkeypatch)
        solve_dirichlet(m, 2.0)
        k = m.coarse.free_stiffness(~m.coarse.boundary_node)[0]
        builds = self.count_operator_builds(monkeypatch)
        solve_dirichlet(m, 5.0)
        # The second mu builds no mu-free operator, and every coarse level
        # comes from the same cached one.
        assert not builds
        assert m.coarse.free_stiffness(~m.coarse.boundary_node)[0] is k
        first, second = seen
        assert first.n_levels == second.n_levels >= 3
        assert second.matrices[-1].shape[0] <= solver.COARSEST_SIZE
        assert all(a.shape[0] > solver.COARSEST_SIZE for a in second.matrices[:-1])
        self.assert_coarse_levels(m, 2.0, first)
        self.assert_coarse_levels(m, 5.0, second)

    @pytest.mark.parametrize("name", ["l_shape", "square", "heptagon", "skyline"])
    def test_rediscretization_equals_galerkin(self, name):
        # On nested P1 spaces the Galerkin operators of a uniform refinement
        # are the parent's own, which is why multigrid can use each coarse
        # mesh's cached operators.  triangulate returns its last refinement
        # as it is, so its own coarse mesh is such a parent too.  The
        # skyline's coordinates are not dyadic, so its child areas carry
        # rounding that doubles relative to the mass per level: at
        # target_h = 0.05 the mass gap reaches 2.7e-14 on the last pair.
        dom, target_h = {"l_shape": (l_shape(), 0.05), "square": (unit_square(), 0.05),
                         "heptagon": (regular_polygon(7, radius=1.0), 0.05),
                         "skyline": (skyline((1.2, 0.4, 0.8, 1.2, 0.4)), 0.2)}[name]
        mesh = triangulate(dom, target_h)
        for parent, child in ((mesh.coarse, mesh), (mesh, refine_uniform(mesh, dom))):
            assert child.coarse is parent
            interior, parent_interior = ~child.boundary_node, ~parent.boundary_node
            for p, k, m, k_parent, m_parent in (
                    (child.free_prolongation(all_free(child)), stiffness(child),
                     child.lumped_mass, stiffness(parent), parent.lumped_mass),
                    (child.free_prolongation(interior), child.free_stiffness(interior)[0],
                     child.lumped_mass[interior], parent.free_stiffness(parent_interior)[0],
                     parent.lumped_mass[parent_interior])):
                galerkin = (p.T @ k @ p).tocsr()
                assert abs(galerkin - k_parent).max() <= 1e-12 * abs(k_parent).max()
                assert np.all(np.abs(p.T @ m - m_parent) <= 1e-14 * m_parent)

    def test_ladder_child_reuses_parent_operators(self, l_shape, monkeypatch):
        seen = self.spy_preconditioners(monkeypatch)
        rungs = iter(Ladder(l_shape, [2.0, 6.0], 0.1))
        mu, parent = next(rungs)
        solve_dirichlet(parent, mu)
        k = parent.free_stiffness(~parent.boundary_node)[0]
        builds = self.count_operator_builds(monkeypatch)
        mu, child = next(rungs)
        solve_dirichlet(child, mu)
        assert child.coarse is parent
        assert parent.free_stiffness(~parent.boundary_node)[0] is k
        # Only the child's own interior block is built; the coarse level is
        # the parent's, as solved at the previous mu.
        assert len(builds) == 1
        cycle = seen[-1]
        assert cycle.n_levels == 2
        self.assert_coarse_levels(child, mu, cycle)

    def test_operators_are_canonical_csr(self, l_shape, monkeypatch):
        # Sorted column indices and no duplicates in every row, read from
        # the arrays afresh rather than from scipy's cached flag.
        def canonical(a):
            return sp.csr_matrix((a.data, a.indices, a.indptr),
                                 shape=a.shape).has_canonical_format

        m = refine_uniform(triangulate(l_shape, 0.05), l_shape)
        seen = self.spy_preconditioners(monkeypatch)
        solve_dirichlet(m, 10.0)
        solve_neumann(m, 10.0)
        assert canonical(stiffness(m)) and canonical(m.free_stiffness(~m.boundary_node)[0])
        assert len(seen) == 2
        for cycle in seen:
            assert cycle.n_levels >= 2
            assert all(canonical(a) for a in cycle.matrices)

    @pytest.mark.parametrize("dirichlet", [True, False])
    @pytest.mark.parametrize("name", ["square", "l_shape", "disc"])
    def test_coarse_solve_matches_dense_solve(self, name, dirichlet):
        # A single level of at most COARSEST_SIZE unknowns is solved exactly
        # through its Cholesky factor.  Both solves are backward stable, so
        # they agree to 1e-12, or to kappa eps where that is larger: only for
        # the Neumann systems at mu = 1e-3, whose kappa eps is about 1e-7.
        dom = {"square": unit_square(), "l_shape": l_shape(), "disc": unit_disc()}[name]
        m = triangulate(dom, 0.2)
        rng = np.random.default_rng(17)
        for mu in (1e-3, 1.0, 10.0, 100.0):
            a = solver._operator(m, mu, ~m.boundary_node if dirichlet else all_free(m))
            assert a.shape[0] <= solver.COARSEST_SIZE
            r = rng.standard_normal(a.shape[0])
            got = solver.Multigrid([(a, None)])(r)
            dense = a.toarray()
            ref = np.linalg.solve(dense, r)
            bound = max(1e-12, np.linalg.cond(dense) * np.finfo(float).eps)
            assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)

    def test_third_mask(self, l_shape):
        # A mask that is neither a Dirichlet nor a Neumann one: the interior
        # less the nodes within 0.1 of the reentrant corner, which are fixed
        # at given values.  Every level is its mesh's slice on the mask's
        # prefix, and PCG with that cycle solves the masked system.
        from scipy.sparse.linalg import splu
        m, mu = triangulate(l_shape, 0.025), 10.0
        free = ~m.boundary_node & (np.hypot(*(m.nodes - 1.0).T) > 0.1)
        cycle = solver._multigrid(m, mu, free)
        assert cycle.n_levels == 3
        level, f = m, free
        for k, a in enumerate(cycle.matrices):
            shift = sp.diags(mu * mu * level.lumped_mass[f])
            assert_same_csr(a, (stiffness(level)[f][:, f] + shift).tocsr())
            if k < len(cycle.prolongations):
                f_coarse = f[:level.coarse.n_nodes]
                assert_same_csr(cycle.prolongations[k],
                                level.prolongation[f][:, f_coarse].tocsr())
                level, f = level.coarse, f_coarse
        fixed = np.where(m.boundary_node, 1.0, 0.5)[~free]
        operator = neumann_operator(m, mu)
        rhs = -(operator[free][:, ~free] @ fixed)
        got = solve_spd_system(SpdSystem(cycle.matrices[0], rhs, cycle), CG_TOLERANCE)
        ref = splu(operator[free][:, free].tocsc()).solve(rhs)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
        assert solver._solve(m, mu, free, rhs).tobytes() == got.tobytes()

    @pytest.mark.parametrize("n", [1, solver._TRIANGULAR_CUT - 1,
                                   solver._TRIANGULAR_CUT,
                                   solver._TRIANGULAR_CUT + 1, 121, 497])
    def test_block_inverse_of_cholesky_factor(self, n):
        g = np.random.default_rng(n).standard_normal((n, n))
        l = np.linalg.cholesky(g @ g.T + n * np.eye(n))
        w = solver._lower_inverse(l)
        assert np.abs(w @ l - np.eye(n)).max() <= 1e-13 * n

    def test_v_cycle_is_symmetric(self, l_shape):
        m = triangulate(l_shape, 0.025)
        cycle = solver._multigrid(m, 10.0, ~m.boundary_node)
        assert cycle.n_levels == 3
        rng = np.random.default_rng(23)
        r, s = rng.standard_normal((2, cycle.matrices[0].shape[0]))
        sbr, rbs = float(s @ cycle(r)), float(r @ cycle(s))
        assert abs(sbr - rbs) <= 1e-12 * abs(sbr)

    def test_indefinite_coarsest_level_raises(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ConvergenceError, match=r"\(2 unknowns\) is numerically singular"):
            solver.Multigrid([(a, None)])

    def test_preconditioner_freed_after_solve(self, l_shape, monkeypatch):
        m = refine_uniform(triangulate(l_shape, 0.05), l_shape)
        refs = []
        plain = solver.solve_spd_system

        def spy(system, tol):
            refs.append(weakref.ref(system.preconditioner))
            return plain(system, tol)

        monkeypatch.setattr(solver, "solve_spd_system", spy)
        gc.disable()
        try:
            solve_dirichlet(m, 10.0)
            solve_neumann(m, 10.0)
            assert len(refs) == 2
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestResolutionRule:
    def test_warns_when_underresolved(self, unit_disc):
        m = triangulate(unit_disc, 0.2)
        with pytest.warns(ResolutionWarning):
            field = solve_dirichlet(m, 10.0)
        assert not field.resolution_ok
        assert 10.0 * m.h_max > RESOLUTION_LIMIT

    def test_silent_when_resolved(self, unit_disc):
        m = triangulate(unit_disc, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = solve_dirichlet(m, 1.0)
        assert field.resolution_ok


class TestGradient:
    def test_linear_field_exact(self, l_shape):
        m = triangulate(l_shape, 0.2)
        values = 2.0 * m.nodes[:, 0] + 3.0 * m.nodes[:, 1] - 1.0
        field = ScalarField(m, 1.0, values, True, "dirichlet")
        grads = gradient_field(m, field)
        assert np.allclose(grads.vectors, [2.0, 3.0], atol=1e-12)
        assert grads.magnitudes() == pytest.approx(math.sqrt(13.0), rel=1e-12)

    def test_refined_chain_keeps_no_gradients(self, l_shape):
        self.check_chain_keeps_no_gradients(triangulate(l_shape, 0.05), 0)

    def test_refined_disc_chain_keeps_no_gradients(self, unit_disc):
        self.check_chain_keeps_no_gradients(triangulate(unit_disc, 0.05), 3)

    def test_large_chains_keep_rim_gradients_only(self, l_shape, unit_disc):
        # The 12-ring web refined 4 times (221,184 triangles) and the
        # L-shape's chain to 65,536.
        m = _disc_web(unit_disc, 12)
        for _ in range(4):
            m = refine_uniform(m, unit_disc)
        self.check_chain_keeps_no_gradients(m, 3)
        self.check_chain_keeps_no_gradients(triangulate(l_shape, 0.0125), 0)

    @staticmethod
    def check_chain_keeps_no_gradients(m, rim_per_edge):
        # After a solve and its gradients, no level above the coarse mesh
        # holds an (M, 3, 2) array, and the topology stays int32 / uint8.
        # Each refinement caches the hat gradients of its rim alone,
        # rim_per_edge rows per boundary edge of its parent (3 on a disc, 0
        # on a polygon); only the root caches all of its rows.  No level
        # keeps its (E,) stiffness weights either: K_II and K 1 are all a
        # Dirichlet solve reads.
        gradient_field(m, solve_dirichlet(m, 5.0))
        levels = [m]
        while levels[-1].coarse is not None:
            levels.append(levels[-1].coarse)
        assert len(levels) > 2
        assert sum(bool(level._free_stiffness) for level in levels) >= 2

        def flat(v):
            if isinstance(v, dict):
                v = tuple(v.values())
            return [a for x in v for a in flat(x)] if isinstance(v, tuple) else [v]

        for level in levels:
            cached = [a for v in vars(level).values() for a in flat(v)
                      if isinstance(a, np.ndarray)]
            assert not any(a.dtype == float and a.shape == level._edge_counts.shape
                           for a in cached)
            rows = vars(level)["_rim_gradients"].shape
            if level.coarse is None:
                assert rows == (level.n_triangles, 3, 2)
                continue
            boundary_edges = np.count_nonzero(level.coarse._edge_counts == 1)
            assert rows == (rim_per_edge * boundary_edges, 3, 2)
            assert not any(a.shape == (level.n_triangles, 3, 2) for a in cached)
            for name in ("triangles", "boundary_edges", "_edges_unique", "_edge_inverse"):
                assert getattr(level, name).dtype == np.int32
            assert level._edge_counts.dtype == np.uint8

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(skylines(), combs(), star_polygons()))
    @example(rotated_l_shape())
    def test_refined_chain_matches_einsum(self, polygon):
        try:
            fine = triangulate(polygon, 0.02 * domain_scale(polygon))
        except ValueError as exc:
            if "ear clipping" not in str(exc):
                raise
            reject()  # nearly collinear corners
        self.check_chain_matches_einsum(fine)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(refined_discs())
    def test_refined_disc_chain_matches_einsum(self, chain):
        self.check_chain_matches_einsum(refined_web(*chain))

    @staticmethod
    def check_chain_matches_einsum(fine):
        # A refined level's gradients are read from its parent's, block by
        # block, and a disc's rim from its own; at every level they equal
        # the einsum over the level's own hat_gradients.  np.array_equal,
        # not bytes: a zero's sign is not compared, and magnitudes do not
        # see it.
        # The field is smooth on the domain's bounding box taken to [0, 1].
        lo = fine.nodes.min(axis=0)
        scale = (fine.nodes.max(axis=0) - lo).max()
        level, refined = fine, 0
        while level is not None:
            x, y = ((level.nodes - lo) / scale).T
            values = np.exp(-x) * np.cos(3.0 * y) + 0.1 * x * y
            got = gradient_field(level, ScalarField(level, 1.0, values, True, "dirichlet"))
            ref = np.einsum("ti,tik->tk", values[level.triangles], level.hat_gradients[0])
            assert np.array_equal(got.vectors, ref)
            refined += level.coarse is not None
            level = level.coarse
        assert refined >= 1

    def test_mesh_mismatch_rejected(self, unit_square):
        m1 = triangulate(unit_square, 0.3)
        m2 = triangulate(unit_square, 0.3)
        field = solve_dirichlet(m1, 1.0)
        with pytest.raises(ValueError):
            gradient_field(m2, field)


def test_field_values_read_only(unit_square):
    field = solve_dirichlet(triangulate(unit_square, 0.3), 1.0)
    with pytest.raises(ValueError):
        field.values[0] = 2.0


def test_save_field_text(tmp_path, unit_square):
    m = triangulate(unit_square, 0.3)
    field = solve_dirichlet(m, 1.0)
    path = tmp_path / "field.txt"
    save_field_text(field, path)
    lines = path.read_text().splitlines()
    assert len(lines) == m.n_nodes
    x, y, v = lines[3].split()
    assert (float(x), float(y)) == tuple(m.nodes[3])
    assert float(v) == field.values[3]


class TestMemoryPeaks:
    """tracemalloc peaks on the L-shape refined to 262,144 triangles, and
    for the interior free_stiffness and gradient_field on a refined disc,
    as multiples of what each call returns; deterministic for a given
    numpy.  Measured: the interior free_stiffness, its stiffness weights
    and row sums included, 2.76x its K_II; gradient_field 2.27x its
    vectors; condition_margin 2.03x its margins; the smoothers of a
    two-level Multigrid 2.56x its fine smoother; a warm solve_dirichlet
    16.4x its field.  Fine-mesh gathers of the (M, 3, 2) gradients or the (M, 3)
    corner values, concatenated COO copies, or an |A| copy of the fine
    operator break these bounds."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def large(self):
        dom = l_shape()
        m = refine_uniform(triangulate(dom, 0.0125), dom)
        assert m.n_triangles == 262_144
        values = np.exp(-3.0 * np.hypot(m.nodes[:, 0], m.nodes[:, 1]))
        return m, ScalarField(m, 10.0, values, True, "dirichlet")

    @pytest.fixture()
    def disc(self):
        """The 12-ring web of the unit disc refined 4 times, 221,184
        triangles, built afresh for each test: its parents cache their
        rim's hat gradients and no others."""
        dom = unit_disc()
        m = _disc_web(dom, 12)
        for _ in range(4):
            m = refine_uniform(m, dom)
        values = np.exp(-3.0 * np.hypot(m.nodes[:, 0], m.nodes[:, 1]))
        return m, ScalarField(m, 10.0, values, True, "dirichlet")

    def test_interior_stiffness(self, large):
        self.check_interior_stiffness(*large)

    def test_interior_stiffness_disc(self, disc):
        self.check_interior_stiffness(*disc)

    def check_interior_stiffness(self, m, _):
        interior = ~m.boundary_node
        (k, _), peak = self.peak(lambda: m.free_stiffness(interior))
        assert peak <= 3.3 * sum(a.nbytes for a in (k.data, k.indices, k.indptr))

    def test_gradient_field(self, large):
        self.check_gradient_field(*large)

    def test_gradient_field_disc(self, disc):
        self.check_gradient_field(*disc)

    def check_gradient_field(self, m, field):
        grads, peak = self.peak(lambda: gradient_field(m, field))
        assert peak <= 3.0 * grads.vectors.nbytes

    def test_multigrid_smoothers(self, large):
        # The fine level's diagonal and smoother, and the Gershgorin row
        # sums of a block of rows; the coarse level is too large for a
        # dense solve and is scaled by its diagonal.
        m, _ = large
        cycle = solver._multigrid(m, 10.0, ~m.boundary_node)
        levels = [(cycle.matrices[0], None), (cycle.matrices[1], cycle.prolongations[0])]
        assert levels[1][0].shape[0] > solver.COARSEST_SIZE
        mg, peak = self.peak(lambda: solver.Multigrid(levels))
        assert peak <= 3.0 * mg.smoothers[0].nbytes

    def test_solve_dirichlet(self, large):
        # Warm: the mu-free operators are cached by the first solve, so the
        # peak is the cycle, the conjugate-gradient vectors and the field.
        m, _ = large
        solve_dirichlet(m, 10.0)
        field, peak = self.peak(lambda: solve_dirichlet(m, 20.0))
        assert peak <= 18.0 * field.values.nbytes

    def test_dirichlet_chain_keeps_no_full_prolongation(self, large):
        # A Dirichlet solve reads only the interior transfers, each built
        # from its parent's edges; no level holds the all-free (N, n_c)
        # prolongation (4.40 MB over this chain) until something asks for it.
        m, _ = large
        solve_dirichlet(m, 10.0)
        level, levels, full = m, 0, 0
        while level.coarse is not None:
            shape = (level.n_nodes, level.coarse.n_nodes)
            for v in vars(level).values():
                for a in (v.values() if isinstance(v, dict) else [v]):
                    if sp.issparse(a) and a.shape == shape:
                        full += a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
            level, levels = level.coarse, levels + 1
        assert levels >= 2 and m._free_prolongations
        assert full == 0

    @pytest.mark.parametrize("rule", ["centroid", "min-vertex"])
    def test_condition_margin(self, large, rule):
        m, field = large
        grads = gradient_field(m, field)
        result, peak = self.peak(lambda: condition_margin(field, grads, rule))
        assert peak <= 3.0 * result.margins.nbytes
