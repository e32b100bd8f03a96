import importlib
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from rmplates import eigensolve
from rmplates.eigensolve import EigOptions, principal_angles, solve_gep_smallest
from rmplates.errors import ConvergenceError, SingularSystemError
from rmplates.biharmonic import LimitBc, assemble_biharmonic_pencil
from rmplates.geometry import build_interval_mesh, build_rect_mesh, build_thin_mesh, constant_profile_spec, split_quads
from rmplates.rm_system import BcFamily, MaterialParams, assemble_rm_pencil, solve_rm_source
from rmplates.thin_limit import assemble_limit_pencil


def clamped_rm_pencil():
    return assemble_rm_pencil(build_rect_mesh(1, 1, 8, 8), MaterialParams(E=1.0, sigma=0.3, t=0.1), BcFamily.HARD_CLAMPED)


def random_spd_pencil(n, rng, spread=10.0):
    X = rng.standard_normal((n, n))
    A = X @ X.T + n * np.eye(n)
    Y = rng.standard_normal((n, n)) / spread
    B = Y @ Y.T + np.eye(n)
    return sp.csr_matrix(A), sp.csr_matrix(B)


class TestSmallest:
    def test_diagonal_pencil(self):
        A = sp.diags([1.0, 2.0, 3.0, 7.0, 9.0]).tocsr()
        B = sp.identity(5, format="csr")
        res = solve_gep_smallest(A, B, EigOptions(k=2))
        assert_allclose(res.eigenvalues, [1.0, 2.0], atol=1e-12)

    def test_identity_pencil(self):
        rng = np.random.default_rng(3)
        A, _ = random_spd_pencil(30, rng)
        res = solve_gep_smallest(A, A, EigOptions(k=4))
        assert_allclose(res.eigenvalues, np.ones(4), rtol=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        A, B = random_spd_pencil(50, rng)
        oracle = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True)
        res = solve_gep_smallest(A, B, EigOptions(k=6))
        assert_allclose(res.eigenvalues, oracle[:6], rtol=1e-8)
        assert np.all(res.residuals <= 1e-9)

    def test_b_orthonormality(self):
        rng = np.random.default_rng(5)
        A, B = random_spd_pencil(40, rng)
        res = solve_gep_smallest(A, B, EigOptions(k=5))
        G = res.eigenvectors.T @ (B @ res.eigenvectors)
        assert_allclose(G, np.eye(5), atol=1e-8)

    def test_ordering_nondecreasing(self):
        rng = np.random.default_rng(8)
        A, B = random_spd_pencil(35, rng)
        res = solve_gep_smallest(A, B, EigOptions(k=7))
        assert np.all(np.diff(res.eigenvalues) >= 0)

    def test_shift_invariance(self):
        # (A + cB, B) has eigenvalues exactly c above (A, B)
        rng = np.random.default_rng(21)
        A, B = random_spd_pencil(40, rng)
        c = 4.5
        base = solve_gep_smallest(A, B, EigOptions(k=5))
        shifted = solve_gep_smallest((A + c * B).tocsr(), B, EigOptions(k=5))
        assert_allclose(shifted.eigenvalues, base.eigenvalues + c, rtol=1e-10)

    def test_k_too_large_rejected(self):
        A = sp.identity(4, format="csr")
        with pytest.raises(ValueError):
            solve_gep_smallest(A, A, EigOptions(k=5))

    def test_dense_fallback_small_pencil(self):
        A = sp.diags([3.0, 1.0, 2.0]).tocsr()
        res = solve_gep_smallest(A, sp.identity(3, format="csr"), EigOptions(k=3))
        assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        assert res.info == {
            "ordering": "dense",
            "lu_fill": 0,
            "factor_s": 0.0,
            "opinv_applies": 0,
            "refine_factors": 0,
            "refine_rounds": 0,
        }

    def test_info_of_shift_invert_run(self):
        pen = clamped_rm_pencil()
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        info = res.info
        assert info["ordering"] == eigensolve.ordering(pen.A)
        assert info["lu_fill"] == eigensolve.factorize(pen.A).lu.nnz
        assert info["factor_s"] > 0
        assert info["opinv_applies"] >= 4
        assert info["refine_factors"] == info["refine_rounds"] == 0

    def test_ordering_runs_once_per_lanczos_run(self, monkeypatch):
        calls = []
        ordering = eigensolve.ordering

        def counted(M):
            calls.append(M.shape)
            return ordering(M)

        monkeypatch.setattr(eigensolve, "ordering", counted)
        pen = clamped_rm_pencil()
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        assert calls == [pen.A.shape]
        assert res.info["ordering"] == ordering(pen.A)

    def test_info_counts_refinement(self, monkeypatch):
        # perturbed Lanczos vectors put every cluster above tol, so each
        # cluster gets one factor and one to REFINE_ROUNDS rounds
        lanczos = eigensolve._shift_invert_lanczos
        rng = np.random.default_rng(12)

        def perturbed(A, B, k, factor, info):
            lam, vec = lanczos(A, B, k, factor, info)
            return lam, vec + 1e-4 * rng.standard_normal(vec.shape)

        monkeypatch.setattr(eigensolve, "_shift_invert_lanczos", perturbed)
        pen = clamped_rm_pencil()
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        n = len(eigensolve.clusters(res.eigenvalues))
        assert res.info["refine_factors"] == n
        assert n <= res.info["refine_rounds"] <= eigensolve.REFINE_ROUNDS * n

    def test_iteration_limit_carries_partial_results(self, monkeypatch):
        pen = clamped_rm_pencil()
        monkeypatch.setattr(eigensolve, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as info:
            solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        lam, vec = info.value.partial
        assert lam.shape == (4,)
        assert vec.shape == (pen.A.shape[0], 4)

    def test_singular_matrix_raises_singular_system_error(self):
        A = sp.diags([1.0, 2.0, 0.0, 7.0, 9.0]).tocsr()
        with pytest.raises(SingularSystemError):
            eigensolve.factorize(A)

    def test_cluster_grouping(self):
        A = sp.diags([1.0, 1.0 + 1e-9, 5.0, 5.0, 9.0]).tocsr()
        res = solve_gep_smallest(A, sp.identity(5, format="csr"), EigOptions(k=5))
        assert eigensolve.clusters(res.eigenvalues) == [[0, 1], [2, 3], [4]]


class TestOnProductionPencils:
    def test_rm_pencil_result_invariants(self):
        from rmplates import BcFamily, MaterialParams, assemble_rm_pencil, build_rect_mesh

        pen = assemble_rm_pencil(
            build_rect_mesh(1, 1, 8, 8), MaterialParams(E=1.0, sigma=0.3), BcFamily.FREE
        )
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=7))
        assert np.all(res.residuals <= 1e-9)
        G = res.eigenvectors.T @ (pen.B @ res.eigenvectors)
        assert_allclose(G, np.eye(7), atol=1e-8)
        assert np.all(np.diff(res.eigenvalues) >= 0)


class TestOneFactorization:
    """Every sparse LU is made by `factorize`; eigsh never factors on its own."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        def hidden_splu(*args, **kwargs):
            raise AssertionError("eigsh factored a matrix itself")

        arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
        monkeypatch.setattr(arpack, "splu", hidden_splu)
        calls = []
        factorize = eigensolve.factorize

        def counted(M):
            calls.append(M.shape)
            return factorize(M)

        monkeypatch.setattr(eigensolve, "factorize", counted)
        return calls

    def test_shift_invert(self, factor_calls):
        pen = clamped_rm_pencil()
        solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        assert len(factor_calls) == 1

    def test_source_solve(self, factor_calls):
        mesh = build_rect_mesh(1, 1, 6, 5)
        pen = assemble_rm_pencil(mesh, MaterialParams(E=1.0, sigma=0.3, t=0.1), BcFamily.FREE)
        rng = np.random.default_rng(4)
        solve_rm_source(pen, rng.standard_normal(2 * mesh.n_nodes), rng.standard_normal(mesh.n_nodes))
        assert len(factor_calls) == 1


def thin_source_pencil():
    # a thin free strip whose plain LU solves to 1e-3 forward error before correction
    spec = constant_profile_spec(0, 1, 0.5, 0.003)
    return assemble_rm_pencil(build_thin_mesh(spec, 192, 12), MaterialParams(E=1.0, sigma=0.3, t=0.01), BcFamily.FREE)


def componentwise_backward_error(A, x, b):
    return float(np.max(np.abs(b - A @ x) / (abs(A) @ np.abs(x) + np.abs(b))))


class TestSharedFactor:
    """`sparse_solve` factors A itself when no LU is given, as the
    eigensolver does; `solve_gep_smallest` releases a given LU before
    refining."""

    def test_source_solve_factors_a_itself(self, monkeypatch):
        pen = thin_source_pencil()
        mesh, A = pen.mesh, pen.A
        x = mesh.nodes[:, 0]
        # manufactured smooth plate field: beta = (cos pi x, 0), w = sin pi x
        exact = pen.dofmap.restrict(np.concatenate([np.cos(np.pi * x), np.zeros_like(x), np.sin(np.pi * x)]))
        b = A @ exact
        given = eigensolve.sparse_solve(A, b, eigensolve.factorize(A))
        factored = []
        factorize = eigensolve.factorize

        def recorded(M):
            factored.append(M)
            return factorize(M)

        monkeypatch.setattr(eigensolve, "factorize", recorded)
        got = eigensolve.sparse_solve(A, b)
        assert len(factored) == 1 and factored[0] is A
        assert np.array_equal(got, given)
        assert componentwise_backward_error(A, got, b) <= eigensolve.SOLVE_BACKWARD_ERROR
        forward = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        # without corrections the LU's solution is far off
        plain = factorize(A).lu.solve(b)
        assert componentwise_backward_error(A, plain, b) > 1e3 * eigensolve.SOLVE_BACKWARD_ERROR
        assert np.linalg.norm(plain - exact) > 1e2 * forward * np.linalg.norm(exact)

    def test_unreachable_backward_error_raises(self, monkeypatch):
        pen = clamped_rm_pencil()
        monkeypatch.setattr(eigensolve, "SOLVE_BACKWARD_ERROR", 0.0)
        with pytest.raises(SingularSystemError, match="backward error"):
            eigensolve.sparse_solve(pen.A, np.ones(pen.A.shape[0]))

    def test_refinement_after_given_lu_released(self, monkeypatch):
        class Lu:
            """A weakly referenceable stand-in holding the only reference to the LU."""

            def __init__(self, lu):
                self.solve = lu.solve

        lanczos, refine = eigensolve._shift_invert_lanczos, eigensolve._refine_clusters
        rng = np.random.default_rng(12)
        alive_at_refinement = []

        def perturbed(A, B, k, factor, info):
            lam, vec = lanczos(A, B, k, factor, info)
            return lam, vec + 1e-4 * rng.standard_normal(vec.shape)

        def refined(*args):
            alive_at_refinement.append((factor.lu, lu_ref()))
            return refine(*args)

        monkeypatch.setattr(eigensolve, "_shift_invert_lanczos", perturbed)
        monkeypatch.setattr(eigensolve, "_refine_clusters", refined)
        pen = clamped_rm_pencil()
        factor = eigensolve.factorize(pen.A)
        factor.lu = Lu(factor.lu)
        lu_ref = weakref.ref(factor.lu)
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4), factor)
        assert alive_at_refinement == [(None, None)]
        assert res.info["refine_factors"] >= 1
        assert res.info["lu_fill"] == factor.lu_fill and res.info["factor_s"] == factor.factor_s


def strip_pencils():
    spec = constant_profile_spec(0, 1, 0.5, 0.05)
    params = MaterialParams(E=1.0, sigma=0.3, t=0.1)
    return {
        "thin 96x6": assemble_rm_pencil(build_thin_mesh(spec, 96, 6), params, BcFamily.FREE),
        "limit": assemble_limit_pencil(build_interval_mesh(0.0, 1.0, 96), spec, params),
    }


def plate_pencils():
    mesh = build_rect_mesh(1, 1, 32, 32)
    return {
        "rm 32^2": assemble_rm_pencil(mesh, MaterialParams(E=1.0, sigma=0.3, t=0.025), BcFamily.HARD_CLAMPED),
        "morley 32^2": assemble_biharmonic_pencil(split_quads(mesh), 1.0, 0.3, LimitBc.CLAMPED),
    }


def colamd(M):
    lu = spla.splu(M.tocsc())
    return eigensolve.Factor(lu, "COLAMD", int(lu.nnz), 0.0)


class TestOrdering:
    """`factorize` factors plates as nested dissection numbers them and leaves strips' LUs alone."""

    def test_strip_lu_is_default_lu(self):
        for what, pen in strip_pencils().items():
            assert eigensolve.ordering(pen.A) == "COLAMD", what
            got, ref = eigensolve.factorize(pen.A).lu, colamd(pen.A).lu
            for attr in ("perm_c", "perm_r"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr)), (what, attr)
            for attr in ("L", "U"):
                assert np.array_equal(getattr(got, attr).data, getattr(ref, attr).data), (what, attr)

    def test_plate_lu_fills_less_with_same_spectrum(self, monkeypatch):
        opts = EigOptions(k=4, tol=1e-9)
        for what, pen in plate_pencils().items():
            assert eigensolve.ordering(pen.A) == "nested_dissection", what
            res = solve_gep_smallest(pen.A, pen.B, opts)
            assert res.info["ordering"] == "nested_dissection"
            assert res.info["lu_fill"] < colamd(pen.A).lu_fill, what
            with monkeypatch.context() as m:
                m.setattr(eigensolve, "factorize", colamd)
                ref = solve_gep_smallest(pen.A, pen.B, opts)
            assert_allclose(res.eigenvalues, ref.eigenvalues, rtol=1e-10, atol=0, err_msg=what)

    def test_refinement_on_indefinite_shift(self):
        # A - shift B with the shift inside the spectrum is factored
        # without pivoting; the refinement must still converge
        pen = plate_pencils()["rm 32^2"]
        A, B = pen.A, pen.B
        tol = 1e-9
        res = solve_gep_smallest(A, B, EigOptions(k=4, tol=tol))
        rng = np.random.default_rng(12)
        vec = res.eigenvectors + 1e-4 * rng.standard_normal(res.eigenvectors.shape)
        before = eigensolve._residuals(A, B, res.eigenvalues, vec)
        assert np.all(before > tol)
        info = {"refine_factors": 0, "refine_rounds": 0}
        lam, vec = eigensolve._refine_clusters(A, B, res.eigenvalues, vec, before, tol, info)
        assert info["refine_factors"] == len(eigensolve.clusters(res.eigenvalues))
        assert np.all(eigensolve._residuals(A, B, lam, vec) <= tol)
        assert_allclose(lam, res.eigenvalues, rtol=1e-10)

    def test_disconnected_graph(self):
        d = np.array([1.0, 2.0, 4.0, 8.0, 3.0])
        lu = eigensolve.factorize(sp.diags(d).tocsr()).lu
        assert_allclose(lu.solve(d), np.ones(5), rtol=1e-15)

    def test_singular_chain_raises(self):
        # the Neumann Laplacian of a path, constants in its kernel; a
        # singular diagonal (a plate) is test_singular_matrix_raises_singular_system_error
        M = sp.diags([[-1.0] * 4, [1.0, 2.0, 2.0, 2.0, 1.0], [-1.0] * 4], [-1, 0, 1]).tocsr()
        assert eigensolve.ordering(M) == "COLAMD"
        with pytest.raises(SingularSystemError):
            eigensolve.factorize(M)


class TestPrincipalAngles:
    def b_orthonormalize(self, V, B):
        G = V.T @ (B @ V)
        L = np.linalg.cholesky(G)
        return scipy.linalg.solve_triangular(L, V.T, lower=True).T

    def test_same_span_zero_angles(self):
        rng = np.random.default_rng(2)
        B = sp.identity(6, format="csr")
        U = self.b_orthonormalize(rng.standard_normal((6, 2)), B)
        # same span in a different basis
        V = self.b_orthonormalize(U @ rng.standard_normal((2, 2)), B)
        # the cosine route resolves vanishing angles only to about sqrt(eps)
        assert np.max(principal_angles(U, V, B)) < 1e-7

    def test_orthogonal_spans(self):
        B = sp.identity(4, format="csr")
        U = np.array([[1.0, 0, 0, 0]]).T
        V = np.array([[0, 1.0, 0, 0]]).T
        assert_allclose(principal_angles(U, V, B), [np.pi / 2])

    def test_against_dense_gram_svd(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((5, 5))
        B = sp.csr_matrix(X @ X.T + 5 * np.eye(5))
        U = self.b_orthonormalize(rng.standard_normal((5, 2)), B)
        V = self.b_orthonormalize(rng.standard_normal((5, 2)), B)
        got = principal_angles(U, V, B)
        # brute force: explicit Gram in the B inner product, then SVD
        G = np.array([[U[:, i] @ (B @ V[:, j]) for j in range(2)] for i in range(2)])
        expected = np.arccos(np.clip(np.linalg.svd(G, compute_uv=False), -1, 1))
        assert_allclose(got, expected, atol=1e-12)
        assert np.all(np.diff(got) >= 0)

    def test_rank_deficient_rejected(self):
        B = sp.identity(4, format="csr")
        U = np.zeros((4, 2))
        U[0, 0] = 1.0
        U[0, 1] = 1.0  # dependent columns
        with pytest.raises(ValueError):
            principal_angles(U, U, B)
