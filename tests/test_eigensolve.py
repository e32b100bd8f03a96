import importlib

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from rmplates import eigensolve
from rmplates.eigensolve import EigOptions, principal_angles, solve_gep_smallest
from rmplates.errors import ConvergenceError, SingularSystemError
from rmplates.geometry import build_rect_mesh
from rmplates.rm_system import BcFamily, MaterialParams, assemble_rm_pencil, solve_rm_source


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
