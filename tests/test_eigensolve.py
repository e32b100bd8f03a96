import importlib
import os
import pathlib
import platform
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from rmplates import assemble, eigensolve, experiments
from rmplates.eigensolve import EigOptions, principal_angles, solve_gep_smallest
from rmplates.errors import ConvergenceError, SingularSystemError
from rmplates.biharmonic import LimitBc, assemble_biharmonic_pencil, map_limit_bc
from rmplates.experiments import DEFAULT_PARAMS, SweepConfig
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

    @pytest.mark.parametrize("k", [3.0, 2.5, True, "3", None])
    def test_k_that_is_no_integer_rejected(self, k):
        # a float k used to reach ARPACK, which failed with a SystemError
        with pytest.raises(ValueError, match="k must be an integer"):
            EigOptions(k=k)

    def test_numpy_integer_k_accepted(self):
        A = sp.diags(np.arange(1.0, 21.0)).tocsr()
        res = solve_gep_smallest(A, sp.identity(20, format="csr"), EigOptions(k=np.int64(3)))
        assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], rtol=1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            EigOptions(k=4, tol=tol)

    def test_dense_fallback_small_pencil(self):
        A = sp.diags([3.0, 1.0, 2.0]).tocsr()
        res = solve_gep_smallest(A, sp.identity(3, format="csr"), EigOptions(k=3))
        assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        assert res.info == {
            "ordering": "dense",
            "lu_fill": 0,
            "factor_s": 0.0,
            "opinv_applies": 0,
            "backward_errors": [0.0, 0.0, 0.0],
        }

    def test_info_of_shift_invert_run(self):
        pen = clamped_rm_pencil()
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        info = res.info
        assert info["ordering"] == eigensolve.ordering(pen.A)
        assert info["lu_fill"] == eigensolve.factorize(pen.A).lu.nnz
        assert info["factor_s"] > 0
        assert info["opinv_applies"] >= 4
        errors = info["backward_errors"]
        assert len(errors) == 4 and all(type(e) is float and e <= eigensolve.BACKWARD_ERROR for e in errors)

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
    """Every sparse LU is made by `factorize`, a pencil's by `Pencil.factor`;
    eigsh never factors on its own."""

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
        monkeypatch.setattr(assemble, "factorize", counted)
        return calls

    def test_shift_invert(self, factor_calls):
        pen = clamped_rm_pencil()
        solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        assert len(factor_calls) == 1

    def test_source_solve(self, factor_calls):
        mesh = build_rect_mesh(1, 1, 6, 5)
        pen = assemble_rm_pencil(mesh, MaterialParams(E=1.0, sigma=0.3, t=0.1), BcFamily.FREE)
        rng = np.random.default_rng(4)
        first = solve_rm_source(pen, rng.standard_normal(2 * mesh.n_nodes), rng.standard_normal(mesh.n_nodes))
        solve_rm_source(pen, first.beta, first.w)
        # the second solve runs on the pencil's LU, which the first one made
        assert len(factor_calls) == 1


def thin_source_pencil():
    # a thin free strip whose plain LU solves to 1e-3 forward error before correction
    spec = constant_profile_spec(0, 1, 0.5, 0.003)
    return assemble_rm_pencil(build_thin_mesh(spec, 192, 12), MaterialParams(E=1.0, sigma=0.3, t=0.01), BcFamily.FREE)


def componentwise_backward_error(A, x, b):
    return float(np.max(np.abs(b - A @ x) / (abs(A) @ np.abs(x) + np.abs(b))))


class TestSharedFactor:
    """`sparse_solve` corrects the solution of the LU it is given;
    `solve_gep_smallest` runs on a given LU and leaves it to its owner."""

    def test_source_solve_corrects_the_plain_lu(self):
        pen = thin_source_pencil()
        mesh, A = pen.mesh, pen.A
        x = mesh.nodes[:, 0]
        # manufactured smooth plate field: beta = (cos pi x, 0), w = sin pi x
        exact = pen.dofmap.restrict(np.concatenate([np.cos(np.pi * x), np.zeros_like(x), np.sin(np.pi * x)]))
        b = A @ exact
        got = eigensolve.sparse_solve(A, b, pen.factor)
        assert componentwise_backward_error(A, got, b) <= eigensolve.SOLVE_BACKWARD_ERROR
        forward = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        # without corrections the LU's solution is far off
        plain = pen.factor.lu.solve(b)
        assert componentwise_backward_error(A, plain, b) > 1e3 * eigensolve.SOLVE_BACKWARD_ERROR
        assert np.linalg.norm(plain - exact) > 1e2 * forward * np.linalg.norm(exact)

    def test_unreachable_backward_error_raises(self, monkeypatch):
        pen = clamped_rm_pencil()
        monkeypatch.setattr(eigensolve, "SOLVE_BACKWARD_ERROR", 0.0)
        with pytest.raises(SingularSystemError, match="backward error"):
            eigensolve.sparse_solve(pen.A, np.ones(pen.A.shape[0]), pen.factor)

    def test_given_lu_serves_lanczos_and_stays_with_its_pencil(self):
        pen = clamped_rm_pencil()
        lu = pen.factor.lu
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4), pen.factor)
        assert pen.factor.lu is lu
        assert res.info["lu_fill"] == pen.factor.lu_fill and res.info["factor_s"] == pen.factor.factor_s
        ref = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
        assert np.array_equal(res.eigenvalues, ref.eigenvalues) and np.array_equal(res.eigenvectors, ref.eigenvectors)


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


def strip_matrix():
    """A of the free thin strip at delta = 0.1 on 16x2 cells."""
    mesh = build_thin_mesh(constant_profile_spec(0, 1, 0.5, 0.1), 16, 2)
    return assemble_rm_pencil(mesh, MaterialParams(E=1.0, sigma=0.3, t=0.1), BcFamily.FREE).A


class TestDeltaLevelLu:
    """Each delta point's Lanczos run gets its thin pencil's own LU, which
    the point drops with the pencil when it ends."""

    def test_each_point_factors_its_matrix_alone_and_releases_its_lu(self, monkeypatch):
        class Lu:
            """A weakly referenceable SuperLU stand-in."""

            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                return getattr(self._lu, name)

        splu, lanczos, factorize = spla.splu, eigensolve._shift_invert_lanczos, eigensolve.factorize
        assemble_thin, assemble_limit = experiments.assemble_rm_pencil, experiments.assemble_limit_pencil
        made, pencils, alive_in_lanczos, given = [], [], [], []

        def traced_splu(*args, **kwargs):
            lu = Lu(splu(*args, **kwargs))
            made.append(weakref.ref(lu))
            return lu

        def recorded_lanczos(A, B, k, factor, info):
            # the run's LU is the one its pencil holds, the last one assembled
            assert factor is pencils[-1]().__dict__["factor"]
            alive_in_lanczos.append(sum(ref() is not None for ref in made))
            return lanczos(A, B, k, factor, info)

        def recorded_factorize(*args, **kwargs):
            given.append((len(args), kwargs))
            return factorize(*args, **kwargs)

        def recorded(assembler):
            def assembled(*args):
                pencil = assembler(*args)
                pencils.append(weakref.ref(pencil))
                return pencil

            return assembled

        monkeypatch.setattr(spla, "splu", traced_splu)
        monkeypatch.setattr(eigensolve, "_shift_invert_lanczos", recorded_lanczos)
        monkeypatch.setattr(assemble, "factorize", recorded_factorize)
        monkeypatch.setattr(experiments, "assemble_rm_pencil", recorded(assemble_thin))
        monkeypatch.setattr(experiments, "assemble_limit_pencil", recorded(assemble_limit))
        cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1, 0.05), mesh_n=96, mesh_ny=6)
        experiments._delta_level(cfg, 96, 6)
        # the limit LU, then one per delta point; in each thin run only the
        # limit LU and the point's own are alive, and none after the level
        assert len(made) == 5 and alive_in_lanczos == [1, 2, 2, 2, 2]
        assert all(ref() is None for ref in made)
        # every call, the limit's and each point's, hands over the matrix alone
        assert given == [(1, {})] * 5


class TestHeapRelease:
    """`factorize` hands the C heap's free pages back just before each LU."""

    def test_released_once_before_splu(self, monkeypatch):
        events = []
        splu = spla.splu

        def traced_splu(*args, **kwargs):
            events.append("splu")
            return splu(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "MALLOC_TRIM", lambda pad: events.append(("trim", pad)))
        monkeypatch.setattr(spla, "splu", traced_splu)
        for M in (clamped_rm_pencil().A, strip_matrix()):
            events.clear()
            eigensolve.factorize(M)
            assert events == [("trim", 0), "splu"]

    def test_absent_symbol_is_a_no_op(self, monkeypatch):
        class NoTrim:
            """A C library without malloc_trim."""

        monkeypatch.setattr(eigensolve.ctypes, "CDLL", lambda name: NoTrim())
        assert eigensolve._malloc_trim() is None
        for M in (clamped_rm_pencil().A, strip_matrix()):
            ref = eigensolve.factorize(M).lu
            with monkeypatch.context() as m:
                m.setattr(eigensolve, "MALLOC_TRIM", None)
                got = eigensolve.factorize(M).lu
            for attr in ("perm_c", "perm_r"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr
            for attr in ("L", "U"):
                assert np.array_equal(getattr(got, attr).data, getattr(ref, attr).data), attr

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's malloc and /proc")
    def test_freed_heap_leaves_the_resident_set(self):
        # a freed 24 MB mapping raises glibc's mmap threshold (it follows freed
        # mappings of up to 32 MB), so the 1 MB arrays below come from the heap;
        # `keep` sits above them, so free() cannot give them back by trimming the top
        script = textwrap.dedent(
            """
            import numpy as np
            import scipy.sparse as sp
            from rmplates import assemble, eigensolve, experiments

            def rss_mb():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024

            mapped = np.ones(24 << 20, dtype=np.uint8)
            del mapped
            before = rss_mb()
            held = [np.ones(1 << 17) for _ in range(200)]
            keep = np.ones(1 << 17)
            del held
            eigensolve.factorize(sp.diags([np.full(50, 4.0), np.full(49, -1.0), np.full(49, -1.0)], [0, -1, 1]).tocsr())
            print(rss_mb() - before)
            """
        )
        src = str(pathlib.Path(eigensolve.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert float(out.stdout.split()[-1]) < 20.0, out.stdout


def normwise_backward_errors(A, B, lam, X):
    """||A x - lam B x||_1 / ((||A||_1 + |lam| ||B||_1) ||x||_1) per column x of X."""
    R = A @ X - (B @ X) * lam
    norm1 = lambda M: abs(M).sum(axis=0).max()
    return np.abs(R).sum(axis=0) / ((norm1(A) + np.abs(lam) * norm1(B)) * np.abs(X).sum(axis=0))


def morley_reference_pencil(bc):
    # the 64^2 level of sweep_thickness's Morley reference at its default parameters
    tri = split_quads(build_rect_mesh(1.0, 1.0, 64, 64))
    return assemble_biharmonic_pencil(tri, DEFAULT_PARAMS.E, DEFAULT_PARAMS.sigma, map_limit_bc(bc))


class TestBackwardErrorAcceptance:
    """A pair whose residual misses tol is accepted by its normwise backward error."""

    @pytest.mark.parametrize(
        "make, k",
        [
            pytest.param(
                lambda: assemble_rm_pencil(
                    build_thin_mesh(constant_profile_spec(0, 1, 0.5, 0.05), 192, 12), DEFAULT_PARAMS, BcFamily.FREE
                ),
                8,
                id="free strip 192x12",
            ),
            pytest.param(lambda: morley_reference_pencil(BcFamily.FREE), 4, id="morley free 64^2"),
            pytest.param(lambda: morley_reference_pencil(BcFamily.SOFT_RIGID), 4, id="morley soft rigid 64^2"),
        ],
    )
    def test_pairs_above_tol_accepted_by_backward_error(self, make, k):
        # low pairs, the kernel at 1 among them, have ||A x|| << ||A|| ||x||,
        # which puts their residual at its rounding floor above the default tol
        pen = make()
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=k))
        assert np.any(res.residuals > EigOptions().tol)
        errors = res.info["backward_errors"]
        assert_allclose(errors, normwise_backward_errors(pen.A, pen.B, res.eigenvalues, res.eigenvectors), rtol=1e-10)
        assert max(errors) <= 1e-14  # a hundredth of BACKWARD_ERROR

    @pytest.mark.parametrize(
        "pencils, what",
        [
            pytest.param(plate_pencils, "rm 32^2", id="clamped rm 32^2"),
            pytest.param(strip_pencils, "thin 96x6", id="free strip 96x6"),
        ],
    )
    def test_pair_moved_to_backward_error_above_bound_raises(self, pencils, what, monkeypatch):
        pen = pencils()[what]
        A, B = pen.A, pen.B
        opts = EigOptions(k=4)
        res = solve_gep_smallest(A, B, opts)  # the unmoved pairs pass
        lam, X = res.eigenvalues, res.eigenvectors
        # move the first pair along a seeded direction B-orthogonal to the
        # others, so B-orthonormalization leaves it where it is; its
        # eigenvalue is the Rayleigh quotient
        d = np.random.default_rng(12).standard_normal(A.shape[0])
        d -= X[:, 1:] @ (X[:, 1:].T @ (B @ d))
        d /= np.sqrt(d @ (B @ d))

        def moved(log_s):
            y = X[:, 0] + 10.0**log_s * d
            return y @ (A @ y) / (y @ (B @ y)), y

        target = 1e-10  # 100x BACKWARD_ERROR

        def log_excess(log_s):
            mu, y = moved(log_s)
            return np.log(normwise_backward_errors(A, B, np.array([mu]), y[:, None])[0] / target)

        mu, y = moved(scipy.optimize.brentq(log_excess, -16, 0))
        monkeypatch.setattr(
            eigensolve, "_shift_invert_lanczos", lambda *args: (np.r_[mu, lam[1:]], np.column_stack([y, X[:, 1:]]))
        )
        with pytest.raises(ConvergenceError, match="backward errors") as exc:
            solve_gep_smallest(A, B, opts)
        got = normwise_backward_errors(A, B, *exc.value.partial)
        assert got.max() == pytest.approx(target, rel=1e-3)


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

    def test_near_dependent_block_is_refused_not_returned_skewed(self):
        # the Gram matrix's Cholesky fails; dividing by its round-off
        # eigenvalues instead returned a block with max |U^T B U - I| = 0.99
        rng = np.random.default_rng(0)
        v, u = rng.standard_normal(50), rng.standard_normal(50)
        with pytest.raises(ValueError, match="B-rank-deficient"):
            eigensolve._b_orthonormalize(np.column_stack([v, v + 1e-9 * u]), np.eye(50))

    def test_rank_deficient_rejected(self):
        B = sp.identity(4, format="csr")
        U = np.zeros((4, 2))
        U[0, 0] = 1.0
        U[0, 1] = 1.0  # dependent columns
        with pytest.raises(ValueError):
            principal_angles(U, U, B)
