import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rmplates import (
    MORLEY,
    P2_1D,
    Q1_SCALAR,
    BcFamily,
    LimitBc,
    MaterialParams,
    assemble_biharmonic_pencil,
    assemble_limit_pencil,
    assemble_rm_pencil,
    build_dofmap,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    interpolate_pair,
    kernel_count,
    lame_coefficients,
    rigid_pair,
    solve_rm_source,
    split_quads,
    stack_dofmaps,
)
from rmplates import experiments
from rmplates.eigensolve import EigOptions, solve_gep_smallest
from rmplates.experiments import dirichlet_laplace_smallest
from rmplates.assemble import assemble_from_local
from rmplates.errors import UnsupportedConfigurationError
from rmplates.geometry import Mesh, PiecewiseLinear, ThinDomainSpec
from rmplates.rm_system import rm_dofmap, rm_load_vector, rm_local_matrices

PARAMS = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.1)


class TestMaterial:
    def test_lame_zero_poisson(self):
        assert lame_coefficients(MaterialParams(E=1.0, sigma=0.0)) == (0.5, 0.0)

    def test_lame_substitution(self):
        mu1, mu2 = lame_coefficients(MaterialParams(E=12.0, sigma=0.5))
        assert_allclose([mu1, mu2], [4.0, 4.0], atol=1e-14)

    def test_lame_sum_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            E = float(rng.uniform(0.1, 100.0))
            sigma = float(rng.uniform(-0.9, 0.9))
            p = MaterialParams(E=E, sigma=sigma)
            mu1, mu2 = lame_coefficients(p)
            assert_allclose(mu1 + mu2, E / (2 * (1 - sigma**2)), rtol=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(E=-1, sigma=0.3),
            dict(E=1, sigma=1.0),
            dict(E=1, sigma=-1.0),
            dict(E=1, sigma=0.3, t=0.0),
            dict(E=np.nan, sigma=0.3),
            dict(E=np.inf, sigma=0.3),
            dict(E=1, sigma=np.nan),
            dict(E=1, sigma=0.3, k=np.nan),
            dict(E=1, sigma=0.3, k=np.inf),
            dict(E=1, sigma=0.3, t=np.nan),
            dict(E=1, sigma=0.3, t=np.inf),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            MaterialParams(**kwargs)


class TestPencil:
    def test_rigid_pair_is_unit_eigenvector(self):
        mesh = build_rect_mesh(1, 1, 5, 4)
        pen = assemble_rm_pencil(mesh, PARAMS, BcFamily.FREE)
        for a, b in [((1.0, 0.0), 0.0), ((0.3, -0.2), 0.7), ((0.0, 0.0), 1.0)]:
            x = rigid_pair(mesh, a, b).concat()
            r = pen.A @ x - pen.B @ x
            assert np.abs(r).max() < 1e-12 * max(1.0, np.abs(x).max())

    def test_hard_clamped_constraint_count(self):
        mesh = build_rect_mesh(1, 1, 6, 6)
        pen = assemble_rm_pencil(mesh, PARAMS, BcFamily.HARD_CLAMPED)
        boundary_nodes = set(mesh.facets.nodes.ravel().tolist())
        assert len(pen.dofmap.constrained) == 3 * len(boundary_nodes)

    def test_rigid_rotation_kills_bending(self):
        mesh = build_rect_mesh(1, 1, 6, 5)
        bend, shear, mass = _unconstrained_parts(mesh)
        pair = interpolate_pair(mesh, lambda x: np.stack([x[:, 1], -x[:, 0]], axis=-1), lambda x: np.zeros(len(x)))
        x = pair.concat()
        scale = x @ (mass @ x)
        assert x @ (bend @ x) < 1e-12 * scale

    def test_shifted_pencil_definite(self):
        mesh = build_rect_mesh(1, 1, 8, 8)
        for bc in (BcFamily.FREE, BcFamily.HARD_CLAMPED, BcFamily.SOFT_RIGID):
            pen = assemble_rm_pencil(mesh, PARAMS, bc)
            res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=1))
            assert res.eigenvalues[0] >= 1.0 - 1e-10

    def test_bc_monotonicity(self):
        # growing trial spaces push the Rayleigh minima down
        mesh = build_rect_mesh(1, 1, 8, 8)
        eigs = {}
        for bc in (BcFamily.HARD_CLAMPED, BcFamily.SOFT_CLAMPED, BcFamily.FREE):
            pen = assemble_rm_pencil(mesh, PARAMS, bc)
            eigs[bc] = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4)).eigenvalues
        assert np.all(eigs[BcFamily.HARD_CLAMPED] >= eigs[BcFamily.SOFT_CLAMPED] - 1e-10)
        assert np.all(eigs[BcFamily.SOFT_CLAMPED] >= eigs[BcFamily.FREE] - 1e-10)

    def test_translation_invariance(self):
        mesh = build_rect_mesh(1, 1, 6, 6)
        nodes = mesh.nodes.copy()
        nodes += np.array([137.2, -55.9])
        moved = Mesh(2, mesh.element_kind, nodes, mesh.elements.copy(), mesh.facets, meta=dict(mesh.meta))
        lam0 = solve_gep_smallest(*_pencil_mats(mesh, BcFamily.HARD_CLAMPED), EigOptions(k=3)).eigenvalues
        lam1 = solve_gep_smallest(*_pencil_mats(moved, BcFamily.HARD_CLAMPED), EigOptions(k=3)).eigenvalues
        assert_allclose(lam0, lam1, rtol=1e-9)

    def test_reduced_shear_exact_on_gradient_pairs(self):
        # w bilinear, beta = grad w evaluated exactly: the shear energy of
        # the pair vanishes pointwise, so under any of the reduced rules
        mesh = build_rect_mesh(1.0, 1.0, 1, 1)
        _, shear, _ = _unconstrained_parts(mesh)
        pair = interpolate_pair(
            mesh,
            lambda x: np.stack([x[:, 1], x[:, 0]], axis=-1),  # grad(xy)
            lambda x: x[:, 0] * x[:, 1],
        )
        x = pair.concat()
        assert abs(x @ (shear @ x)) < 1e-12

    def test_family_is_restriction_of_unconstrained_mass(self, monkeypatch):
        # a family only selects free dofs: its A and B are the unconstrained
        # matrices restricted, entry for entry and with the same sparsity,
        # and restricting the free pencil gives the family's pencil
        mesh = build_rect_mesh(1, 1, 6, 5)
        bend, shear, mass = rm_local_matrices(mesh, PARAMS)
        A_full = assemble_from_local(rm_dofmap(mesh, BcFamily.FREE), bend + shear + mass)
        free_pencil = assemble_rm_pencil(mesh, PARAMS, BcFamily.FREE)
        for bc in BcFamily:
            pen = assemble_rm_pencil(mesh, PARAMS, bc)
            free = pen.dofmap.free
            restricted = free_pencil.restrict(rm_dofmap(mesh, bc))
            pairs = {
                "A": (pen.A, A_full[free][:, free]),
                "B": (pen.B, pen.B_full[free][:, free]),
                "restrict A": (pen.A, restricted.A),
                "restrict B": (pen.B, restricted.B),
                "restrict B_full": (pen.B_full, restricted.B_full),
            }
            for what, (M, R) in pairs.items():
                assert _same_csr(M, R), (bc, what)

        # so are the Morley families, the limit pencil and the Dirichlet
        # Laplacian: rescatter the blocks each one hands to the scatter over
        # an unconstrained dofmap, and restrict
        blocks, solved = [], []

        def scatter(dofmap, local):
            blocks.append(local.copy())
            return assemble_from_local(dofmap, local)

        def solve(A, B, opts):
            solved.append((A, B))
            return solve_gep_smallest(A, B, opts)

        for name, module in list(sys.modules.items()):
            if name.startswith("rmplates.") and getattr(module, "assemble_from_local", None) is assemble_from_local:
                monkeypatch.setattr(module, "assemble_from_local", scatter)
        monkeypatch.setattr(experiments, "solve_gep_smallest", solve)

        tri, interval = split_quads(mesh), build_interval_mesh(0, 1, 7)
        spec = constant_profile_spec(0, 1, 0.5, 0.2)
        cases = {
            bc.value: (lambda bc=bc: assemble_biharmonic_pencil(tri, 1.0, 0.3, bc), build_dofmap(tri, MORLEY))
            for bc in LimitBc
        }
        cases["limit"] = (
            lambda: assemble_limit_pencil(interval, spec, PARAMS),
            stack_dofmaps([build_dofmap(interval, P2_1D)] * 2),
        )
        for what, (build, unconstrained) in cases.items():
            blocks.clear()
            pen = build()
            free = pen.dofmap.free
            A_full, B_full = (assemble_from_local(unconstrained, local) for local in blocks)
            for M, R in ((pen.A, A_full[free][:, free]), (pen.B, B_full[free][:, free]), (pen.B_full, B_full)):
                assert _same_csr(M, R), what

        blocks.clear()
        dirichlet_laplace_smallest(mesh)
        free = build_dofmap(mesh, Q1_SCALAR, True).free
        assert len(free) < mesh.n_nodes
        for M, local in zip(solved[0], blocks):
            assert _same_csr(M, assemble_from_local(build_dofmap(mesh, Q1_SCALAR), local)[free][:, free]), "dirichlet"

    def test_unconstrained_pencil_holds_its_mass_once(self):
        # with every dof free, restriction shares the matrices instead of copying them
        mesh = build_rect_mesh(1, 1, 6, 5)
        spec = constant_profile_spec(0, 1, 0.5, 0.2)
        free_pencils = {
            "rm free": assemble_rm_pencil(mesh, PARAMS, BcFamily.FREE),
            "morley free": assemble_biharmonic_pencil(split_quads(mesh), 1.0, 0.3, LimitBc.FREE),
            "limit": assemble_limit_pencil(build_interval_mesh(0, 1, 7), spec, PARAMS),
        }
        for what, pen in free_pencils.items():
            assert pen.B is pen.B_full, what
        clamped = assemble_rm_pencil(mesh, PARAMS, BcFamily.HARD_CLAMPED)
        assert clamped.B.shape[0] < clamped.B_full.shape[0]

    def test_non_axis_aligned_trace_rejected(self):
        spec = ThinDomainSpec(
            (0.0, 1.0),
            PiecewiseLinear.constant(0.5, 0, 1),
            PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, 1.0])),
            0.3,
        )
        mesh = build_thin_mesh(spec, 4, 2)
        with pytest.raises(UnsupportedConfigurationError):
            assemble_rm_pencil(mesh, PARAMS, BcFamily.SOFT_CLAMPED)


class TestSimplySupportedClosedForm:
    """Hard simply supported square against the separable closed form.

    Modes (beta, w) = (A grad phi, B phi) with phi = sin(m pi x) sin(n pi y)
    satisfy the tangential trace and the natural conditions exactly, so each
    Laplace eigenvalue kappa = pi^2 (m^2 + n^2) contributes the two roots of
    a 2x2 pencil coupling bending, shear and the weighted masses.  The
    rotational branches lie above the first handful of these.
    """

    @staticmethod
    def analytic_eigenvalues(params, how_many=6, modes=6):
        import scipy.linalg

        Dp = params.bending_factor
        S = params.shear_factor
        t2_12 = params.t**2 / 12.0
        values = []
        for m in range(1, modes):
            for n in range(1, modes):
                kappa = np.pi**2 * (m * m + n * n)
                K = np.array([[Dp * kappa**2 + S * kappa, -S * kappa], [-S * kappa, S * kappa]])
                M = np.diag([t2_12 * kappa, 1.0])
                values.extend(scipy.linalg.eigh(K, M, eigvals_only=True))
        return np.sort(values)[:how_many] + 1.0  # shifted pencil

    def test_discrete_spectrum_matches_oracle(self):
        from rmplates.eigensolve import EigOptions, solve_gep_smallest

        exact = self.analytic_eigenvalues(PARAMS, how_many=4)
        lam = {}
        for n in (32, 64):
            mesh = build_rect_mesh(1, 1, n, n)
            pen = assemble_rm_pencil(mesh, PARAMS, BcFamily.HARD_SIMPLY_SUPPORTED)
            res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=4, tol=1e-8))
            lam[n] = res.eigenvalues
        richardson = lam[64] + (lam[64] - lam[32]) / 3.0
        assert_allclose(richardson, exact, rtol=1e-3)
        # the (1,2)/(2,1) pair stays an exact double eigenvalue discretely
        assert abs(lam[64][1] - lam[64][2]) <= 1e-8 * lam[64][1]

    def test_oracle_holds_at_other_thickness(self):
        from rmplates.eigensolve import EigOptions, solve_gep_smallest

        params = MaterialParams(E=2.0, sigma=0.2, k=1.0, t=0.2)
        exact = self.analytic_eigenvalues(params, how_many=3)
        mesh = build_rect_mesh(1, 1, 32, 32)
        pen = assemble_rm_pencil(mesh, params, BcFamily.HARD_SIMPLY_SUPPORTED)
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=3, tol=1e-8))
        assert_allclose(res.eigenvalues, exact, rtol=0.01)


class TestKernels:
    EXPECTED = {
        BcFamily.FREE: 3,
        BcFamily.HARD_RIGID: 1,
        BcFamily.SOFT_RIGID: 1,
        BcFamily.WEAK_NEUMANN: 1,
        BcFamily.HARD_CLAMPED: 0,
        BcFamily.SOFT_CLAMPED: 0,
        BcFamily.HARD_SIMPLY_SUPPORTED: 0,
        BcFamily.SOFT_SIMPLY_SUPPORTED: 0,
    }

    @pytest.mark.parametrize("bc", list(BcFamily))
    def test_kernel_dimensions(self, bc):
        mesh = build_rect_mesh(1, 1, 6, 6)
        pen = assemble_rm_pencil(mesh, PARAMS, bc)
        assert kernel_count(pen) == self.EXPECTED[bc]

    def test_kernel_dimensions_parameter_independent(self):
        # the kernel is a property of the trace constraints, not the material
        mesh = build_rect_mesh(1, 1, 5, 5)
        for params in (
            MaterialParams(E=3.0, sigma=-0.4, k=1.2, t=0.3),
            MaterialParams(E=0.5, sigma=0.7, k=0.5, t=0.02),
        ):
            for bc in (BcFamily.FREE, BcFamily.SOFT_RIGID, BcFamily.SOFT_CLAMPED):
                pen = assemble_rm_pencil(mesh, params, bc)
                assert kernel_count(pen) == self.EXPECTED[bc]


class TestSourceSolve:
    def test_constant_data_fixed_point(self):
        mesh = build_rect_mesh(1, 1, 6, 5)
        pen = assemble_rm_pencil(mesh, PARAMS, BcFamily.FREE)
        sol = solve_rm_source(pen, np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes))
        assert np.abs(sol.beta).max() < 1e-10
        assert_allclose(sol.w, np.ones(mesh.n_nodes), atol=1e-10)

    def test_rigid_data_fixed_point(self):
        mesh = build_rect_mesh(1, 1, 6, 5)
        pen = assemble_rm_pencil(mesh, PARAMS, BcFamily.FREE)
        pair = rigid_pair(mesh, (0.4, -1.1), 0.25)
        sol = solve_rm_source(pen, pair.beta, pair.w)
        assert_allclose(sol.beta, pair.beta, atol=1e-10)
        assert_allclose(sol.w, pair.w, atol=1e-10)

    def test_mixed_load_data_rejected(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        pen = assemble_rm_pencil(mesh, PARAMS, BcFamily.FREE)
        with pytest.raises(ValueError, match="both"):
            rm_load_vector(pen, lambda x: np.zeros(x.shape[:-1] + (2,)), np.ones(mesh.n_nodes))
        with pytest.raises(ValueError, match="both"):
            rm_load_vector(pen, np.zeros(2 * mesh.n_nodes), lambda x: np.ones(x.shape[:-1]))

    def test_clamped_deflection_close_to_kirchhoff(self):
        # RM at small t against the Morley limit solve on the same grid
        from rmplates import LimitBc, assemble_biharmonic_pencil, solve_biharmonic_source, split_quads
        from rmplates.biharmonic import vertex_values

        n = 32
        mesh = build_rect_mesh(1, 1, n, n)
        params = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.05)
        pen = assemble_rm_pencil(mesh, params, BcFamily.HARD_CLAMPED)
        sol = solve_rm_source(pen, np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes))

        tri = split_quads(mesh)
        bpen = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.CLAMPED)
        u = solve_biharmonic_source(bpen, 1.0)
        w_kl = vertex_values(tri, u)
        assert abs(sol.w.max() - w_kl.max()) / w_kl.max() < 0.05


def _same_csr(M, R):
    """Equal entry for entry, with the same sparsity."""
    return all(np.array_equal(getattr(M, attr), getattr(R, attr)) for attr in ("indptr", "indices", "data"))


def _pencil_mats(mesh, bc):
    pen = assemble_rm_pencil(mesh, PARAMS, bc)
    return pen.A, pen.B


def _unconstrained_parts(mesh):
    """Assembled (bending, shear, mass) over the unconstrained product space."""
    dofmap = rm_dofmap(mesh, BcFamily.FREE)
    return tuple(assemble_from_local(dofmap, block) for block in rm_local_matrices(mesh, PARAMS))
