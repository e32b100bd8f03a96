import numpy as np
import pytest
from numpy.testing import assert_allclose

from rmplates import (
    BcFamily,
    LimitBc,
    assemble_biharmonic_pencil,
    build_rect_mesh,
    map_limit_bc,
    split_quads,
)
from rmplates.eigensolve import EigOptions, solve_gep_smallest, sparse_solve
from rmplates.errors import UnsupportedLimitError
from rmplates.experiments import EXPECTED_KERNELS, _morley_eigenvalues, _richardson
from rmplates.rm_system import FAMILIES, at_one
from test_fem_core import morley_interpolate

#: clamped-plate reference; the Richardson oracle below reproduces it
CLAMPED_SQUARE_BIHARMONIC_EIG = 1294.934


class TestLimitMap:
    @pytest.mark.parametrize(
        "bc,limit",
        [
            (BcFamily.HARD_CLAMPED, LimitBc.CLAMPED),
            (BcFamily.SOFT_CLAMPED, LimitBc.CLAMPED),
            (BcFamily.HARD_SIMPLY_SUPPORTED, LimitBc.NAVIER),
            (BcFamily.SOFT_SIMPLY_SUPPORTED, LimitBc.NAVIER),
            (BcFamily.SOFT_RIGID, LimitBc.INTERMEDIATE),
            (BcFamily.FREE, LimitBc.FREE),
        ],
    )
    def test_supported_families(self, bc, limit):
        assert map_limit_bc(bc) == limit

    @pytest.mark.parametrize("bc", [BcFamily.HARD_RIGID, BcFamily.WEAK_NEUMANN])
    def test_nonstandard_families_rejected(self, bc):
        with pytest.raises(UnsupportedLimitError):
            map_limit_bc(bc)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("bc", [bc for bc in BcFamily if FAMILIES[bc].limit is not None], ids=lambda bc: bc.value)
    def test_limit_shares_the_family_kernel(self, bc, n):
        # a family's row pairs its kernel with its limit: the Morley pencil of
        # the limit has exactly that many eigenvalues at 1
        pen = assemble_biharmonic_pencil(split_quads(build_rect_mesh(1, 1, n, n)), 1.0, 0.3, map_limit_bc(bc))
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=6))
        assert np.sum(at_one(res.eigenvalues)) == EXPECTED_KERNELS[bc]


class TestInput:
    @pytest.mark.parametrize("E", [0.0, -1.0, np.nan, np.inf])
    def test_modulus_must_be_finite_and_positive(self, E):
        tri = split_quads(build_rect_mesh(1, 1, 2, 2))
        with pytest.raises(ValueError, match="finite and positive"):
            assemble_biharmonic_pencil(tri, E, 0.3, LimitBc.CLAMPED)


class TestFreeKernel:
    @pytest.mark.parametrize("n", [3, 5])
    def test_exactly_three_unit_eigenvalues(self, n):
        tri = split_quads(build_rect_mesh(1, 1, n, n))
        pen = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.FREE)
        res = solve_gep_smallest(pen.A, pen.B, EigOptions(k=5))
        assert np.sum(np.abs(res.eigenvalues - 1.0) <= 1e-8) == 3

    def test_constant_is_unit_eigenvector(self):
        tri = split_quads(build_rect_mesh(1, 1, 4, 4))
        pen = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.FREE)
        u = pen.dofmap.restrict(morley_interpolate(tri, lambda x: np.ones(len(x)), lambda m: np.zeros_like(m)))
        r = pen.A @ u - pen.B @ u
        assert np.abs(r).max() < 1e-12

    def test_affine_is_unit_eigenvector(self):
        tri = split_quads(build_rect_mesh(1, 1, 4, 4))
        pen = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.FREE)
        u = morley_interpolate(
            tri, lambda x: x[:, 0], lambda m: np.column_stack([np.ones(len(m)), np.zeros(len(m))])
        )
        u = pen.dofmap.restrict(u)
        r = pen.A @ u - pen.B @ u
        assert np.abs(r).max() < 1e-12


class TestClampedEigenvalue:
    def test_richardson_limit(self):
        # E = 12(1 - sigma^2) makes the bending prefactor 1, so the shifted
        # eigenvalue approaches the clamped-plate value + 1; the oracle is
        # Richardson extrapolation over the refinement ladder, the
        # literature value is only a sanity cross-check
        sigma = 0.3
        E = 12.0 * (1.0 - sigma**2)
        vals = {}
        for n in (8, 16, 32, 64):
            tri = split_quads(build_rect_mesh(1, 1, n, n))
            pen = assemble_biharmonic_pencil(tri, E, sigma, LimitBc.CLAMPED)
            vals[n] = solve_gep_smallest(pen.A, pen.B, EigOptions(k=1)).eigenvalues[0]
        gaps = [vals[16] - vals[8], vals[32] - vals[16], vals[64] - vals[32]]
        # nonconforming approximation climbs toward the limit, and the O(h^2)
        # gaps shrink by at least a factor 2 per refinement
        assert all(g > 0 for g in gaps)
        assert gaps[1] <= gaps[0] / 2 and gaps[2] <= gaps[1] / 2
        richardson = vals[64] + (vals[64] - vals[32]) / 3.0
        assert abs(richardson - (CLAMPED_SQUARE_BIHARMONIC_EIG + 1.0)) / richardson < 2e-3


class TestSeparableClosedForms:
    """Navier and intermediate families against exact square eigenvalues.

    sin x sin y modes satisfy the hinged conditions and cos x cos y modes the
    zero-normal-derivative condition exactly, and for both |D^2 u|^2 and
    (Lap u)^2 integrate to the same value, so the eigenvalues are
    pi^4 (m^2 + n^2)^2 regardless of sigma (plus the unit shift).
    """

    def _ladder(self, bc, levels, k):
        sigma = 0.3
        E = 12.0 * (1.0 - sigma**2)
        out = {}
        for n in levels:
            tri = split_quads(build_rect_mesh(1, 1, n, n))
            pen = assemble_biharmonic_pencil(tri, E, sigma, bc)
            out[n] = solve_gep_smallest(pen.A, pen.B, EigOptions(k=k, tol=1e-7)).eigenvalues
        coarse, fine = (out[n] for n in levels)
        return fine + (fine - coarse) / 3.0

    def test_navier_square(self):
        exact = np.sort([np.pi**4 * (m * m + n * n) ** 2 for m in range(1, 4) for n in range(1, 4)])[:4] + 1.0
        richardson = self._ladder(LimitBc.NAVIER, (32, 64), 4)
        assert_allclose(richardson, exact, rtol=2e-3)

    def test_intermediate_square(self):
        exact = np.sort([np.pi**4 * (m * m + n * n) ** 2 for m in range(0, 4) for n in range(0, 4)])[:4] + 1.0
        richardson = self._ladder(LimitBc.INTERMEDIATE, (16, 32), 4)
        assert_allclose(richardson, exact, rtol=5e-3)


def solve_constant_load(pen, f):
    """Full Morley solution of A u = (f, phi_i) for a constant f.  The Morley
    interpolant of 1 is 1 at the vertices and 0 on the edges, and the mass
    integrates (1, phi_i) exactly, so the load is B_full times that vector."""
    one = np.zeros(pen.dofmap.n_dofs)
    one[: pen.mesh.n_nodes] = f
    return pen.dofmap.expand(sparse_solve(pen.A, pen.dofmap.restrict(pen.B_full @ one), pen.factor))


class TestSourceSolve:
    def test_zero_load(self):
        tri = split_quads(build_rect_mesh(1, 1, 3, 3))
        pen = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.CLAMPED)
        assert np.abs(solve_constant_load(pen, 0.0)).max() == 0.0

    def test_free_constant_identity(self):
        tri = split_quads(build_rect_mesh(1, 1, 4, 4))
        pen = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.FREE)
        u = solve_constant_load(pen, 1.0)
        assert_allclose(u[: tri.n_nodes], np.ones(tri.n_nodes), atol=1e-10)
        assert np.abs(u[tri.n_nodes :]).max() < 1e-10

    def test_clamped_deflection_richardson(self):
        # max deflection of (prefactor 1) clamped plate under unit load,
        # with the +u shift; Richardson across refinements is the oracle
        sigma = 0.3
        E = 12.0 * (1.0 - sigma**2)
        peaks = {}
        for n in (8, 16, 32):
            tri = split_quads(build_rect_mesh(1, 1, n, n))
            pen = assemble_biharmonic_pencil(tri, E, sigma, LimitBc.CLAMPED)
            peaks[n] = solve_constant_load(pen, 1.0)[: tri.n_nodes].max()
        rich_16 = peaks[16] + (peaks[16] - peaks[8]) / 3.0
        rich_32 = peaks[32] + (peaks[32] - peaks[16]) / 3.0
        # two extrapolations agree and sit near the classical 1.265e-3 value
        assert abs(rich_32 - rich_16) / rich_32 < 5e-3
        assert abs(rich_32 - 1.265e-3) / 1.265e-3 < 5e-3

    def test_galerkin_symmetry(self):
        tri = split_quads(build_rect_mesh(1, 1, 4, 3))
        pen = assemble_biharmonic_pencil(tri, 2.0, -0.2, LimitBc.NAVIER)
        assert (pen.A - pen.A.T).nnz == 0


class TestLimitOfEveryFamily:
    @pytest.mark.parametrize(
        "bc,start",
        [
            (BcFamily.HARD_CLAMPED, 0),
            (BcFamily.SOFT_CLAMPED, 0),
            (BcFamily.HARD_SIMPLY_SUPPORTED, 0),
            (BcFamily.SOFT_SIMPLY_SUPPORTED, 0),
            (BcFamily.SOFT_RIGID, 1),
            (BcFamily.FREE, 3),
        ],
    )
    def test_plate_eigenvalues_approach_mapped_limit(self, bc, start):
        # every supported family converges to its own limit family; `start`
        # skips the exact unit kernel on both sides.  Hard and soft variants
        # land on the same reference, which is the content of the mapping.
        from rmplates import MaterialParams, assemble_rm_pencil, build_rect_mesh

        n = 32
        mesh = build_rect_mesh(1, 1, n, n)
        base = MaterialParams(E=1.0, sigma=0.3)
        lam = [_morley_eigenvalues(level, base, map_limit_bc(bc), start + 1) for level in (n // 2, n)]
        ref = _richardson(*lam)[start]
        gaps = []
        for t in (0.2, 0.1, 0.05, 0.025):
            pen = assemble_rm_pencil(mesh, MaterialParams(E=1.0, sigma=0.3, t=t), bc)
            lam = solve_gep_smallest(pen.A, pen.B, EigOptions(k=start + 1, tol=1e-8)).eigenvalues
            gaps.append(abs(lam[start] - ref) / abs(ref))
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] <= 0.03


class TestEssentialSelection:
    def test_clamped_constrains_everything_on_boundary(self):
        tri = split_quads(build_rect_mesh(1, 1, 3, 3))
        pen = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.CLAMPED)
        boundary_nodes = set(tri.facets.nodes.ravel().tolist())
        n_boundary_edges = len(tri.facets)
        assert len(pen.dofmap.constrained) == len(boundary_nodes) + n_boundary_edges

    def test_navier_and_intermediate_split(self):
        tri = split_quads(build_rect_mesh(1, 1, 3, 3))
        nav = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.NAVIER)
        mid = assemble_biharmonic_pencil(tri, 1.0, 0.3, LimitBc.INTERMEDIATE)
        boundary_nodes = set(tri.facets.nodes.ravel().tolist())
        assert len(nav.dofmap.constrained) == len(boundary_nodes)
        assert len(mid.dofmap.constrained) == len(tri.facets)
        assert np.all(mid.dofmap.constrained >= tri.n_nodes)
