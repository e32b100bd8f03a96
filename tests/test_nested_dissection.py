"""Plates are numbered in nested-dissection order when they are assembled;
strips and the 1-D limit keep the global order and the default LU.  No
result depends on that numbering: every vector crosses a pencil through
its dofmap."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from rmplates import (
    BcFamily,
    ConnectingSystem,
    LimitBc,
    MaterialParams,
    assemble_biharmonic_pencil,
    assemble_limit_pencil,
    assemble_rm_pencil,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    interpolate_pair,
    kernel_census,
    korn_constant,
    p2_interpolate,
    resolvent_gap,
    rigid_pair,
    solve_gep_smallest,
    solve_rm_source,
    split_quads,
    sweep_delta,
)
from rmplates import assemble, eigensolve
from rmplates.eigensolve import EigOptions
from rmplates.experiments import EXPECTED_KERNELS, SweepConfig, dirichlet_laplace_smallest
from rmplates.thin_limit import solve_limit_source
from rmplates.spaces import ND_LEAF, nested_dissection

PARAMS = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.05)


def same_csr(M, R):
    return all(np.array_equal(getattr(M, a), getattr(R, a)) for a in ("indptr", "indices", "data"))


def assembled_with_full_matrices(build):
    """The pencil `build()` returns, and the matrices over all dofs it was cut from."""
    full = []
    scatter = assemble.assemble_from_local

    def recorded(dofmap, blocks):
        full.append(scatter(dofmap, blocks))
        return full[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(assemble, "assemble_from_local", recorded)
        pen = build()
    return pen, full[0]


class TestPlatePencils:
    @settings(max_examples=4, deadline=None)
    @given(n=st.integers(4, 24))
    def test_nested_dissection_pencil_is_the_natural_one_permuted(self, n):
        mesh = build_rect_mesh(1.0, 1.0, n, n)
        tri = split_quads(mesh)
        builds = {bc.value: (lambda bc=bc: assemble_rm_pencil(mesh, PARAMS, bc)) for bc in BcFamily}
        for bc in LimitBc:
            builds[f"morley {bc.value}"] = lambda bc=bc: assemble_biharmonic_pencil(tri, 1.0, 0.3, bc)
        for what, build in builds.items():
            pen, (A_full, B_full) = assembled_with_full_matrices(build)
            free = pen.dofmap.free
            natural = np.setdiff1d(np.arange(pen.dofmap.n_dofs), pen.dofmap.constrained)
            assert eigensolve.ordering(pen.A) == "nested_dissection", what
            assert np.array_equal(np.sort(free), natural), what
            assert not np.array_equal(free, natural), what
            # the natural pencil, then permuted to the pencil's rows
            pos = np.searchsorted(natural, free)
            for M, full in ((pen.A, A_full), (pen.B, B_full)):
                N = full[natural][:, natural]
                P = N[pos][:, pos]
                P.sort_indices()
                assert same_csr(M, P), what
                assert (M - M.T).nnz == 0, what
            assert pen.B_full is B_full, what
            np.linalg.cholesky(pen.A.toarray())


def test_strip_keeps_global_order_and_default_lu():
    spec = constant_profile_spec(0.0, 1.0, 0.5, 0.1)
    pen = assemble_rm_pencil(build_thin_mesh(spec, 96, 6), PARAMS, BcFamily.FREE)
    assert np.array_equal(pen.dofmap.free, np.arange(pen.dofmap.n_dofs))
    assert pen.B is pen.B_full
    assert eigensolve.factorize(pen.A).ordering == "COLAMD"


def test_every_plate_factor_fills_like_nested_dissection(monkeypatch):
    # every matrix the package factors on 32^2 plates, from the eigensolver,
    # the source solve, the kernel census, Korn and the Dirichlet Laplacian,
    # fills at most 1.1x what a minimum-degree ordering of it would
    factored = []
    factorize = eigensolve.factorize

    def recorded(M):
        factor = factorize(M)
        factored.append((M, factor))
        return factor

    monkeypatch.setattr(eigensolve, "factorize", recorded)
    monkeypatch.setattr(assemble, "factorize", recorded)
    mesh = build_rect_mesh(1.0, 1.0, 32, 32)
    for bc in (BcFamily.HARD_CLAMPED, BcFamily.FREE):
        pen = assemble_rm_pencil(mesh, PARAMS, bc)
        solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
    pair = rigid_pair(mesh, (0.3, -0.2), 0.5)
    solve_rm_source(pen, pair.beta, pair.w)
    pen = assemble_biharmonic_pencil(split_quads(mesh), 1.0, 0.3, LimitBc.CLAMPED)
    solve_gep_smallest(pen.A, pen.B, EigOptions(k=4))
    kernel_census(PARAMS, mesh)
    korn_constant(mesh)
    dirichlet_laplace_smallest(mesh)
    assert len(factored) == 14  # 2 RM, 1 source, 1 Morley, 8 census, Korn, Dirichlet
    for M, factor in factored:
        assert factor.ordering == "nested_dissection"
        symmetric = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
        mmd = spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", **symmetric)
        assert factor.lu_fill <= 1.1 * mmd.nnz, (M.shape, factor.lu_fill, mmd.nnz)


@pytest.mark.parametrize("nx,ny,max_fill", [(32, 8, 32_000), (16, 4, 6_500)])
def test_korn_numbering_and_lu_mode_agree(monkeypatch, nx, ny, max_fill):
    # the Korn pencil is numbered by nested dissection exactly when the LU
    # of the matrix it factors runs in symmetric mode as numbered; a strip
    # numbered globally but factored so fills 213,966 on 32x8 and 20,094 on 16x4
    dissections, factors = [], []
    dissect, factorize = assemble.nested_dissection, eigensolve.factorize

    def dissected(*args):
        dissections.append(dissect(*args))
        return dissections[-1]

    def factored(M):
        factors.append(factorize(M))
        return factors[-1]

    monkeypatch.setattr(assemble, "nested_dissection", dissected)
    monkeypatch.setattr(eigensolve, "factorize", factored)
    korn_constant(build_thin_mesh(constant_profile_spec(0.0, 1.0, 0.5, 0.4), nx, ny))
    (factor,) = factors
    numbered = len(dissections) == 1
    assert numbered == (factor.ordering == "nested_dissection")
    assert factor.lu_fill <= max_fill


class TestNestedDissection:
    def test_grid_separator_is_numbered_last(self):
        # on an 9 x 5 node grid the first cut is the middle node column,
        # and the dofs of a node stay together
        mesh = build_rect_mesh(2.0, 1.0, 8, 4)
        points = np.concatenate([mesh.nodes, mesh.nodes])
        order = nested_dissection(points, mesh.nodes)
        assert np.array_equal(np.sort(order), np.arange(len(points)))
        last = order[-10:]
        assert np.all(points[last, 0] == 1.0)
        assert np.array_equal(last[::2] + mesh.n_nodes, last[1::2])

    def test_small_part_keeps_its_order(self):
        mesh = build_rect_mesh(1.0, 1.0, 3, 2)
        assert mesh.n_nodes <= ND_LEAF
        assert np.array_equal(nested_dissection(mesh.nodes, mesh.nodes), np.arange(mesh.n_nodes))


def numbering_dependent_outputs():
    """The delta-sweep's gaps and angles, a resolvent gap and its limit
    source solution, a constrained plate's source solution and the kernel
    census: every output that maps vectors between a pencil and the mesh."""
    cfg = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=16, mesh_ny=2)
    rep = sweep_delta(cfg)
    out = {
        f"{level} {key}": np.array([p[key] for p in rep[level]], dtype=float).ravel()
        for level in ("points", "points_control")
        for key in ("resolvent_gap", "eig_gap_sums", "max_angles")
    }
    interval, spec = build_interval_mesh(0.0, 1.0, 16), cfg.spec_at(0.2)
    system = ConnectingSystem(build_thin_mesh(spec, 16, 2), interval, spec)
    F0, f0 = p2_interpolate(interval, lambda x: x * (1 - x)), p2_interpolate(interval, lambda x: np.sin(np.pi * x))
    out["resolvent_gap"] = np.array([resolvent_gap(system, cfg.params, F0, f0)])
    out["limit source"] = np.concatenate(solve_limit_source(assemble_limit_pencil(interval, spec, cfg.params), F0, f0))
    mesh = build_rect_mesh(1.0, 1.0, 8, 8)
    data = interpolate_pair(mesh, lambda x: np.cos(3 * x), lambda x: np.sin(np.pi * x[:, 0]) * x[:, 1])
    pencil = assemble_rm_pencil(mesh, PARAMS, BcFamily.SOFT_SIMPLY_SUPPORTED)
    out["plate source"] = solve_rm_source(pencil, data.beta, data.w).concat()
    out["census"] = np.array([kernel_census(PARAMS, mesh)[bc.value] for bc in BcFamily], dtype=float)
    return out


def test_outputs_do_not_depend_on_the_pencil_numbering(monkeypatch):
    # number every pencil, strips and the 1-D limit too, by a seeded random
    # permutation through the seam assembly chooses its numbering at
    expected = numbering_dependent_outputs()
    rng = np.random.default_rng(5)
    monkeypatch.setattr(assemble, "ordering", lambda A: "nested_dissection")
    monkeypatch.setattr(assemble, "nested_dissection", lambda points, nodes: rng.permutation(len(points)))
    got = numbering_dependent_outputs()
    for name, want in expected.items():
        if name.endswith("source"):  # coefficient vectors, compared in norm
            assert np.linalg.norm(got[name] - want) <= 1e-8 * np.linalg.norm(want), name
        else:
            np.testing.assert_allclose(got[name], want, rtol=1e-8, atol=0, err_msg=name)
    assert got["census"].tolist() == [EXPECTED_KERNELS[bc] for bc in BcFamily]
