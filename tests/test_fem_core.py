import io
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rmplates import (
    MORLEY,
    P2_1D,
    Q1_SCALAR,
    Q1_VECTOR2,
    BcFamily,
    ElementKind,
    LimitBc,
    MaterialParams,
    Mesh,
    PiecewiseLinear,
    ThinDomainSpec,
    assemble_biharmonic_pencil,
    assemble_from_local,
    assemble_limit_pencil,
    assemble_rm_pencil,
    build_dofmap,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    element_batch,
    kernel_census,
    korn_constant,
    mass_density,
    mesh_from_dict,
    mesh_to_dict,
    rm_dofmap,
    split_quads,
    stiffness_density,
)
from rmplates.assemble import assemble_load_from_local, default_rule, strain_blocks
from rmplates.errors import UnsupportedConfigurationError
from rmplates.experiments import SweepConfig, dirichlet_laplace_smallest, sweep_delta
from rmplates.geometry import Facets


def scatter(dofmap, local):
    """`assemble_from_local` of one whole stack of local matrices."""
    return assemble_from_local(dofmap, lambda cells: (local[cells],))
from rmplates.quadrature import (
    QuadratureRule,
    quad_rule,
    segment_rule,
    shear_rule_x,
    triangle_rule,
)
from rmplates.spaces import edge_normal, edge_table


class TestQuadrature:
    @pytest.mark.parametrize(
        "rule,measure",
        [
            (segment_rule(2), 1.0),
            (segment_rule(3), 1.0),
            (quad_rule(2), 4.0),
            (quad_rule(3), 4.0),
            (quad_rule(1), 4.0),
            (shear_rule_x(), 4.0),
            (triangle_rule(), 0.5),
            (default_rule(MORLEY), 0.5),
        ],
    )
    def test_weights_sum_to_measure(self, rule, measure):
        assert abs(rule.weights.sum() - measure) < 1e-14
        assert np.all(rule.weights > 0)

    def test_triangle_rule_degree(self):
        # exact on x^a y^b up to the stated degree
        from math import factorial

        rule = triangle_rule()
        for a, b in [(0, 0), (1, 0), (2, 1), (2, 2), (4, 0)]:
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert_allclose(got, exact, rtol=1e-13)


class TestDofMaps:
    def test_dirichlet_scalar_counts(self):
        dm = build_dofmap(build_rect_mesh(1, 1, 2, 2), Q1_SCALAR, True)
        assert dm.n_dofs == 9 and len(dm.constrained) == 8

    def test_normal_trace_constrains_normal_component(self):
        mesh = build_rect_mesh(2, 1, 4, 3)
        normal_axis = np.argmax(np.abs(mesh.facets.normal), axis=1)
        dm = build_dofmap(mesh, Q1_VECTOR2, normal_axis[:, None] == np.arange(2))
        nv = mesh.n_nodes
        constrained = set(dm.constrained)
        axis_of = {}
        for nodes, axis in zip(mesh.facets.nodes.tolist(), normal_axis.tolist()):
            for node in nodes:
                axis_of.setdefault(node, set()).add(axis)
        corner = {n for n, axes in axis_of.items() if len(axes) > 1}
        for nodes, comp in zip(mesh.facets.nodes.tolist(), normal_axis.tolist()):
            for node in nodes:
                assert comp * nv + node in constrained
                # away from corners, the tangential component stays free
                if node not in corner:
                    assert (1 - comp) * nv + node not in constrained

    def test_bad_density_reports_element(self):
        from rmplates.errors import AssemblyError

        mesh = build_rect_mesh(1, 1, 3, 3)
        dm = build_dofmap(mesh, Q1_SCALAR)

        loc = mass_density(element_batch(mesh, Q1_SCALAR))
        loc[5] = np.nan

        with pytest.raises(AssemblyError) as err:
            scatter(dm, loc)
        assert err.value.element == 5

    def test_assembly_deterministic(self):
        mesh = build_rect_mesh(1.1, 0.9, 6, 5)
        dm = build_dofmap(mesh, Q1_SCALAR)
        a = scatter(dm, stiffness_density(element_batch(mesh, Q1_SCALAR))).toarray()
        b = scatter(dm, stiffness_density(element_batch(mesh, Q1_SCALAR))).toarray()
        assert np.array_equal(a, b)

    def test_no_essential_means_empty(self):
        dm = build_dofmap(build_rect_mesh(1, 1, 3, 3), Q1_VECTOR2)
        assert len(dm.constrained) == 0

    def test_incompatible_space_rejected(self):
        with pytest.raises(ValueError):
            build_dofmap(build_interval_mesh(0, 1, 2), Q1_SCALAR)

    def test_free_dofs_computed_once_and_read_only(self):
        dm = build_dofmap(build_rect_mesh(1, 1, 3, 3), Q1_SCALAR, True)
        assert dm.free is dm.free
        assert_allclose(dm.free, [5, 6, 9, 10])
        with pytest.raises(ValueError):
            dm.free[0] = 0

    @pytest.mark.parametrize("nx, ny", [(1, 1), (2, 3), (5, 5), (8, 2)])
    def test_edge_table_matches_loop(self, nx, ny):
        tri = split_quads(build_rect_mesh(1.0, 0.7, nx, ny))
        # reference: first-appearance numbering over the local edges (0,1), (1,2), (2,0)
        pairs = {}
        for elem in tri.elements:
            for a, b in [(0, 1), (1, 2), (2, 0)]:
                pairs.setdefault((min(elem[a], elem[b]), max(elem[a], elem[b])), len(pairs))
        opposite = [[pairs[tuple(sorted((el[a], el[b])))] for a, b in [(1, 2), (2, 0), (0, 1)]] for el in tri.elements]
        edges, ids = edge_table(tri)
        np.testing.assert_array_equal(edges, np.array(list(pairs), dtype=np.int64))
        np.testing.assert_array_equal(ids, opposite)
        np.testing.assert_array_equal(build_dofmap(tri, MORLEY).element_to_global[:, 3:], tri.n_nodes + ids)

    @pytest.mark.parametrize("essential", [lambda tag, comp, normal: True, None, 1, "yes", [0, 1]])
    def test_non_bool_mask_rejected(self, essential):
        # np.asarray(predicate, dtype=bool) is True, so a predicate taken as
        # a mask would clamp every facet
        with pytest.raises(TypeError):
            build_dofmap(build_rect_mesh(1, 1, 2, 2), Q1_SCALAR, essential)

    def test_morley_dof_count(self):
        tri = split_quads(build_rect_mesh(1, 1, 2, 2))
        dm = build_dofmap(tri, MORLEY)
        n_edges = dm.n_dofs - tri.n_nodes
        # Euler: 9 vertices, 8 triangles, edges = 9 + 8 - 1 = 16
        assert n_edges == 16


# the essential traces of each family, as the paper lists them: rotation
# trace, and whether w is pinned; Morley vertex values and edge normal derivatives
RM_TRACES = {
    BcFamily.HARD_CLAMPED: ("full", True),
    BcFamily.SOFT_CLAMPED: ("normal", True),
    BcFamily.HARD_SIMPLY_SUPPORTED: ("tangential", True),
    BcFamily.SOFT_SIMPLY_SUPPORTED: (None, True),
    BcFamily.FREE: (None, False),
    BcFamily.HARD_RIGID: ("full", False),
    BcFamily.SOFT_RIGID: ("normal", False),
    BcFamily.WEAK_NEUMANN: ("tangential", False),
}
MORLEY_DOFS = {
    LimitBc.CLAMPED: (True, True),
    LimitBc.NAVIER: (True, False),
    LimitBc.INTERMEDIATE: (False, True),
    LimitBc.FREE: (False, False),
}


def sloped_spec(delta):
    return ThinDomainSpec(
        (0.0, 1.0), PiecewiseLinear.constant(0.5, 0, 1), PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, 1.0])), delta
    )


def constrained_or_unsupported(fn):
    try:
        return sorted(fn())
    except UnsupportedConfigurationError:
        return "unsupported"


def reference_rm_constrained(mesh, bc):
    """Facet by facet: rotation components of the trace, then w."""
    trace, pinned = RM_TRACES[bc]
    nv = mesh.n_nodes
    out = set()
    for nodes, normal in zip(mesh.facets.nodes.tolist(), mesh.facets.normal):
        axis = int(np.argmax(np.abs(normal)))
        if trace in ("normal", "tangential") and abs(abs(normal[axis]) - 1.0) > 1e-9:
            raise UnsupportedConfigurationError(f"normal {normal}")
        for comp in {"full": (0, 1), "normal": (axis,), "tangential": (1 - axis,), None: ()}[trace]:
            out.update(comp * nv + n for n in nodes)
        if pinned:
            out.update(2 * nv + n for n in nodes)
    return out


def reference_morley_constrained(mesh, bc):
    """Facet by facet: its vertices, then the dof of the edge it lies on."""
    vertex, edge = MORLEY_DOFS[bc]
    edges, _ = edge_table(mesh)
    edge_id = {pair: i for i, pair in enumerate(map(tuple, edges.tolist()))}
    out = set()
    for nodes in mesh.facets.nodes.tolist():
        if vertex:
            out.update(nodes)
        if edge:
            out.add(mesh.n_nodes + edge_id[tuple(sorted(nodes))])
    return out


QUAD_MESHES = {
    "rect": lambda: build_rect_mesh(2.0, 1.0, 4, 3),
    "thin": lambda: build_thin_mesh(constant_profile_spec(0, 1, 0.5, 0.2), 6, 2),
    "sloped": lambda: build_thin_mesh(sloped_spec(0.2), 5, 3),
}


class TestEssentialMasksMatchFacetLoop:
    @pytest.mark.parametrize("mesh_name", sorted(QUAD_MESHES))
    @pytest.mark.parametrize("bc", list(BcFamily), ids=lambda bc: bc.value)
    def test_rm_families(self, mesh_name, bc):
        mesh = QUAD_MESHES[mesh_name]()
        expected = constrained_or_unsupported(lambda: reference_rm_constrained(mesh, bc))
        assert constrained_or_unsupported(lambda: rm_dofmap(mesh, bc).constrained.tolist()) == expected

    @pytest.mark.parametrize("mesh_name", sorted(QUAD_MESHES))
    @pytest.mark.parametrize("bc", list(LimitBc), ids=lambda bc: bc.value)
    def test_limit_families_on_split_meshes(self, mesh_name, bc):
        tri = split_quads(QUAD_MESHES[mesh_name]())
        got = assemble_biharmonic_pencil(tri, 1.0, 0.3, bc).dofmap.constrained
        assert got.tolist() == sorted(reference_morley_constrained(tri, bc))


class TestAssembly:
    def test_mass_partition_of_unity(self):
        mesh = build_rect_mesh(1, 1, 3, 3)
        dm = build_dofmap(mesh, Q1_SCALAR)
        batch = element_batch(mesh, Q1_SCALAR)
        M = scatter(dm, mass_density(batch))
        row_sums = np.asarray(M.sum(axis=1)).ravel()
        load = assemble_load_from_local(dm, np.einsum("eq,eqi->ei", batch.w, batch.phi))
        assert_allclose(row_sums, load, atol=1e-14)
        assert_allclose(M.sum(), 1.0, atol=1e-12)

    def test_stiffness_kills_constants(self):
        mesh = build_rect_mesh(1, 1, 4, 3)
        dm = build_dofmap(mesh, Q1_SCALAR)
        K = scatter(dm, stiffness_density(element_batch(mesh, Q1_SCALAR)))
        assert np.abs(K @ np.ones(dm.n_dofs)).max() < 1e-12

    def test_scatters_ignore_constraints(self):
        # a constrained dofmap scatters over all of its dofs, the same as an
        # unconstrained one: boundary conditions reach a pencil only by
        # restriction to the free dofs
        mesh = build_rect_mesh(1, 1, 3, 2)
        clamped, unconstrained = build_dofmap(mesh, Q1_SCALAR, True), build_dofmap(mesh, Q1_SCALAR)
        batch = element_batch(mesh, Q1_SCALAR)
        local_load = np.einsum("eq,eqi->ei", batch.w, batch.phi)
        M = scatter(clamped, mass_density(batch))
        load = assemble_load_from_local(clamped, local_load)
        assert len(clamped.free) < clamped.n_dofs
        assert M.shape == (clamped.n_dofs, clamped.n_dofs) and load.shape == (clamped.n_dofs,)
        assert (M != scatter(unconstrained, mass_density(batch))).nnz == 0
        assert np.array_equal(load, assemble_load_from_local(unconstrained, local_load))

    def test_exact_symmetry(self):
        mesh = build_rect_mesh(1.3, 0.7, 5, 4)
        dm = build_dofmap(mesh, Q1_VECTOR2)
        for block in strain_blocks(element_batch(mesh, Q1_SCALAR)):
            K = scatter(dm, block)
            diff = K - K.T
            assert diff.nnz == 0

    def test_q1_closed_form_element_matrices(self):
        # one a x b rectangle against hand-derived element matrices; the
        # closed forms are stated for the ccw corner order, the mesh numbers
        # nodes row-major, so permute through the element connectivity
        a, b = 0.8, 0.5
        mesh = build_rect_mesh(a, b, 1, 1)
        dm = build_dofmap(mesh, Q1_SCALAR)
        perm = mesh.elements[0]  # local ccw -> global
        M_ccw = (a * b / 36.0) * np.array(
            [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
        )
        Kxx = np.array([[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]])
        Kyy = np.array([[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]])
        K_ccw = (b / a) * Kxx / 6.0 + (a / b) * Kyy / 6.0

        M_exact = np.empty((4, 4))
        K_exact = np.empty((4, 4))
        M_exact[np.ix_(perm, perm)] = M_ccw
        K_exact[np.ix_(perm, perm)] = K_ccw
        batch = element_batch(mesh, Q1_SCALAR)
        M = scatter(dm, mass_density(batch)).toarray()
        K = scatter(dm, stiffness_density(batch)).toarray()
        assert_allclose(M, M_exact, atol=1e-13)
        assert_allclose(K, K_exact, atol=1e-13)

    def test_p2_mass_total(self):
        mesh = build_interval_mesh(0, 2, 3)
        dm = build_dofmap(mesh, P2_1D)
        M = scatter(dm, mass_density(element_batch(mesh, P2_1D)))
        assert_allclose(M.sum(), 2.0, atol=1e-13)


def morley_interpolate(mesh, fn, grad_fn):
    """Morley interpolant, the oracle of the patch tests: vertex values of
    fn, edge-midpoint normal derivatives of grad_fn (with the global
    edge-normal convention)."""
    edges, _ = edge_table(mesh)
    mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    normals = edge_normal(mesh, edges[:, 0], edges[:, 1])
    return np.concatenate([np.asarray(fn(mesh.nodes)), np.sum(np.asarray(grad_fn(mids)) * normals, axis=1)])


def quadratic(x):
    return x[..., 0] ** 2 + 3 * x[..., 0] * x[..., 1] - 2 * x[..., 1] ** 2 + x[..., 0] - x[..., 1] + 1


def quadratic_grad(x):
    gx = 2 * x[..., 0] + 3 * x[..., 1] + 1
    gy = 3 * x[..., 0] - 4 * x[..., 1] - 1
    return np.stack([gx, gy], axis=-1)


class TestMorley:
    def test_interpolant_reproduces_quadratics(self):
        tri = split_quads(build_rect_mesh(1, 1, 3, 3))
        coeffs = morley_interpolate(tri, quadratic, quadratic_grad)
        batch = element_batch(tri, MORLEY, triangle_rule())
        loc = coeffs[build_dofmap(tri, MORLEY).element_to_global]
        vals = np.einsum("eqi,ei->eq", batch.phi, loc)
        assert_allclose(vals, quadratic(batch.x), atol=1e-11)
        grads = np.einsum("eqid,ei->eqd", batch.grad, loc)
        assert_allclose(grads, quadratic_grad(batch.x), atol=1e-10)

    def test_patch_test_on_irregular_triangles(self):
        # same quadratic reproduction on a trapezoid-profile mesh, where no
        # two triangles are congruent and edge normals are not axis-aligned
        from rmplates import PiecewiseLinear, ThinDomainSpec, build_thin_mesh, split_quads

        spec = ThinDomainSpec(
            (0.0, 1.0),
            PiecewiseLinear(np.array([0.0, 0.4, 1.0]), np.array([0.3, 0.55, 0.4])),
            PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, 1.0])),
            0.7,
        )
        tri = split_quads(build_thin_mesh(spec, 6, 3))
        coeffs = morley_interpolate(tri, quadratic, quadratic_grad)
        batch = element_batch(tri, MORLEY, triangle_rule())
        loc = coeffs[build_dofmap(tri, MORLEY).element_to_global]
        vals = np.einsum("eqi,ei->eq", batch.phi, loc)
        assert_allclose(vals, quadratic(batch.x), atol=1e-10)
        hess = np.einsum("eqiab,ei->eqab", batch.hess, loc)
        H = np.array([[2.0, 3.0], [3.0, -4.0]])
        assert_allclose(hess, np.broadcast_to(H, hess.shape), atol=1e-9)

    def test_patch_test_energy(self):
        # (1-s) D2u:D2v + s (Lap u)(Lap v) on the interpolant of a quadratic
        # equals the exact constant-density integral
        sigma = 0.3
        tri = split_quads(build_rect_mesh(1, 1, 4, 4))
        dm = build_dofmap(tri, MORLEY)
        coeffs = morley_interpolate(tri, quadratic, quadratic_grad)

        def density(batch):
            lap = batch.hess[..., 0, 0] + batch.hess[..., 1, 1]
            out = (1 - sigma) * np.einsum("eq,eqiab,eqjab->eij", batch.w, batch.hess, batch.hess)
            return out + sigma * np.einsum("eq,eqi,eqj->eij", batch.w, lap, lap)

        A = scatter(dm, density(element_batch(tri, MORLEY, triangle_rule())))
        got = coeffs @ (A @ coeffs)
        H = np.array([[2.0, 3.0], [3.0, -4.0]])
        exact = (1 - sigma) * np.sum(H * H) + sigma * np.trace(H) ** 2
        assert_allclose(got, exact, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        angle=st.floats(1e-3, np.pi - 1e-3),
        lengths=st.tuples(st.floats(1e-2, 10.0), st.floats(1e-2, 10.0)),
        turn=st.floats(0.0, 2 * np.pi),
        shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        mirror=st.booleans(),
        numbering=st.permutations([0, 1, 2]),
    )
    def test_basis_is_dual_to_the_dofs(self, angle, lengths, turn, shift, mirror, numbering):
        # one triangle, from needles and slivers to obtuse ones, either
        # orientation; the node numbering sets the global edge normals
        local = np.array([[0.0, 0.0], [lengths[0], 0.0], [lengths[1] * np.cos(angle), lengths[1] * np.sin(angle)]])
        if mirror:
            local[:, 1] *= -1
        rotation = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        nodes = np.empty((3, 2))
        nodes[numbering] = local @ rotation.T + shift
        facets = Facets(np.zeros((0, 2), np.int64), np.zeros(0, np.int64), np.zeros(0, str), np.zeros((0, 2)))
        tri = Mesh(2, ElementKind.TRI3, nodes, np.array([numbering]), facets)
        # points: the vertices, then the midpoints of the edges opposite vertices 0, 1, 2
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        batch = element_batch(tri, MORLEY, QuadratureRule(points, np.full(6, 1.0 / 12.0)))
        values = batch.phi[0, :3]  # [vertex j, shape i]
        ends = np.array([[1, 2], [2, 0], [0, 1]])
        normals = edge_normal(tri, np.array(numbering)[ends[:, 0]], np.array(numbering)[ends[:, 1]])
        slopes = np.einsum("jid,jd->ji", batch.grad[0, 3:], normals)  # [edge j, shape i]
        dual = np.hstack([np.eye(3), np.zeros((3, 3))])
        assert_allclose(values, dual, rtol=0, atol=1e-10 * np.abs(values).max())
        assert_allclose(slopes, np.roll(dual, 3, axis=1), rtol=0, atol=1e-10 * np.abs(slopes).max())

    @pytest.mark.parametrize("moved", ["midpoint", "infinite"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_degenerate_triangle_names_its_element(self, moved):
        # triangle 7 of the split 3x3 square loses its area: its third
        # vertex goes to the midpoint of the other two, or to infinity
        from rmplates.errors import AssemblyError

        data = mesh_to_dict(split_quads(build_rect_mesh(1, 1, 3, 3)))
        nodes = np.array(data["nodes"])
        a, b, c = data["elements"][7]
        nodes[c] = 0.5 * (nodes[a] + nodes[b]) if moved == "midpoint" else np.inf
        tri = mesh_from_dict(dict(data, nodes=nodes.tolist()))
        with pytest.raises(AssemblyError) as err:
            assemble_biharmonic_pencil(tri, 1.0, 0.3, "clamped")
        assert err.value.element == 7


class TestMatrixMarket:
    def test_export_round_trip(self, tmp_path):
        # symmetric storage keeps only one triangle, so the round trip is
        # exact only because the assembled matrix is exactly symmetric
        import scipy.io

        mesh = build_rect_mesh(1, 1, 3, 2)
        dm = build_dofmap(mesh, Q1_SCALAR)
        M = scatter(dm, mass_density(element_batch(mesh, Q1_SCALAR)))
        path = tmp_path / "mass.mtx"
        scipy.io.mmwrite(path, M, symmetry="symmetric")
        header = path.read_text().splitlines()[0]
        assert "symmetric" in header
        back = scipy.io.mmread(path).toarray()
        assert_allclose(back, M.toarray(), atol=1e-15)


def assert_canonical_symmetric(M):
    """Canonical CSR (sorted, duplicate-free rows without explicit zeros)
    that equals its transpose entry for entry."""
    assert isinstance(M, sp.csr_matrix)
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    assert np.all(np.diff(rows * M.shape[1] + M.indices) > 0)
    assert np.all(M.data != 0)
    assert (M - M.T).nnz == 0


class TestAssembledMatrices:
    """Every assembler returns canonical, exactly symmetric CSR."""

    @settings(max_examples=8, deadline=None)
    @given(nx=st.integers(2, 6), ny=st.integers(2, 6))
    def test_rm_pencils(self, nx, ny):
        mesh = build_rect_mesh(1.0, 0.8, nx, ny)
        params = MaterialParams(E=1.0, sigma=0.3, t=0.05)
        for bc in BcFamily:
            pencil = assemble_rm_pencil(mesh, params, bc)
            for M in (pencil.A, pencil.B, pencil.B_full):
                assert_canonical_symmetric(M)

    @settings(max_examples=6, deadline=None)
    @given(nx=st.integers(2, 5), ny=st.integers(2, 5))
    def test_morley_pencils(self, nx, ny):
        tri = split_quads(build_rect_mesh(1.0, 0.8, nx, ny))
        for bc in LimitBc:
            pencil = assemble_biharmonic_pencil(tri, 1.0, 0.3, bc)
            assert_canonical_symmetric(pencil.A)
            assert_canonical_symmetric(pencil.B)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 24))
    def test_limit_pencil(self, n):
        spec = constant_profile_spec(0.0, 1.0, 0.5, 0.1)
        pencil = assemble_limit_pencil(build_interval_mesh(0.0, 1.0, n), spec, MaterialParams(E=1.0, sigma=0.3))
        assert_canonical_symmetric(pencil.A)
        assert_canonical_symmetric(pencil.B)

    @settings(max_examples=10, deadline=None)
    @given(nx=st.integers(2, 8), ny=st.integers(2, 8))
    def test_korn_and_laplace_assembly(self, nx, ny):
        # the operators behind korn_constant (unconstrained vector field)
        # and dirichlet_laplace_smallest (clamped scalar field)
        mesh = build_rect_mesh(1.0, 0.3, nx, ny)
        vector = build_dofmap(mesh, Q1_VECTOR2)
        scalar = build_dofmap(mesh, Q1_SCALAR, True)
        batch = element_batch(mesh, Q1_SCALAR)
        for block in strain_blocks(batch):
            assert_canonical_symmetric(scatter(vector, block))
        for density in (stiffness_density, mass_density):
            assert_canonical_symmetric(scatter(scalar, density(batch)))


class TestOneBatchPerRule:
    """Every assembler tabulates each chunk of its mesh (here the whole
    mesh) once, at the points of all of its quadrature rules, and derives
    all of its local blocks from that batch; it scatters all of its
    matrices in one `assemble_from_local` call, which lays out their rows
    once."""

    @pytest.mark.parametrize(
        "build,tabulations,scatters,scatter_calls",
        [
            (lambda: assemble_biharmonic_pencil(split_quads(build_rect_mesh(1, 1, 3, 3)), 1.0, 0.3, LimitBc.CLAMPED), 1, 2, 1),
            # full 2x2 Gauss plus the two midline shear rules, in one batch
            (lambda: assemble_rm_pencil(build_rect_mesh(1, 1, 3, 3), MaterialParams(E=1.0, sigma=0.3), BcFamily.HARD_CLAMPED), 1, 2, 1),
            (lambda: korn_constant(build_rect_mesh(1, 1, 4, 4)), 1, 2, 1),
            (lambda: dirichlet_laplace_smallest(build_rect_mesh(1, 1, 4, 4)), 1, 2, 1),
            # one free pencil for all eight families, each a restriction of it
            (lambda: kernel_census(MaterialParams(E=1.0, sigma=0.3), build_rect_mesh(1, 1, 4, 4)), 1, 2, 1),
            # per level, one limit pencil (1 tabulation, 2 scatters) and per
            # delta a thin pencil (1, 2), the connecting system's two rules
            # and the resolvent load's rule: 2 levels x (1 + 3 x 4), 2 x (2 + 3 x 2)
            (
                lambda: sweep_delta(SweepConfig(kind="delta", values=(0.4, 0.2, 0.1), mesh_n=16, mesh_ny=2)),
                26,
                16,
                8,
            ),
        ],
        ids=["morley_pencil", "rm_pencil", "korn", "dirichlet_laplace", "kernel_census", "sweep_delta"],
    )
    def test_tabulation_count(self, monkeypatch, build, tabulations, scatters, scatter_calls):
        calls = {"element_batch": [], "assemble_from_local": []}

        def counting(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[fn.__name__].append(out)
                return out

            return wrapped

        # count the calls behind every rmplates binding of the names
        for fn in (element_batch, assemble_from_local):
            for name, module in list(sys.modules.items()):
                if name.startswith("rmplates.") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counting(fn))
        build()
        assert len(calls["element_batch"]) == tabulations
        assert len(calls["assemble_from_local"]) == scatter_calls
        assert sum(len(out) if isinstance(out, tuple) else 1 for out in calls["assemble_from_local"]) == scatters
