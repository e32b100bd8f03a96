"""The scalar Q1 tabulation, the Reissner-Mindlin kernels and the scatter
give the same bits as the references in `einsum_reference.py`, and a
pencil's bits do not depend on how many elements a chunk of local blocks
holds.

The kernels sum in numpy's einsum order, so a failure here has to be read
against the numpy version in the test-session header.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_reference as ref
from rmplates import (
    Q1_SCALAR,
    Q1_VECTOR2,
    BcFamily,
    MaterialParams,
    PiecewiseLinear,
    ThinDomainSpec,
    assemble_biharmonic_pencil,
    assemble_rm_pencil,
    build_dofmap,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    element_batch,
    mass_density,
    rm_dofmap,
    split_quads,
    stiffness_density,
)
from rmplates import assemble, experiments
from rmplates.assemble import assemble_load_from_local, assemble_pencil, quad_geometry, strain_blocks
from rmplates.quadrature import quad_rule, shear_rule_x, shear_rule_y
from rmplates.rm_system import rm_load_vector, rm_local_matrices
from rmplates.errors import AssemblyError
from rmplates.thin_limit import ConnectingSystem, assemble_limit_pencil, p2_evaluate, p2_interpolate

PARAMS = MaterialParams(E=1.0, sigma=0.3, t=0.05)
RULES = {
    "gauss2": quad_rule(2),
    "gauss3": quad_rule(3),
    "gauss3x2": quad_rule(3, 2),
    "shear_x": shear_rule_x(),
    "shear_y": shear_rule_y(),
}


def rect_mesh():
    return build_rect_mesh(1.3, 0.7, 7, 5)


def cylinder_mesh():
    return build_thin_mesh(constant_profile_spec(0.0, 1.0, 0.5, 0.05), 48, 3)


def profile_spec(x_mid, f1, f2, delta=0.1):
    xs = np.array([0.0, x_mid, 1.0])
    return ThinDomainSpec((0.0, 1.0), PiecewiseLinear(xs, np.array(f1)), PiecewiseLinear(xs, np.array(f2)), delta)


def profile_mesh(x_mid, f1, f2, delta=0.1):
    """Thin mesh over a three-breakpoint profile; its quads are not parallelograms."""
    return build_thin_mesh(profile_spec(x_mid, f1, f2, delta), 12, 3)


PROFILE = (0.3, [0.5, 0.5, 0.5], [0.5, 1.0, 0.7])
MESHES = {"rect": rect_mesh, "cylinder": cylinder_mesh, "profile": lambda: profile_mesh(*PROFILE)}

profiles = st.tuples(
    st.floats(0.1, 0.9),
    st.lists(st.floats(0.2, 1.2), min_size=3, max_size=3),
    st.lists(st.floats(0.2, 1.2), min_size=3, max_size=3),
)


def assert_same_matrix(got, want):
    for attr in ("data", "indices", "indptr"):
        got_a, want_a = getattr(got, attr), getattr(want, attr)
        assert got_a.dtype == want_a.dtype and np.array_equal(got_a, want_a), attr


def assert_same_scatter(dofmap, *stacks):
    got = assemble.assemble_from_local(dofmap, lambda cells: tuple(local[cells] for local in stacks))
    for got, want in zip(got, ref.assemble_from_local(dofmap, *stacks)):
        assert_same_matrix(got, want)


def assert_scatter_keeps_pencil(build, *args):
    """`build(*args)` gives the same A, B and B_full with the package's
    scatter as with the reference one."""
    got = build(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assemble, "assemble_from_local", lambda dofmap, blocks: ref.assemble_from_local(dofmap, *blocks(slice(None))))
        want = build(*args)
    for attr in ("A", "B", "B_full"):
        assert_same_matrix(getattr(got, attr), getattr(want, attr))


def assert_same_kernels(mesh):
    for name, rule in RULES.items():
        x, w, phi, grad = quad_geometry(mesh, rule)
        for got, want in zip((x, w, phi, grad()), ref.quad_geometry(mesh, rule)):
            assert np.array_equal(got, want), name
    for got, want in zip(rm_local_matrices(mesh, PARAMS), ref.rm_local_matrices(mesh, PARAMS)):
        assert np.array_equal(got, want)
    batch = element_batch(mesh, Q1_SCALAR)
    strain, _ = strain_blocks(batch)
    grad, mass = np.zeros((2,) + strain.shape)
    grad[:, :4, :4] = grad[:, 4:, 4:] = stiffness_density(batch)
    mass[:, :4, :4] = mass[:, 4:, 4:] = mass_density(batch)
    for got, want in zip((grad, strain, mass), ref.korn_blocks(mesh)):
        assert np.array_equal(got, want)


def assert_same_pencil(mesh, bc):
    pencil = assemble_rm_pencil(mesh, PARAMS, bc)
    bend, shear, mass = ref.rm_local_matrices(mesh, PARAMS)
    want = assemble_pencil(mesh, rm_dofmap(mesh, bc), lambda cells: ((bend + shear)[cells], mass[cells]))
    for got_m, want_m in ((pencil.A, want.A), (pencil.B, want.B), (pencil.B_full, want.B_full)):
        assert_same_matrix(got_m, want_m)
    return pencil


def extension(interval, F0, f0):
    """Callables (F, f) of the extension E_delta(F0, 0, f0) of interval
    data at thin-domain points, for the reference load."""

    def F(x):
        vals = p2_evaluate(interval, F0, x[..., 0].ravel()).reshape(x.shape[:-1])
        return np.stack([vals, np.zeros_like(vals)], axis=-1)

    def f(x):
        return p2_evaluate(interval, f0, x[..., 0].ravel()).reshape(x.shape[:-1])

    return F, f


def assert_extended_load(spec, pencil):
    """The extended-data load on the connecting system's 3x2 rule is the
    reference load of the extension on the 3x3 rule, to rounding: both
    rules are exact for it on a thin mesh."""
    mesh = pencil.mesh
    interval = build_interval_mesh(*spec.base_interval, mesh.meta["nx"])
    system = ConnectingSystem(mesh, interval, spec)
    F0 = p2_interpolate(interval, lambda x: np.cos(2.0 * x))
    f0 = p2_interpolate(interval, lambda x: np.sin(np.pi * x))
    local = ref.rm_load_local(mesh, PARAMS, *extension(interval, F0, f0))
    want = pencil.dofmap.restrict(ref.assemble_load_from_local(pencil.dofmap, local))
    got = system.extended_load(pencil, PARAMS, F0, f0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_tabulation_and_kernels(mesh_name):
    assert_same_kernels(MESHES[mesh_name]())


@pytest.mark.parametrize("bc", list(BcFamily), ids=lambda bc: bc.value)
def test_rect_pencils_and_load(bc):
    mesh = rect_mesh()
    pencil = assert_same_pencil(mesh, bc)
    # a load of coefficient vectors is the reference mass over all dofs applied to them
    F, f = np.cos(mesh.nodes.T.ravel()), np.sin(mesh.nodes[:, 0])
    assert np.array_equal(rm_load_vector(pencil, F, f), pencil.dofmap.restrict(pencil.B_full @ np.concatenate([F, f])))


def test_cylinder_pencil_and_extended_load():
    # the free thin pencil and the extended-data load of `resolvent_gap`
    pencil = assert_same_pencil(cylinder_mesh(), BcFamily.FREE)
    assert_extended_load(constant_profile_spec(0.0, 1.0, 0.5, 0.05), pencil)


@pytest.mark.parametrize("mesh_name", ["rect", "cylinder"])
def test_load_scatter(mesh_name):
    # seeded local loads on the RM dofmap: the same bits as the np.add.at scatter
    dofmap = rm_dofmap(MESHES[mesh_name](), BcFamily.FREE)
    local = np.random.default_rng(5).standard_normal(dofmap.element_to_global.shape)
    got, want = assemble_load_from_local(dofmap, local), ref.assemble_load_from_local(dofmap, local)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=10, deadline=None)
@given(profile=profiles)
def test_profile_meshes(profile):
    mesh = profile_mesh(*profile)
    assert_same_kernels(mesh)
    pencil = assert_same_pencil(mesh, BcFamily.FREE)
    assert_extended_load(profile_spec(*profile), pencil)


# the families whose rotation trace is all components or none, the only ones skew facets allow
WHOLE_TRACE = [BcFamily.HARD_CLAMPED, BcFamily.SOFT_SIMPLY_SUPPORTED, BcFamily.FREE, BcFamily.HARD_RIGID]


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_scatter_keeps_pencils_and_stacks(mesh_name):
    mesh = MESHES[mesh_name]()
    for bc in WHOLE_TRACE if mesh_name == "profile" else BcFamily:
        assert_scatter_keeps_pencil(assemble_rm_pencil, mesh, PARAMS, bc)
    for bc in ("clamped", "navier"):
        assert_scatter_keeps_pencil(assemble_biharmonic_pencil, split_quads(mesh), PARAMS.E, PARAMS.sigma, bc)
    assert_same_scatter(rm_dofmap(mesh, BcFamily.FREE), *rm_local_matrices(mesh, PARAMS))
    assert_same_scatter(build_dofmap(mesh, Q1_VECTOR2), *ref.korn_blocks(mesh))


@pytest.mark.parametrize("spec", [constant_profile_spec(0.0, 1.0, 0.5, 0.05), profile_spec(*PROFILE)], ids=["cylinder", "profile"])
def test_scatter_keeps_limit_pencil(spec):
    assert_scatter_keeps_pencil(assemble_limit_pencil, build_interval_mesh(0.0, 1.0, 48), spec, PARAMS)


def experiment_pencil(run, mesh):
    """The pencil that `run(mesh)`, an experiment returning a number, assembles."""
    pencils = []

    def recorded(*args):
        pencils.append(assemble_pencil(*args))
        return pencils[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "assemble_pencil", recorded)
        run(mesh)
    (pencil,) = pencils
    return pencil


# (builder of the pencil, number of elements, elements of a ragged chunk)
CHUNKED = {
    "rm_plate": (lambda: assemble_rm_pencil(rect_mesh(), PARAMS, BcFamily.HARD_CLAMPED), 35, 8),
    "rm_strip": (lambda: assemble_rm_pencil(cylinder_mesh(), PARAMS, BcFamily.FREE), 144, 7),
    "morley": (lambda: assemble_biharmonic_pencil(split_quads(build_rect_mesh(1.0, 1.0, 5, 4)), 1.0, 0.3, "navier"), 40, 7),
    "limit": (lambda: assemble_limit_pencil(build_interval_mesh(0.0, 1.0, 48), profile_spec(*PROFILE), PARAMS), 48, 7),
    "korn": (lambda: experiment_pencil(experiments.korn_constant, rect_mesh()), 35, 8),
    "dirichlet": (lambda: experiment_pencil(experiments.dirichlet_laplace_smallest, cylinder_mesh()), 144, 7),
}


@pytest.mark.parametrize("case", sorted(CHUNKED))
def test_pencil_bits_do_not_depend_on_the_chunk(case, monkeypatch):
    build, n_elements, ragged = CHUNKED[case]
    assert n_elements % ragged
    pencils = {}
    for elements in (n_elements, 1, ragged):  # one chunk, one element per chunk, a ragged last chunk
        monkeypatch.setattr(assemble, "chunk_elements", lambda ne, nloc: elements)
        pencils[elements] = build()
    for elements in (1, ragged):
        for attr in ("A", "B", "B_full"):
            assert_same_matrix(getattr(pencils[elements], attr), getattr(pencils[n_elements], attr))


def test_non_finite_block_in_last_chunk_names_its_element(monkeypatch):
    monkeypatch.setattr(assemble, "chunk_elements", lambda ne, nloc: 8)  # 35 elements: the last chunk holds 32, 33 and 34
    mesh = rect_mesh()
    bend, shear, mass = rm_local_matrices(mesh, PARAMS)
    mass[33, 2, 5] = np.inf
    with pytest.raises(AssemblyError) as err:
        assemble_pencil(mesh, rm_dofmap(mesh, BcFamily.FREE), lambda cells: ((bend + shear)[cells], mass[cells]))
    assert err.value.element == 33


def test_scatter_of_empty_rows_and_missing_diagonals():
    # the blocks of the element column on x = 0 and every diagonal entry of
    # three interior dofs zeroed: the summed rows of the boundary dofs are
    # empty and those of the three dofs have no diagonal
    mesh = rect_mesh()
    dofmap = build_dofmap(mesh, Q1_SCALAR)
    batch = element_batch(mesh, Q1_SCALAR)
    stacks = stiffness_density(batch), mass_density(batch)
    gi = dofmap.element_to_global
    for local in stacks:
        local[mesh.nodes[mesh.elements, 0].min(axis=1) == 0.0] = 0.0
        for dof in (13, 19, 28):
            elements, i = np.nonzero(gi == dof)
            local[elements, i, i] = 0.0
    assert_same_scatter(dofmap, *stacks)
    for want in ref.assemble_from_local(dofmap, *stacks):
        length = np.diff(want.indptr)
        assert np.any(length == 0) and np.count_nonzero((want.diagonal() == 0) & (length > 0)) == 3
