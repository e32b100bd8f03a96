import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rmplates import (
    BoundaryTag,
    ElementKind,
    PiecewiseLinear,
    ThinDomainSpec,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    element_measures,
    mesh_from_dict,
    mesh_to_dict,
    rescale_to_reference,
    split_quads,
)
from rmplates.errors import UnsupportedConfigurationError


def trapezoid_spec(delta):
    # f1 = 1/2, f2 = 1/2 + x/2 on (0, 1)
    return ThinDomainSpec(
        (0.0, 1.0),
        PiecewiseLinear.constant(0.5, 0.0, 1.0),
        PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, 1.0])),
        delta,
    )


class TestRectMesh:
    def test_single_cell_counts(self):
        m = build_rect_mesh(1, 1, 1, 1)
        assert (m.n_nodes, m.n_elements, len(m.facets)) == (4, 1, 4)

    def test_two_by_two_counts(self):
        m = build_rect_mesh(1, 1, 2, 2)
        assert (m.n_nodes, m.n_elements, len(m.facets)) == (9, 4, 8)

    def test_total_area(self):
        m = build_rect_mesh(2, 1, 4, 2)
        assert_allclose(element_measures(m).sum(), 2.0, atol=1e-12)

    @pytest.mark.parametrize("args", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            build_rect_mesh(*args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build,name",
    [
        (lambda v: build_rect_mesh(v, 1, 2, 2), "lx"),
        (lambda v: build_rect_mesh(1, v, 2, 2), "ly"),
        (lambda v: build_interval_mesh(v, 1, 4), "a"),
        (lambda v: build_interval_mesh(0, v, 4), "b"),
        (lambda v: PiecewiseLinear(np.array([0.0, v]), np.array([0.5, 0.5])), "xs"),
        (lambda v: PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, v])), "ys"),
        (lambda v: constant_profile_spec(0.0, 1.0, 0.5, v), "delta"),
        (lambda v: ThinDomainSpec((0.0, v), *2 * [PiecewiseLinear.constant(0.5, 0.0, 1.0)], 0.1), "base interval"),
    ],
    ids=["rect_lx", "rect_ly", "interval_a", "interval_b", "profile_xs", "profile_ys", "spec_delta", "spec_interval"],
)
def test_non_finite_input_is_rejected_where_it_enters(build, name, bad):
    # a NaN passes every <= and >= check, and an infinite length gives NaN
    # nodes; either would surface later as a non-positive Jacobian
    with pytest.raises(ValueError, match=f"{name}.*finite|finite.*{name}"):
        build(bad)


class TestIntervalMesh:
    def test_single_element_nodes(self):
        m = build_interval_mesh(0, 1, 1)
        assert_allclose(m.nodes.ravel(), [0.0, 1.0])

    def test_uniform_nodes(self):
        m = build_interval_mesh(0, 1, 4)
        assert_allclose(m.nodes.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_element_lengths(self):
        m = build_interval_mesh(-1, 1, 2)
        assert_allclose(element_measures(m), [1.0, 1.0])

    def test_endpoint_normals(self):
        m = build_interval_mesh(0, 1, 3)
        assert_allclose(m.facets.normal[0], [-1.0])
        assert_allclose(m.facets.normal[1], [1.0])

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            build_interval_mesh(1, 0, 2)


class TestThinMesh:
    def test_cylinder_area(self):
        spec = constant_profile_spec(0, 1, 0.5, 0.1)
        m = build_thin_mesh(spec, 2, 1)
        assert_allclose(element_measures(m).sum(), 0.1, atol=1e-12)

    def test_delta_one_is_shifted_rect(self):
        spec = constant_profile_spec(0, 1, 0.5, 1.0)
        m = build_thin_mesh(spec, 3, 2)
        r = build_rect_mesh(1, 1, 3, 2)
        shifted = r.nodes.copy()
        shifted[:, 1] -= 0.5
        assert_allclose(m.nodes, shifted, atol=1e-12)
        assert np.array_equal(m.elements, r.elements)

    def test_trapezoid_area(self):
        # integral of delta*(f1+f2) = 0.2 * (1 + 1/4) = 0.25
        m = build_thin_mesh(trapezoid_spec(0.2), 8, 3)
        assert_allclose(element_measures(m).sum(), 0.25, atol=1e-12)

    def test_facet_tags(self):
        m = build_thin_mesh(constant_profile_spec(0, 1, 0.5, 0.2), 4, 2)
        lateral = np.sum(m.facets.tag == BoundaryTag.LATERAL.value)
        profile = np.sum(m.facets.tag == BoundaryTag.TOP_BOTTOM.value)
        assert lateral == 4 and profile == 8

    def test_d_not_one_rejected(self):
        spec = ThinDomainSpec(
            (0.0, 1.0),
            PiecewiseLinear.constant(0.5, 0, 1),
            PiecewiseLinear.constant(0.5, 0, 1),
            0.1,
            d=2,
        )
        with pytest.raises(UnsupportedConfigurationError):
            build_thin_mesh(spec, 2, 2)

    def test_dip_between_breakpoints_rejected(self):
        # g = -0.1 at x = 0.001, between any two of 257 uniform samples
        with pytest.raises(ValueError):
            ThinDomainSpec(
                (0.0, 1.0),
                PiecewiseLinear(np.array([0.0, 0.001, 0.002, 1.0]), np.array([0.5, -0.6, 0.5, 0.5])),
                PiecewiseLinear.constant(0.5, 0, 1),
                0.1,
            )

    def test_breakpoints_outside_interval_ignored(self):
        spec = ThinDomainSpec(
            (0.0, 1.0),
            PiecewiseLinear(np.array([-1.0, 0.0, 2.0]), np.array([-1.0, 0.5, 0.5])),
            PiecewiseLinear.constant(0.5, 0, 1),
            0.1,
        )
        assert spec.g(0.0) == 1.0

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(ValueError):
            ThinDomainSpec(
                (0.0, 1.0),
                PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, -0.1])),
                PiecewiseLinear.constant(0.5, 0, 1),
                0.1,
            )


class TestRescale:
    def test_identity_at_delta_one(self):
        spec = constant_profile_spec(0, 1, 0.5, 1.0)
        m = build_thin_mesh(spec, 3, 2)
        r = rescale_to_reference(m, spec)
        assert_allclose(r.nodes, m.nodes, atol=1e-15)

    def test_node_mapping(self):
        spec = constant_profile_spec(0, 1, 0.5, 0.1)
        m = build_thin_mesh(spec, 2, 2)
        r = rescale_to_reference(m, spec)
        i = np.argmin(np.abs(m.nodes - [0.5, 0.05]).sum(axis=1))
        assert_allclose(m.nodes[i], [0.5, 0.05], atol=1e-14)
        assert_allclose(r.nodes[i], [0.5, 0.5], atol=1e-14)

    def test_area_scaling(self):
        spec = trapezoid_spec(0.2)
        m = build_thin_mesh(spec, 6, 2)
        r = rescale_to_reference(m, spec)
        assert_allclose(element_measures(r).sum(), element_measures(m).sum() / 0.2, rtol=1e-12)

    def test_matches_delta_one_build(self):
        for spec_fn in (lambda d: constant_profile_spec(0, 1, 0.5, d), trapezoid_spec):
            spec = spec_fn(0.15)
            r = rescale_to_reference(build_thin_mesh(spec, 5, 3), spec)
            spec1 = spec_fn(1.0)
            m1 = build_thin_mesh(spec1, 5, 3)
            assert_allclose(r.nodes, m1.nodes, atol=1e-12)

    def test_mismatched_spec_rejected(self):
        spec = constant_profile_spec(0, 1, 0.5, 0.1)
        other = constant_profile_spec(0, 1, 0.5, 0.2)
        m = build_thin_mesh(spec, 2, 2)
        with pytest.raises(ValueError):
            rescale_to_reference(m, other)
        with pytest.raises(ValueError):
            rescale_to_reference(build_rect_mesh(1, 1, 2, 2), spec)


def all_test_meshes():
    return [
        (build_rect_mesh(2, 1, 4, 3), 2.0),
        (build_interval_mesh(-1, 2, 5), 3.0),
        (build_thin_mesh(trapezoid_spec(0.2), 8, 3), 0.25),
        (build_thin_mesh(constant_profile_spec(0, 1, 0.5, 0.05), 16, 2), 0.05),
    ]


class TestMeshInvariants:
    @pytest.mark.parametrize("mesh,measure", all_test_meshes())
    def test_measures_match_analytic(self, mesh, measure):
        assert_allclose(element_measures(mesh).sum(), measure, rtol=1e-10)

    @pytest.mark.parametrize("mesh,_", all_test_meshes())
    def test_unit_outward_normals(self, mesh, _):
        f = mesh.facets
        for nodes, element, normal in zip(f.nodes, f.element, f.normal):
            assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
            assert 0 <= element < mesh.n_elements
            assert all(0 <= n < mesh.n_nodes for n in nodes)
            assert set(nodes) <= set(mesh.elements[element])
            if mesh.dim == 2:
                mid = mesh.nodes[list(nodes)].mean(axis=0)
                centroid = mesh.nodes[mesh.elements[element]].mean(axis=0)
                assert np.dot(normal, mid - centroid) > 0

    @pytest.mark.parametrize("mesh,_", [m for m in all_test_meshes() if m[0].dim == 2])
    def test_positive_jacobians(self, mesh, _):
        from rmplates.assemble import quad_geometry
        from rmplates.quadrature import quad_rule

        # raises on any non-positive Jacobian
        quad_geometry(mesh, quad_rule(3))

    @pytest.mark.parametrize("nx, ny", [(1, 1), (4, 3), (2, 5)])
    def test_grid_facets_match_side_walk(self, nx, ny):
        # reference: walk the sides bottom, right, top, left, one facet at a time
        mesh = build_thin_mesh(trapezoid_spec(0.3), nx, ny)
        walk = [((i, i + 1), i, "top_bottom") for i in range(nx)]
        walk += [((j * (nx + 1) + nx, (j + 1) * (nx + 1) + nx), j * nx + nx - 1, "lateral") for j in range(ny)]
        walk += [((ny * (nx + 1) + i, ny * (nx + 1) + i + 1), (ny - 1) * nx + i, "top_bottom") for i in range(nx)]
        walk += [((j * (nx + 1), (j + 1) * (nx + 1)), j * nx, "lateral") for j in range(ny)]
        f = mesh.facets
        assert len(f) == len(walk)
        for k, (nodes, element, tag) in enumerate(walk):
            assert tuple(f.nodes[k]) == nodes and f.element[k] == element and f.tag[k] == tag
            p0, p1 = mesh.nodes[list(nodes)]
            t = p1 - p0
            n = np.array([t[1], -t[0]]) / np.hypot(t[0], t[1])
            if np.dot(n, 0.5 * (p0 + p1) - mesh.nodes[mesh.elements[element]].mean(axis=0)) < 0:
                n = -n
            assert np.array_equal(f.normal[k], n)

    def test_facets_unique_per_element_edge(self):
        mesh = build_rect_mesh(1, 1, 3, 3)
        seen = {tuple(sorted(nodes)) for nodes in mesh.facets.nodes.tolist()}
        assert len(seen) == len(mesh.facets)


class TestSplitQuads:
    def test_counts_and_area(self):
        m = build_rect_mesh(1, 1, 4, 4)
        t = split_quads(m)
        assert t.element_kind == ElementKind.TRI3
        assert t.n_elements == 2 * m.n_elements
        assert_allclose(element_measures(t).sum(), 1.0, rtol=1e-12)

    def test_facet_ownership(self):
        t = split_quads(build_rect_mesh(1, 1, 2, 2))
        for nodes, element in zip(t.facets.nodes, t.facets.element):
            tri = t.elements[element]
            assert set(nodes) <= set(tri)


class TestMeshJson:
    def test_round_trip(self, tmp_path):
        mesh = build_thin_mesh(trapezoid_spec(0.3), 4, 2)
        data = json.loads(json.dumps(mesh_to_dict(mesh)))
        back = mesh_from_dict(data)
        assert back.element_kind == mesh.element_kind
        assert_allclose(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)
        assert len(back.facets) == len(mesh.facets)
        a, b = back.facets, mesh.facets
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.tag, b.tag)
        assert_allclose(a.normal, b.normal)

    @pytest.mark.parametrize(
        "field,index,value,message",
        [
            ("facet nodes", (2, 1), -1, r"facet node -1 at \(2, 1\) outside \[0, 16\)"),
            ("elements", (4, 2), 16, r"element node 16 at \(4, 2\) outside \[0, 16\)"),
            ("facet element", (0,), 9, r"facet element 9 at \(0,\) outside \[0, 9\)"),
        ],
    )
    def test_index_out_of_range_rejected(self, field, index, value, message):
        # a 3x3 mesh has 16 nodes and 9 elements; an index past either end
        # would reach a dofmap or an assembly unchecked
        data = json.loads(json.dumps(mesh_to_dict(build_rect_mesh(1, 1, 3, 3))))
        if field == "elements":
            data["elements"][index[0]][index[1]] = value
        elif field == "facet nodes":
            data["facets"][index[0]]["nodes"][index[1]] = value
        else:
            data["facets"][index[0]]["element"] = value
        with pytest.raises(ValueError, match=message):
            mesh_from_dict(data)
