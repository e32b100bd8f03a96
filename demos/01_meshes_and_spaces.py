"""Mesh gallery: plates, intervals, thin profile domains, and the rescaling map.

Builds one mesh of each kind, checks the exact-measure bookkeeping, and
round-trips through the JSON schema.
"""

import json

import numpy as np

from rmplates import (
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

print("== plate mesh ==")
plate = build_rect_mesh(2.0, 1.0, 8, 4)
print(f"(0,2)x(0,1) with 8x4 cells: {plate.n_nodes} nodes, {plate.n_elements} quads, "
      f"{len(plate.facets)} boundary facets, area {element_measures(plate).sum():.12f}")

tri = split_quads(plate)
print(f"split along cell diagonals: {tri.n_elements} triangles, area {element_measures(tri).sum():.12f}")

print("\n== interval mesh ==")
interval = build_interval_mesh(0.0, 1.0, 4)
print("nodes:", interval.nodes.ravel())

print("\n== thin profile domain ==")
# trapezoid profile: f1 = 1/2, f2 = 1/2 + x/2, so the section weight is
# g(x) = 1 + x/2 and |Omega_delta| = delta * integral g = delta * 5/4
spec = ThinDomainSpec(
    (0.0, 1.0),
    PiecewiseLinear.constant(0.5, 0.0, 1.0),
    PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.5, 1.0])),
    delta=0.2,
)
thin = build_thin_mesh(spec, 16, 4)
print(f"delta = {spec.delta}: area {element_measures(thin).sum():.12f} (exact {0.2 * 1.25})")
print("lateral facets:", int(np.sum(thin.facets.tag == "lateral")),
      " profile facets:", int(np.sum(thin.facets.tag == "top_bottom")))

reference = rescale_to_reference(thin, spec)
print(f"rescaled by 1/delta: area {element_measures(reference).sum():.12f} "
      f"(= area/delta = {element_measures(thin).sum() / spec.delta:.12f})")

match = np.allclose(reference.nodes, build_thin_mesh(spec.__class__(
    spec.base_interval, spec.f1, spec.f2, 1.0), 16, 4).nodes, atol=1e-12)
print("rescaled mesh equals the delta = 1 build node-by-node:", match)

print("\n== JSON round trip ==")
blob = json.dumps(mesh_to_dict(thin))
back = mesh_from_dict(json.loads(blob))
print(f"serialized {len(blob)} bytes; nodes identical:",
      np.array_equal(back.nodes, thin.nodes))

print("\n== cylinder helper ==")
cyl = constant_profile_spec(0.0, 1.0, 0.5, 0.1)
print("constant profile g =", cyl.g(0.3), "; thin area =",
      element_measures(build_thin_mesh(cyl, 8, 2)).sum())
