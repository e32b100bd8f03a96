"""Structured meshes for plate, interval and thin profile domains.

All meshes are tensor product grids: quadrilaterals for 2D domains, segments
for intervals, and triangles obtained by splitting quads along a fixed
diagonal.  Thin domains

    Omega_delta = { (x, y) : a < x < b, -delta*f1(x) < y < delta*f2(x) }

are meshed by pushing the grid of (a,b) x (0,1) through the profile map, so
the whole delta family shares one topology.  Meshes are immutable after
construction.
"""

import json
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import UnsupportedConfigurationError


class ElementKind(str, Enum):
    SEGMENT = "segment"
    QUAD4 = "quad4"
    TRI3 = "tri3"


class BoundaryTag(str, Enum):
    LATERAL = "lateral"
    TOP_BOTTOM = "top_bottom"
    WHOLE_BOUNDARY = "whole_boundary"


@dataclass(frozen=True)
class Facets:
    """Boundary facets as read-only arrays: node indices (n, k), owning
    element (n,), tag value (n,) and outward unit normal (n, dim)."""

    nodes: np.ndarray
    element: np.ndarray
    tag: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for a in (self.nodes, self.element, self.tag, self.normal):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.element)


@dataclass(frozen=True)
class Mesh:
    dim: int
    element_kind: ElementKind
    nodes: np.ndarray  # (n_nodes, dim)
    elements: np.ndarray  # (n_elements, nodes_per_element)
    facets: Facets
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.elements.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function given by breakpoints; callable on arrays."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("need matching xs/ys with at least two points")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("breakpoints xs and values ys must be finite")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    @staticmethod
    def constant(c: float, a: float, b: float) -> "PiecewiseLinear":
        return PiecewiseLinear(np.array([a, b]), np.array([c, c], dtype=float))


@dataclass(frozen=True)
class ThinDomainSpec:
    """Thin domain over a base interval with piecewise-linear profiles.

    g(x) = f1(x) + f2(x) is the section measure of the reference domain
    (delta = 1); the physical section measure is delta * g(x).  Meshes are
    only built for one thin direction (d = 1); d enters the limit-operator
    coefficients as a plain parameter.
    """

    base_interval: tuple
    f1: PiecewiseLinear
    f2: PiecewiseLinear
    delta: float
    d: int = 1

    def __post_init__(self):
        a, b = self.base_interval
        if not (np.all(np.isfinite(self.base_interval)) and a < b):
            raise ValueError(f"base interval must be finite with a < b, got {self.base_interval}")
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        # piecewise-linear profiles take their minima at a, b or a breakpoint in between
        xs = np.concatenate([[a, b], self.f1.xs, self.f2.xs])
        xs = xs[(a <= xs) & (xs <= b)]
        if np.min(self.f1(xs)) <= 0 or np.min(self.f2(xs)) <= 0:
            raise ValueError("profiles must be bounded below by a positive constant")

    def g(self, x):
        return self.f1(x) + self.f2(x)


def constant_profile_spec(a: float, b: float, half_width: float, delta: float) -> ThinDomainSpec:
    """Cylinder Omega_delta = (a,b) x (-delta*half_width, delta*half_width)."""
    return ThinDomainSpec(
        (a, b),
        PiecewiseLinear.constant(half_width, a, b),
        PiecewiseLinear.constant(half_width, a, b),
        delta,
    )


def _missing(record, keys) -> list:
    """The `keys` that the JSON object `record` lacks; all of them if it is no object."""
    return [key for key in keys if key not in record] if isinstance(record, dict) else list(keys)


def profile_spec(profile: dict, delta: float, interval=None, d: int = 1) -> ThinDomainSpec:
    """Thin domain of a `{"x", "f1", "f2"}` profile (breakpoints and the two
    piecewise-linear half-widths) over `interval`, by default the span of `x`."""
    missing = _missing(profile, ("x", "f1", "f2"))
    if missing:
        raise ValueError(f"a profile needs the keys {missing}, got {profile!r}")
    xs = np.asarray(profile["x"], dtype=float)
    f1, f2 = (PiecewiseLinear(xs, np.asarray(profile[key], dtype=float)) for key in ("f1", "f2"))
    return ThinDomainSpec(interval or (xs[0], xs[-1]), f1, f2, delta, d)


def build_rect_mesh(lx: float, ly: float, nx: int, ny: int) -> Mesh:
    """Quad4 mesh of (0, lx) x (0, ly) with nx*ny cells, boundary tagged whole."""
    if not (0 < lx < np.inf and 0 < ly < np.inf):
        raise ValueError(f"side lengths must be positive and finite, got lx = {lx}, ly = {ly}")
    if nx < 1 or ny < 1:
        raise ValueError("need at least one subdivision per direction")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    elements = _grid_quads(nx, ny)
    facets = _grid_boundary_facets(nodes, elements, nx, ny, BoundaryTag.WHOLE_BOUNDARY, BoundaryTag.WHOLE_BOUNDARY)
    return Mesh(2, ElementKind.QUAD4, nodes, elements, facets, meta={"kind": "rect", "nx": nx, "ny": ny})


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Segment mesh of (a, b) with n elements; endpoint facets carry +-1 normals."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got a = {a}, b = {b}")
    if n < 1:
        raise ValueError("need at least one element")
    nodes = np.linspace(a, b, n + 1)[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    tag = np.full(2, BoundaryTag.WHOLE_BOUNDARY.value)
    facets = Facets(np.array([[0], [n]]), np.array([0, n - 1]), tag, np.array([[-1.0], [1.0]]))
    return Mesh(1, ElementKind.SEGMENT, nodes, elements, facets, meta={"kind": "interval", "n": n})


def build_thin_mesh(spec: ThinDomainSpec, nx: int, ny: int) -> Mesh:
    """Quad4 mesh of the thin domain via (x, s) -> (x, -delta*f1 + s*delta*(f1+f2)).

    Lateral facets (x = a, x = b) are tagged LATERAL, profile facets
    TOP_BOTTOM.  Profiles are sampled at the nx+1 grid points, so the meshed
    boundary is their piecewise-linear chord.
    """
    if spec.d != 1:
        raise UnsupportedConfigurationError("thin meshes are only built for d = 1")
    if nx < 1 or ny < 1:
        raise ValueError("need at least one subdivision per direction")
    a, b = spec.base_interval
    xs = np.linspace(a, b, nx + 1)
    f1 = spec.f1(xs)
    f2 = spec.f2(xs)
    s = np.linspace(0.0, 1.0, ny + 1)
    # node (i, j): x = xs[i], y = -delta f1(x_i) + s_j delta (f1+f2)(x_i)
    Y = -spec.delta * f1[None, :] + s[:, None] * spec.delta * (f1 + f2)[None, :]
    X = np.broadcast_to(xs[None, :], Y.shape)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    elements = _grid_quads(nx, ny)
    facets = _grid_boundary_facets(nodes, elements, nx, ny, BoundaryTag.LATERAL, BoundaryTag.TOP_BOTTOM)
    meta = {"kind": "thin", "nx": nx, "ny": ny, "delta": spec.delta, "base_interval": (a, b)}
    return Mesh(2, ElementKind.QUAD4, nodes, elements, facets, meta=meta)


def rescale_to_reference(mesh_delta: Mesh, spec: ThinDomainSpec) -> Mesh:
    """Image of a thin mesh under (x, y) -> (x, y/delta); same connectivity."""
    meta = mesh_delta.meta
    if meta.get("kind") != "thin" or abs(meta.get("delta", np.nan) - spec.delta) > 1e-14:
        raise ValueError("mesh was not built by build_thin_mesh with this spec")
    nodes = mesh_delta.nodes.copy()
    nodes[:, 1] /= spec.delta
    f = mesh_delta.facets
    facets = replace(f, normal=_facet_normals(nodes, mesh_delta.elements, f.nodes, f.element))
    new_meta = dict(meta, delta=1.0, rescaled_from=spec.delta)
    return Mesh(2, ElementKind.QUAD4, nodes, mesh_delta.elements.copy(), facets, meta=new_meta)


def split_quads(mesh: Mesh) -> Mesh:
    """Split each quad along its local (0,0)-(1,1) diagonal into two triangles.

    Deterministic, so a mesh family sharing topology shares one triangulation.
    """
    if mesh.element_kind != ElementKind.QUAD4:
        raise ValueError("can only split quad meshes")
    quads = mesh.elements
    tris = np.empty((2 * quads.shape[0], 3), dtype=quads.dtype)
    tris[0::2] = quads[:, [0, 1, 2]]
    tris[1::2] = quads[:, [0, 2, 3]]
    # quad facet (n0,n1) lives on triangle 2e for local edges 0-1 / 1-2,
    # and on 2e+1 for edges 2-3 / 3-0, the two through local node 3
    f = mesh.facets
    facets = replace(f, element=2 * f.element + np.any(f.nodes == quads[f.element, 3:], axis=1))
    return Mesh(2, ElementKind.TRI3, mesh.nodes.copy(), tris, facets, meta=dict(mesh.meta, split=True))


def element_measures(mesh: Mesh) -> np.ndarray:
    """Length/area of every element (areas via the shoelace formula)."""
    pts = mesh.nodes[mesh.elements]
    if mesh.element_kind == ElementKind.SEGMENT:
        return np.abs(pts[:, 1, 0] - pts[:, 0, 0])
    x, y = pts[..., 0], pts[..., 1]
    xs, ys = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    return 0.5 * np.abs(np.sum(x * ys - xs * y, axis=1))


def mesh_to_dict(mesh: Mesh) -> dict:
    f = mesh.facets
    return {
        "dim": mesh.dim,
        "element_kind": mesh.element_kind.value,
        "nodes": mesh.nodes.tolist(),
        "elements": mesh.elements.tolist(),
        "facets": [
            {"nodes": n, "element": e, "tag": t, "normal": v}
            for n, e, t, v in zip(f.nodes.tolist(), f.element.tolist(), f.tag.tolist(), f.normal.tolist())
        ],
        "meta": {k: v for k, v in mesh.meta.items() if isinstance(v, (int, float, str, bool, tuple, list))},
    }


def mesh_from_dict(data: dict) -> Mesh:
    """The mesh `mesh_to_dict` wrote; a missing key, an array with the wrong
    number of columns or an index out of range raises ValueError naming the first."""
    missing = _missing(data, ("dim", "element_kind", "nodes", "elements", "facets"))
    if missing:
        raise ValueError(f"a mesh needs the keys {missing}")
    if not isinstance(data["facets"], list):
        raise ValueError(f"a mesh's facets are a list, got {data['facets']!r}")
    keys = ("nodes", "element", "tag", "normal")
    for i, facet in enumerate(data["facets"]):
        if _missing(facet, keys):
            raise ValueError(f"facet {i} needs the keys {_missing(facet, keys)}")
    cols = {key: [f[key] for f in data["facets"]] for key in keys}
    n = len(cols["element"])
    tag = np.array(cols["tag"], dtype=str)
    for value in np.unique(tag):
        BoundaryTag(value)  # an unknown tag raises ValueError
    facets = Facets(
        np.array(cols["nodes"], dtype=np.int64).reshape(n, -1),
        np.array(cols["element"], dtype=np.int64),
        tag,
        np.array(cols["normal"], dtype=float).reshape(n, -1),
    )
    kind = ElementKind(data["element_kind"])
    dim = 1 if kind == ElementKind.SEGMENT else 2
    if data["dim"] != dim:
        raise ValueError(f"a {kind.value} mesh has dim {dim}, got {data['dim']!r}")
    nodes, elements = np.array(data["nodes"], dtype=float), np.array(data["elements"], dtype=np.int64)
    per_element = {ElementKind.SEGMENT: 2, ElementKind.QUAD4: 4, ElementKind.TRI3: 3}[kind]
    widths = (("nodes", nodes, dim), ("facet nodes", facets.nodes, dim), ("facet normals", facets.normal, dim))
    for what, a, k in widths + (("elements", elements, per_element),):
        if a.ndim != 2 or a.shape[1] != k:
            raise ValueError(f"a {kind.value} mesh's {what} have {k} columns, got shape {a.shape}")
    mesh = Mesh(dim, kind, nodes, elements, facets, meta=dict(data.get("meta", {})))
    bounds = {"element node": mesh.n_nodes, "facet node": mesh.n_nodes, "facet element": mesh.n_elements}
    for (what, bound), index in zip(bounds.items(), (mesh.elements, facets.nodes, facets.element)):
        bad = np.argwhere((index < 0) | (index >= bound))
        if len(bad):
            raise ValueError(f"{what} {index[tuple(bad[0])]} at {tuple(bad[0].tolist())} outside [0, {bound})")
    return mesh


def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as fh:
        json.dump(mesh_to_dict(mesh), fh)


def load_mesh(path) -> Mesh:
    with open(path) as fh:
        return mesh_from_dict(json.load(fh))


def _grid_quads(nx: int, ny: int) -> np.ndarray:
    """Counterclockwise quads on an (nx+1) x (ny+1) node grid, x-fastest."""
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    n0 = (j * (nx + 1) + i).ravel()
    return np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1]).astype(np.int64)


def _facet_normals(nodes, elements, facet_nodes, facet_element) -> np.ndarray:
    """Outward unit normals of 2-node facets, oriented away from the owner's centroid."""
    p0, p1 = nodes[facet_nodes[:, 0]], nodes[facet_nodes[:, 1]]
    t = p1 - p0
    n = np.column_stack([t[:, 1], -t[:, 0]]) / np.hypot(t[:, 0], t[:, 1])[:, None]
    centroid = nodes[elements[facet_element]].mean(axis=1)
    inward = np.sum(n * (0.5 * (p0 + p1) - centroid), axis=1) < 0
    return np.where(inward[:, None], -n, n)


def _grid_boundary_facets(nodes, elements, nx, ny, side_tag, profile_tag) -> Facets:
    """Facets of the grid boundary, side by side: bottom, right, top, left.
    The sides x = const carry `side_tag`, the sides y = const `profile_tag`."""
    i, j = np.arange(nx), np.arange(ny)
    counts = [nx, ny, nx, ny]
    first = np.concatenate([i, j * (nx + 1) + nx, ny * (nx + 1) + i, j * (nx + 1)])
    facet_nodes = np.column_stack([first, first + np.repeat([1, nx + 1, 1, nx + 1], counts)])
    element = np.concatenate([i, j * nx + nx - 1, (ny - 1) * nx + i, j * nx])
    tag = np.where(np.repeat([False, True, False, True], counts), side_tag.value, profile_tag.value)
    return Facets(facet_nodes, element, tag, _facet_normals(nodes, elements, facet_nodes, element))
