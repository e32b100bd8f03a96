"""Element spaces and degree-of-freedom maps with essential-constraint lists.

Supported spaces: bilinear Q1 (scalar and 2-vector) on quads, P1/P2 on
segments, and the Morley triangle (vertex values plus edge-midpoint normal
derivatives).  Essential conditions are realized by collecting the
constrained global dofs; assembly then eliminates the constrained rows and
columns, so all reduced matrices stay symmetric definite.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import UnsupportedConfigurationError
from .geometry import ElementKind, Mesh


class SpaceKind(str, Enum):
    Q1_SCALAR = "q1_scalar"
    Q1_VECTOR2 = "q1_vector2"
    P1_1D = "p1_1d"
    P2_1D = "p2_1d"
    MORLEY = "morley"


_ELEMENT_KIND = {
    SpaceKind.Q1_SCALAR: ElementKind.QUAD4,
    SpaceKind.Q1_VECTOR2: ElementKind.QUAD4,
    SpaceKind.P1_1D: ElementKind.SEGMENT,
    SpaceKind.P2_1D: ElementKind.SEGMENT,
    SpaceKind.MORLEY: ElementKind.TRI3,
}


@dataclass(frozen=True)
class ElementSpace:
    kind: SpaceKind

    @property
    def element_kind(self) -> ElementKind:
        return _ELEMENT_KIND[self.kind]


Q1_SCALAR = ElementSpace(SpaceKind.Q1_SCALAR)
Q1_VECTOR2 = ElementSpace(SpaceKind.Q1_VECTOR2)
P1_1D = ElementSpace(SpaceKind.P1_1D)
P2_1D = ElementSpace(SpaceKind.P2_1D)
MORLEY = ElementSpace(SpaceKind.MORLEY)


@dataclass
class DofMap:
    """Global dof layout of one space on one mesh.

    `element_to_global` holds the global index of every local dof,
    `constrained` the sorted global dofs fixed to zero.  The free-dof
    ordering is the global ordering with constrained entries removed, so it
    is deterministic given mesh and constraints.
    """

    n_dofs: int
    element_to_global: np.ndarray
    constrained: np.ndarray
    aux: dict = field(default_factory=dict)

    @property
    def free(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n_dofs), self.constrained)

    @property
    def n_free(self) -> int:
        return self.n_dofs - len(self.constrained)

    def full_to_free(self) -> np.ndarray:
        idx = np.full(self.n_dofs, -1, dtype=np.int64)
        idx[self.free] = np.arange(self.n_free)
        return idx

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full)[self.free]

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(self.n_dofs)
        full[self.free] = reduced
        return full


def edge_table(mesh: Mesh):
    """Unique edges as sorted node pairs; returns (edges array, pair->id dict)."""
    pairs = {}
    order = []
    local = [(0, 1), (1, 2), (2, 0)]
    for elem in mesh.elements:
        for a, b in local:
            key = (min(elem[a], elem[b]), max(elem[a], elem[b]))
            if key not in pairs:
                pairs[key] = len(order)
                order.append(key)
    return np.array(order, dtype=np.int64), pairs


def edge_normal(mesh: Mesh, a, b) -> np.ndarray:
    """Fixed global normals of the edges (a, b), given as node-index arrays:
    rotate the tangent from the lower to the higher node index.  The result
    has the shape of `a` plus a trailing axis of length 2."""
    t = mesh.nodes[np.maximum(a, b)] - mesh.nodes[np.minimum(a, b)]
    return np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.hypot(t[..., 0], t[..., 1])[..., None]


def build_dofmap(mesh: Mesh, space: ElementSpace, essential=None) -> DofMap:
    """Dof map for `space` on `mesh` with essential conditions applied.

    `essential(tag, component, normal) -> bool` is evaluated per boundary
    facet.  Components are cartesian field components for vector spaces; for
    Morley, component 0 selects vertex-value dofs and component 1 the
    edge-midpoint normal-derivative dofs.
    """
    if space.element_kind != mesh.element_kind:
        raise ValueError(f"{space.kind.value} is not compatible with {mesh.element_kind.value} meshes")
    nv = mesh.n_nodes
    kind = space.kind

    if kind in (SpaceKind.Q1_SCALAR, SpaceKind.P1_1D):
        n_dofs = nv
        e2g = mesh.elements.astype(np.int64)
        aux = {}
    elif kind == SpaceKind.Q1_VECTOR2:
        n_dofs = 2 * nv
        e2g = np.concatenate([mesh.elements, mesh.elements + nv], axis=1).astype(np.int64)
        aux = {"n_nodes": nv}
    elif kind == SpaceKind.P2_1D:
        ne = mesh.n_elements
        n_dofs = nv + ne
        mids = nv + np.arange(ne)
        e2g = np.column_stack([mesh.elements, mids]).astype(np.int64)
        aux = {"n_vertices": nv}
    elif kind == SpaceKind.MORLEY:
        edges, pair_to_id = edge_table(mesh)
        n_dofs = nv + len(edges)
        local = [(1, 2), (2, 0), (0, 1)]  # edge i is opposite vertex i
        edge_ids = np.array(
            [
                [pair_to_id[(min(el[a], el[b]), max(el[a], el[b]))] for a, b in local]
                for el in mesh.elements
            ],
            dtype=np.int64,
        )
        e2g = np.column_stack([mesh.elements, nv + edge_ids]).astype(np.int64)
        aux = {"edges": edges, "pair_to_id": pair_to_id, "n_vertices": nv}
    else:  # pragma: no cover
        raise UnsupportedConfigurationError(kind)

    constrained = set()
    if essential is not None:
        for f in mesh.facets:
            for comp in range(2 if kind in (SpaceKind.Q1_VECTOR2, SpaceKind.MORLEY) else 1):
                if not essential(f.tag, comp, f.normal):
                    continue
                if kind == SpaceKind.MORLEY:
                    if comp == 0:
                        constrained.update(f.nodes)
                    else:
                        key = (min(f.nodes), max(f.nodes))
                        if key not in aux["pair_to_id"]:
                            raise ValueError(f"facet {key} is not a mesh edge")
                        constrained.add(nv + aux["pair_to_id"][key])
                elif kind == SpaceKind.Q1_VECTOR2:
                    constrained.update(comp * nv + n for n in f.nodes)
                else:
                    constrained.update(f.nodes)
    return DofMap(n_dofs, e2g, np.array(sorted(constrained), dtype=np.int64), aux)


def stack_dofmaps(dofmaps) -> DofMap:
    """Block layout combining several dofmaps; blocks keep their order."""
    offsets = np.cumsum([0] + [dm.n_dofs for dm in dofmaps])
    e2g = np.concatenate([dm.element_to_global + off for dm, off in zip(dofmaps, offsets)], axis=1)
    constrained = np.concatenate([dm.constrained + off for dm, off in zip(dofmaps, offsets)])
    aux = {"offsets": offsets, "blocks": list(dofmaps)}
    return DofMap(int(offsets[-1]), e2g, np.sort(constrained).astype(np.int64), aux)
