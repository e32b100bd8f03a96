"""Element spaces and degree-of-freedom maps with essential-constraint lists.

Supported spaces: bilinear Q1 (scalar and 2-vector) on quads, P1/P2 on
segments, and the Morley triangle (vertex values plus edge-midpoint normal
derivatives).  Essential conditions are realized by collecting the
constrained global dofs; assembly then eliminates the constrained rows and
columns, so all reduced matrices stay symmetric definite.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
    is deterministic given mesh and constraints.  A dofmap is not changed
    after construction, so `free` is computed once and read-only.
    """

    n_dofs: int
    element_to_global: np.ndarray
    constrained: np.ndarray
    aux: dict = field(default_factory=dict)

    @cached_property
    def free(self) -> np.ndarray:
        free = np.setdiff1d(np.arange(self.n_dofs), self.constrained)
        free.flags.writeable = False
        return free

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
    """Unique edges as sorted node pairs, numbered in order of first appearance
    over the elements' local edges (0, 1), (1, 2), (2, 0); returns (edges
    array, per-element edge ids with edge i opposite vertex i)."""
    el = mesh.elements.astype(np.int64)
    nxt = np.roll(el, -1, axis=1)
    lo, hi = np.minimum(el, nxt).ravel(), np.maximum(el, nxt).ravel()
    _, first, inverse = np.unique(lo * mesh.n_nodes + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.argsort(order)[inverse].reshape(-1, 3)[:, [1, 2, 0]]
    return np.column_stack([lo[first[order]], hi[first[order]]]), ids


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
        edges, edge_ids = edge_table(mesh)
        n_dofs = nv + len(edges)
        e2g = np.column_stack([mesh.elements, nv + edge_ids]).astype(np.int64)
        aux = {"edges": edges, "n_vertices": nv}
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
                        # the facet's edge lies opposite the owner's vertex off the facet
                        off = [i for i, n in enumerate(mesh.elements[f.element]) if n not in f.nodes]
                        if len(off) != 1:
                            raise ValueError(f"facet {f.nodes} is not an edge of element {f.element}")
                        constrained.add(int(e2g[f.element, 3 + off[0]]))
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
