"""Element spaces and degree-of-freedom maps with essential-constraint lists.

Supported spaces: bilinear Q1 (scalar and 2-vector) on quads, P2 on
segments, and the Morley triangle (vertex values plus edge-midpoint normal
derivatives).  Essential conditions are realized by collecting the
constrained global dofs; a pencil scattered over all dofs is restricted to
the free ones, so all reduced matrices stay symmetric definite.  Every dof
has a point, from which `nested_dissection` numbers the dofs of a plate.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ElementKind, Mesh


class SpaceKind(str, Enum):
    Q1_SCALAR = "q1_scalar"
    Q1_VECTOR2 = "q1_vector2"
    P2_1D = "p2_1d"
    MORLEY = "morley"

    @property
    def element_kind(self) -> ElementKind:
        return _ELEMENT_KIND[self]


_ELEMENT_KIND = {
    SpaceKind.Q1_SCALAR: ElementKind.QUAD4,
    SpaceKind.Q1_VECTOR2: ElementKind.QUAD4,
    SpaceKind.P2_1D: ElementKind.SEGMENT,
    SpaceKind.MORLEY: ElementKind.TRI3,
}

Q1_SCALAR, Q1_VECTOR2, P2_1D, MORLEY = SpaceKind

#: parts of at most this many points are not bisected further
ND_LEAF = 16


@dataclass
class DofMap:
    """Global dof layout of one space on one mesh.

    `element_to_global` holds the global index of every local dof,
    `constrained` the sorted global dofs fixed to zero, `points` the
    position (n_dofs, dim) of every dof, `offsets` the first dof of every
    block of a stacked dofmap and then n_dofs (None unstacked), and `free`
    the free dofs in the order of a pencil's rows: by default the global
    order.  Vectors cross that order only by `restrict` and `expand`.  A
    dofmap is not changed after construction, so `free` is read-only.
    """

    n_dofs: int
    element_to_global: np.ndarray
    constrained: np.ndarray
    points: np.ndarray
    offsets: np.ndarray = None
    free: np.ndarray = None

    def __post_init__(self):
        if self.free is None:
            self.free = np.setdiff1d(np.arange(self.n_dofs), self.constrained, assume_unique=True)
        self.free.flags.writeable = False

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full)[self.free]

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """`reduced`, a vector or a block of columns, over all dofs: zero on the constrained ones."""
        full = np.zeros((self.n_dofs,) + np.shape(reduced)[1:])
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


def build_dofmap(mesh: Mesh, space: SpaceKind, essential=False) -> DofMap:
    """Dof map for `space` on `mesh` with essential conditions applied.

    `essential` is a bool mask that broadcasts to (n_facets, n_components):
    `True` at (facet, component) fixes that component's dofs on the facet,
    so `True` alone clamps every facet and `False` none.  Components are
    cartesian field components for vector spaces; for Morley, component 0
    selects the vertex values and component 1 the edge-midpoint normal
    derivative of the facet's edge.
    """
    if space.element_kind != mesh.element_kind:
        raise ValueError(f"{space.value} is not compatible with {mesh.element_kind.value} meshes")
    mask = np.asarray(essential)
    if mask.dtype != bool:
        raise TypeError(f"essential must be a bool mask over (facet, component), not {type(essential).__name__}")
    nv, x = mesh.n_nodes, mesh.nodes
    elements = mesh.elements.astype(np.int64)
    if space == SpaceKind.Q1_SCALAR:
        n_dofs, e2g, points = nv, elements, x
    elif space == SpaceKind.Q1_VECTOR2:
        n_dofs, e2g, points = 2 * nv, np.concatenate([elements, elements + nv], axis=1), np.concatenate([x, x])
    else:  # a dof per node, then one per segment (P2) or edge (Morley), at its midpoint
        pairs, pair_ids = (elements, np.arange(mesh.n_elements)) if space == SpaceKind.P2_1D else edge_table(mesh)
        n_dofs, e2g = nv + len(pairs), np.column_stack([elements, nv + pair_ids])
        points = np.concatenate([x, 0.5 * (x[pairs[:, 0]] + x[pairs[:, 1]])])

    facets = mesh.facets
    ncomp = 2 if space in (SpaceKind.Q1_VECTOR2, SpaceKind.MORLEY) else 1
    mask = np.broadcast_to(mask, (len(facets), ncomp))
    if space == SpaceKind.MORLEY:
        # the facet's edge lies opposite the owner's one vertex off the facet
        owner = elements[facets.element]
        off = ~np.any(owner[:, :, None] == facets.nodes[:, None, :], axis=2)
        bad = np.nonzero(mask[:, 1] & (off.sum(axis=1) != 1))[0]
        if len(bad):
            raise ValueError(f"facet {facets.nodes[bad[0]]} is not an edge of element {facets.element[bad[0]]}")
        edge_dofs = e2g[facets.element, 3 + np.argmax(off, axis=1)]
        picked = [facets.nodes[mask[:, 0]].ravel(), edge_dofs[mask[:, 1]]]
    else:
        picked = [c * nv + facets.nodes[mask[:, c]].ravel() for c in range(ncomp)]
    return DofMap(n_dofs, e2g, np.unique(np.concatenate(picked)).astype(np.int64), points)


def stack_dofmaps(dofmaps) -> DofMap:
    """Block layout combining several dofmaps; blocks keep their order."""
    offsets = np.cumsum([0] + [dm.n_dofs for dm in dofmaps])
    e2g = np.concatenate([dm.element_to_global + off for dm, off in zip(dofmaps, offsets)], axis=1)
    constrained = np.concatenate([dm.constrained + off for dm, off in zip(dofmaps, offsets)])
    points = np.concatenate([dm.points for dm in dofmaps])
    return DofMap(int(offsets[-1]), e2g, np.sort(constrained).astype(np.int64), points, offsets)


def nested_dissection(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the dofs at `points` (n, dim) (George, "Nested
    dissection of a regular finite element mesh", SIAM J. Numer. Anal. 10, 1973).

    The distinct points are ordered, each followed by its dofs.  All parts of
    one depth are cut at once, each across the longer side of its box at the
    middle line through `nodes` inside it, which no element crosses: the
    points below the line come first, then those above, those on it last.  A
    part of at most ND_LEAF points, or with no node line inside, keeps its
    row order.
    """
    dim, o = points.shape[1], np.lexsort(points.T)
    sorted_points = points[o]
    new = np.r_[True, np.any(sorted_points[1:] != sorted_points[:-1], axis=1)]
    point = np.empty(len(o), np.intp)  # the distinct point of each dof
    point[o] = np.cumsum(new) - 1
    pts, lines = sorted_points[new], [np.unique(nodes[:, a]) for a in range(dim)]
    # per part: its first position and box; per point still to order: its part
    start, box = np.zeros(1, np.intp), np.array([[xs[0] for xs in lines], [xs[-1] for xs in lines]])[..., None]
    active, part, key = np.arange(len(pts)), np.zeros(len(pts), np.intp), np.empty(len(pts), np.intp)
    while len(active):
        axis, cut = np.argmax(box[1] - box[0], axis=0), np.full(len(start), np.nan)
        for a, xs in enumerate(lines):
            lo, hi = np.searchsorted(xs, box[0, a], "right"), np.searchsorted(xs, box[1, a], "left")
            inside = (axis == a) & (hi > lo)
            cut[inside] = xs[(lo + hi)[inside] // 2]
        cut[np.bincount(part, minlength=len(start)) <= ND_LEAF] = np.nan  # a leaf
        x, c = pts.ravel()[dim * active + axis[part]], cut[part]
        above = x > c
        done = ~((x < c) | above)  # in a leaf or on a cut line
        # part p's children: 2p below the cut, in the lower half of its box, and 2p + 1 above it
        child = (2 * part + above)[~done]
        size = np.bincount(child, minlength=2 * len(start))
        key[active[done]] = (start + size[0::2] + size[1::2])[part[done]]  # the first position of their set
        box, used, k = np.repeat(box, 2, axis=2), size > 0, np.arange(len(start))
        box[1, axis, 2 * k] = box[0, axis, 2 * k + 1] = cut
        start, box = np.stack([start, start + size[0::2]], axis=1).ravel()[used], box[:, :, used]
        active, part = active[~done], (np.cumsum(used) - 1)[child]
    return np.lexsort((point, key[point]))
