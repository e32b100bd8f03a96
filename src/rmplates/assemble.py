"""Sparse symmetric Galerkin assembly over batched element bases.

`element_batch` tabulates basis values, gradients (and Hessians for Morley,
whose basis is in closed barycentric form) of one scalar space at the
quadrature points of a range of elements at once; densities (`point_gram`)
turn a batch into per-element matrices, those of a vector field from the
batch of its components, and
`assemble_from_local` scatters them into symmetric CSR matrices over all
dofs of a dofmap.  Every assembler hands `assemble_pencil` a function of
an element range that tabulates the range once and returns its local
blocks, and gets the shifted `Pencil` on the free dofs: a
boundary condition reaches a matrix only by that restriction, which also
numbers a plate in nested-dissection order.  Symmetry is structural: only
the lower triangle is accumulated, then mirrored.  Memory: local blocks
exist one chunk (`chunk_elements`) at a time, the lower triangle's
values go straight to their CSR rows, the mirror adds to each summed
lower triangle its strict transpose, and the cut to the free dofs gathers
the rows it keeps and sorts their renamed columns in place.  So an
assembly peaks at a small multiple of its pencil: under three stacks of
local blocks for RM.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .eigensolve import Factor, factorize, ordering
from .errors import AssemblyError
from .geometry import ElementKind, Mesh
from .quadrature import QuadratureRule, quad_rule, segment_rule, triangle_rule
from .spaces import DofMap, SpaceKind, edge_normal, nested_dissection


@dataclass
class ElementBatch:
    """Tabulated scalar basis data: x (ne,nq,dim), w (ne,nq) with Jacobians
    folded in, phi (ne,nq,nloc) and grad (ne,nq,nloc,dim), which
    `compute_grad` makes on first use: loads and the connecting system never
    read it.  Morley additionally carries hess (ne,nq,nloc,dim,dim),
    constant in q.
    """

    x: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    compute_grad: Callable[[], np.ndarray] = field(repr=False)
    hess: np.ndarray = None

    @cached_property
    def grad(self) -> np.ndarray:
        return self.compute_grad()

    def points(self, picked: slice) -> "ElementBatch":
        """The batch at the quadrature points `picked` of a Q1 batch."""
        return ElementBatch(self.x[:, picked], self.w[:, picked], self.phi[:, picked], lambda: self.grad[:, picked])


def default_rule(space: SpaceKind) -> QuadratureRule:
    kind = space.element_kind
    if kind == ElementKind.QUAD4:
        return quad_rule(2)
    if kind == ElementKind.SEGMENT:
        return segment_rule(3)
    return triangle_rule()


def q1_ref_basis(points: np.ndarray):
    """Bilinear shape functions and reference gradients on [-1,1]^2."""
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    xi, eta = points[:, 0][:, None], points[:, 1][:, None]
    cx, cy = corners[:, 0][None, :], corners[:, 1][None, :]
    phi = 0.25 * (1.0 + xi * cx) * (1.0 + eta * cy)
    dphi = np.empty((len(points), 4, 2))
    dphi[:, :, 0] = 0.25 * cx * (1.0 + eta * cy)
    dphi[:, :, 1] = 0.25 * cy * (1.0 + xi * cx)
    return phi, dphi


_COFACTOR_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def quad_geometry(mesh: Mesh, quad: QuadratureRule, cells: slice = slice(None)):
    """Isoparametric geometry at quadrature points of the quad elements
    `cells`: x, w, phi and a function computing the physical gradients,
    which cost as much as the rest; every sum runs from zero in index order."""
    phi, dphi = q1_ref_basis(quad.points)
    X = mesh.nodes[mesh.elements[cells]]  # (ne, 4, 2)
    x = sum(phi[:, i, None] * X[:, i, None, :] for i in range(4))  # (ne, nq, 2)
    J = sum(X[:, i, None, :, None] * dphi[:, i, None, :] for i in range(4))  # J[e, q, a, b] = dx_a / dxi_b
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    bad = np.nonzero(~np.all(detJ > 0, axis=1))[0]
    if len(bad):
        raise AssemblyError((cells.start or 0) + int(bad[0]), "non-positive Jacobian")
    w = quad.weights[None, :] * detJ

    def grad():
        # invJ[e, q, b, a] = (J^{-1})_ba: the cofactors J_11, -J_01, -J_10, J_00 over detJ
        invJ = J[..., ::-1, ::-1].swapaxes(2, 3) * _COFACTOR_SIGN / detJ[..., None, None]
        # physical gradient: (J^{-T} grad_ref)_a = invJ[b,a] dphi[b]
        return sum(invJ[:, :, None, b, :] * dphi[:, :, b, None] for b in range(2))

    return x, w, phi, grad


def p2_ref_basis(xi: np.ndarray):
    """Quadratic shapes on [0,1] in local order (left, right, mid) along a new last axis."""
    phi = np.stack([(1 - xi) * (1 - 2 * xi), xi * (2 * xi - 1), 4 * xi * (1 - xi)], axis=-1)
    dphi = np.stack([4 * xi - 3, 4 * xi - 1, 4 - 8 * xi], axis=-1)
    return phi, dphi


def morley_batch(mesh: Mesh, quad: QuadratureRule, cells: slice) -> ElementBatch:
    """The Morley basis of the elements `cells` in closed form (Wang & Xu,
    Numer. Math. 103, 2006).  Dofs: vertex values, then normal derivatives
    along the global normals n_j at the midpoints of the edges opposite
    vertices 0, 1, 2.  With barycentric l_i and G_ij = grad l_i . n_j, the
    edge shapes are psi_j = c_j l_j (l_j - 1), c_j = -1 / G_jj, and the
    vertex shapes phi_i = l_i - sum_j G_ij psi_j.  A triangle whose area is
    zero up to round-off, or not finite, raises `AssemblyError`."""
    elements = mesh.elements[cells]
    X = mesh.nodes[elements]  # (ne, 3, 2)
    e1, e2 = X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]  # twice the signed area
    # a non-finite coordinate makes the bound inf or NaN, which fails the comparison too
    bad = np.flatnonzero(~(np.abs(area2) > 8 * np.finfo(float).eps * np.hypot(*e1.T) * np.hypot(*e2.T)))
    if len(bad):
        raise AssemblyError((cells.start or 0) + int(bad[0]), "zero or non-finite triangle area")
    lam = np.column_stack([1.0 - quad.points.sum(axis=1), quad.points])  # barycentric, (nq, 3)
    x = np.einsum("qk,eka->eqa", lam, X)
    w = quad.weights[None, :] * np.abs(area2)[:, None]
    edge = X[:, [2, 0, 1]] - X[:, [1, 2, 0]]  # opposite vertex i, from vertex i+1 to i+2
    dlam = np.stack([-edge[..., 1], edge[..., 0]], axis=-1) / area2[:, None, None]  # edge turned by +90 degrees
    G = np.einsum("eia,eja->eij", dlam, edge_normal(mesh, elements[:, [1, 2, 0]], elements[:, [2, 0, 1]]))
    c = -1.0 / np.einsum("eii->ei", G)

    def shapes(linear, psi):
        # the six shapes on axis 2 from l and psi, summing over j in index order, the same for any chunk
        Gj = G.reshape(G.shape + (1,) * (psi.ndim - 3))
        return np.concatenate([linear - sum(Gj[:, None, :, j] * psi[:, :, j, None] for j in range(3)), psi], axis=2)

    def grad():
        return shapes(dlam[:, None], (c[:, None] * (2.0 * lam - 1.0))[..., None] * dlam[:, None])

    phi = shapes(lam, c[:, None] * lam * (lam - 1.0))
    hess = shapes(0.0, 2.0 * c[:, None, :, None, None] * dlam[:, None, :, :, None] * dlam[:, None, :, None, :])
    return ElementBatch(x, w, phi, grad, hess=np.broadcast_to(hess, phi.shape + (2, 2)))


def element_batch(mesh: Mesh, space: SpaceKind, quad: QuadratureRule = None, cells: slice = slice(None)) -> ElementBatch:
    """The batch of the elements `cells` of `mesh`, by default all of them."""
    if quad is None:
        quad = default_rule(space)
    if space == SpaceKind.Q1_SCALAR:
        x, w, phi, grad = quad_geometry(mesh, quad, cells)
        return ElementBatch(x, w, np.broadcast_to(phi[None, :, :], w.shape + (4,)), grad)
    if space == SpaceKind.P2_1D:
        X = mesh.nodes[mesh.elements[cells]][..., 0]  # (ne, 2)
        h = X[:, 1] - X[:, 0]
        xi = quad.points[:, 0]
        x = X[:, 0][:, None] + h[:, None] * xi[None, :]
        w = quad.weights[None, :] * h[:, None]
        phi, dphi = p2_ref_basis(xi)
        grad = dphi[None, :, :, None] / h[:, None, None, None]
        return ElementBatch(x[..., None], w, np.broadcast_to(phi[None], w.shape + (3,)), lambda: grad)
    if space == SpaceKind.MORLEY:
        return morley_batch(mesh, quad, cells)
    raise ValueError(space)


def point_gram(w: np.ndarray, a: np.ndarray, b: np.ndarray = None) -> np.ndarray:
    """Per-element sums over the points q of w_q a_qi b_qj, shape (ne, n_a, n_b),
    summing a trailing component axis of a and b as well."""
    b = a if b is None else b
    return np.einsum("eq,eqi,eqj->eij" if a.ndim == 3 else "eq,eqid,eqjd->eij", w, a, b)


def mass_density(batch: ElementBatch) -> np.ndarray:
    return point_gram(batch.w, batch.phi)


def stiffness_density(batch: ElementBatch) -> np.ndarray:
    return point_gram(batch.w, batch.grad)


def strain_blocks(batch):
    """Per-element 8x8 blocks (eps:eps, div div) of a Q1 2-vector field over
    [x-component(4), y-component(4)], from the scalar Q1 batch.  eps_cd is
    (gx, gy/2, gy/2, 0) for an x-component basis function and (0, gx/2, gx/2,
    gy) for a y-component one; each point sums its (c, d) terms before it
    is added, which keeps the bits of the einsum over a zero-padded basis.
    """
    ne, nq = batch.w.shape
    xx, xy, yx, yy, exx, eyy = sums = np.zeros((6, ne, 4, 4))
    for q in range(nq):
        wq, gx, gy = batch.w[:, q, None], batch.grad[:, q, :, 0], batch.grad[:, q, :, 1]
        pxx, pxy, pyx, pyy = ((wq * a)[:, :, None] * b[:, None, :] for a, b in ((gx, gx), (gx, gy), (gy, gx), (gy, gy)))
        quarter = 0.25 * pyy  # (w gy/2) gy/2: scaling by a power of two does not round
        for total, point in zip(sums, (pxx, pxy, pyx, pyy, (pxx + quarter) + quarter, 0.5 * pxx + pyy)):
            total += point
    X, Y = slice(0, 4), slice(4, 8)
    # a mixed block's point term is 2 (w gy/2) gx/2 = pyx / 2, and halving commutes with the sum
    strain, div = np.zeros((2, ne, 8, 8))
    div[:, X, X], div[:, X, Y], div[:, Y, X], div[:, Y, Y] = xx, xy, yx, yy
    strain[:, X, X], strain[:, X, Y], strain[:, Y, X], strain[:, Y, Y] = exx, 0.5 * yx, 0.5 * xy, eyy
    return strain, div


#: local-matrix entries a stack of one chunk holds at least: 128 elements
#: of 12x12 blocks, 147 kB
CHUNK = 128 * 12 * 12


def chunk_elements(n_elements: int, nloc: int) -> int:
    """Elements per chunk of nloc x nloc local blocks: an eighth of the mesh,
    so that a chunk's blocks stay small next to its pencil, but at least
    CHUNK entries a stack, so that the calls a chunk costs stay small next
    to its arithmetic (a 128^2 plate's chunk stack is 2.4 MB)."""
    return max(CHUNK // nloc**2, n_elements // 8, 1)


def assemble_from_local(dofmap: DofMap, blocks: Callable[[slice], tuple]):
    """Scatter symmetric per-element matrices into canonical, exactly
    symmetric CSR matrices over all `dofmap.n_dofs` dofs, constrained or
    not.  `blocks(cells)` returns one stack of local matrices per matrix
    for the elements `cells`, and is called on chunks of `chunk_elements`,
    in element order; one matrix for one stack, else a tuple.

    The symmetrized lower triangle of each chunk goes straight to its slots
    in the rows of a CSR layout, each row in element order as scipy's COO
    conversion would fill it, so that scipy's duplicate summation gives its
    bits; each summed lower triangle L is then mirrored as
    `L + tril(L, -1).T`, which only moves entries: the strict upper
    triangle overlaps none of L's.  Raises `AssemblyError` naming the first
    element whose block holds a non-finite entry.
    """
    n, (ne, nloc) = dofmap.n_dofs, dofmap.element_to_global.shape
    gi = dofmap.element_to_global.astype(np.int32 if n < 2**31 else np.int64)  # scipy's index dtype
    # local row i of an element keeps the columns j with gi[j] <= gi[i]; the
    # (element, local row) pairs fill the rows in element order
    kept = (gi[:, :, None] >= gi[:, None, :]).sum(axis=2, dtype=np.int16).ravel()
    indptr = np.zeros(n + 1, gi.dtype)
    np.cumsum(np.bincount(gi.ravel(), kept, minlength=n).astype(gi.dtype), out=indptr[1:])
    order = np.argsort(gi, axis=None, kind="stable")
    shift = np.empty(gi.size, gi.dtype)  # a pair's first slot, less its first entry's index in element order
    shift[order] = np.cumsum(kept[order], dtype=gi.dtype) - kept[order]
    start = np.cumsum(kept, dtype=np.int64) - kept
    shift -= start.astype(gi.dtype)
    start = start[::nloc].copy()  # of each element's first entry
    del order
    step = chunk_elements(ne, nloc)
    chunks = [slice(lo, lo + step) for lo in range(0, ne, step)]

    def lower_slots(cells):
        """The lower-triangle mask of the elements `cells`, and the slots of its entries."""
        keep = gi[cells, :, None] >= gi[cells, None, :]
        pairs = slice(cells.start * nloc, cells.stop * nloc)
        slot = np.repeat(shift[pairs], kept[pairs])
        slot += np.arange(start[cells.start], start[cells.start] + len(slot), dtype=gi.dtype)
        return keep, slot

    data = None
    for cells in chunks:
        stacks = blocks(cells)
        keep, slot = lower_slots(cells)
        if data is None:
            data = [np.empty(indptr[-1]) for _ in stacks]
        for k, local in enumerate(stacks):
            bad = np.nonzero(~np.all(np.isfinite(local.reshape(len(local), -1)), axis=1))[0]
            if len(bad):
                raise AssemblyError(cells.start + int(bad[0]), "local matrix has a non-finite entry")
            vals = local[keep]
            vals += local.transpose(0, 2, 1)[keep]
            vals *= 0.5
            data[k][slot] = vals
        del stacks, local, vals
    indices = np.empty(indptr[-1], gi.dtype)  # made once the blocks are done, which need the memory more
    for cells in chunks:
        keep, slot = lower_slots(cells)
        indices[slot] = np.broadcast_to(gi[cells, None, :], keep.shape)[keep]
    del gi, kept, shift, start
    # sum duplicates in one triangle, then mirror: summing both rounds
    # differently per side.  The last matrix (a pencil's mass) is the
    # sparsest, so its sum runs while all value arrays live
    lower = [None] * len(data)
    for k in reversed(range(len(data))):
        lower[k] = sp.csr_matrix((data[k], indices if k == 0 else indices.copy(), indptr.copy()), shape=(n, n))
        data[k] = None
        lower[k].sum_duplicates()
        lower[k].eliminate_zeros()
        if lower[k].data.base is not None:  # scipy keeps views when half the entries remain: free the rest
            lower[k].data, lower[k].indices = lower[k].data.copy(), lower[k].indices.copy()
    del indices
    for k, low in enumerate(lower):  # each lower triangle goes once it is mirrored
        lower[k] = (low + sp.tril(low, -1).T).tocsr()
    return lower[0] if len(lower) == 1 else tuple(lower)


@dataclass
class Pencil:
    """Symmetric matrices (A, B) on `mesh` whose rows are the dofs
    `dofmap.free`, in that order.

    A stacked dofmap (`stack_dofmaps`) lays the fields out block after
    block.  `B_full` is the mass over all dofs in the global order.
    `factor`, the one LU of `A`, is made on first use and freed with the
    pencil: every source solve on the pencil and every Lanczos run handed
    it share that LU.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    mesh: Mesh
    dofmap: DofMap
    B_full: sp.csr_matrix = field(repr=False)

    @cached_property
    def factor(self) -> Factor:
        return factorize(self.A)

    def split(self, full_vector: np.ndarray):
        """Cut a full coefficient vector into the blocks of a stacked dofmap."""
        return tuple(np.split(full_vector, self.dofmap.offsets[1:-1]))

    def restrict(self, dofmap: DofMap) -> "Pencil":
        """The pencil on the free dofs of `dofmap`, a constrained version of
        this pencil's dof layout, in this pencil's order."""
        keep = np.flatnonzero(~np.isin(self.dofmap.free, dofmap.constrained))
        layout = replace(dofmap, free=self.dofmap.free[keep])
        return Pencil(_cut(self.A, keep), _cut(self.B, keep), self.mesh, layout, self.B_full)


def _cut(M, rows) -> sp.csr_matrix:
    """M[rows][:, rows] in canonical CSR, for an exactly symmetric canonical
    M: its rows in order, their columns renamed to positions in `rows`
    (those of no position dropped), then sorted in place.  All rows in
    order give M itself."""
    n = M.shape[0]
    if len(rows) == n and np.array_equal(rows, np.arange(n)):
        return M
    position = np.full(n, -1, M.indices.dtype)
    position[rows] = np.arange(len(rows))
    gathered = M[rows]
    data, indices, indptr = gathered.data, position[gathered.indices], gathered.indptr
    del gathered
    if len(rows) < n:
        kept = indices >= 0
        indptr = np.r_[0, np.cumsum(kept, dtype=indptr.dtype)][indptr]
        data = data[kept]  # one array at a time, each freeing its uncut one
        indices = indices[kept]
    cut = sp.csr_matrix((data, indices, indptr), shape=(len(rows), len(rows)))
    cut.sort_indices()
    return cut


def assemble_pencil(mesh: Mesh, dofmap: DofMap, blocks: Callable[[slice], tuple]) -> Pencil:
    """The shifted pencil A = form + mass, B = mass of the per-element
    blocks `form, mass = blocks(cells)` of the elements `cells`, scattered
    chunk by chunk over all dofs and cut to the free dofs of `dofmap`, with
    the unrestricted B as `B_full`: a plate's (`eigensolve.ordering` of A)
    in `nested_dissection` order, a strip's or chain's in the global order.
    The mass is added to `form` in place, so return a temporary.
    """

    def shifted(cells):
        form, mass = blocks(cells)
        form += mass
        return form, mass

    A, B = assemble_from_local(dofmap, shifted)
    order = np.arange(dofmap.n_dofs) if ordering(A) == "COLAMD" else nested_dissection(dofmap.points, mesh.nodes)
    free = order[~np.isin(order, dofmap.constrained)]
    A = _cut(A, free)  # the full A goes once its cut is made
    return Pencil(A, _cut(B, free), mesh, replace(dofmap, free=free), B)


def assemble_load_from_local(dofmap: DofMap, local: np.ndarray) -> np.ndarray:
    """Scatter per-element load vectors (ne, nloc) over all dofs; `DofMap.restrict` cuts it."""
    return np.bincount(dofmap.element_to_global.ravel(), local.ravel(), minlength=dofmap.n_dofs)
