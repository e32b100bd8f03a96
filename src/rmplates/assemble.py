"""Sparse symmetric Galerkin assembly over batched element bases.

`element_batch` tabulates basis values, gradients (and Hessians for Morley)
of one scalar space at the quadrature points of every element at once;
densities (`point_gram`) turn a batch into per-element matrices, those of a
vector field from the batch of its components, and `assemble_from_local`
scatters them into symmetric CSR matrices over all dofs of a dofmap.  Every
assembler tabulates a mesh once per quadrature rule, computes all of its
local blocks from that batch, and makes them the shifted `Pencil` on the
free dofs with `assemble_pencil`: a boundary condition reaches a matrix
only by that restriction, which also numbers a plate in nested-dissection
order.  Symmetry is structural: only the lower triangle is accumulated,
then mirrored.  Memory: the scatter's index arrays are broadcast views of
the element-to-global map cut by one mask, each stack is symmetrized on
the kept entries only, and assemblers sum their stacks in place, freeing
the summands before the scatter.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .eigensolve import ordering
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


def quad_geometry(mesh: Mesh, quad: QuadratureRule):
    """Isoparametric geometry at quadrature points of all quad elements: x,
    w, phi and a function computing the physical gradients, which cost as
    much as the rest; every sum runs from zero in index order."""
    phi, dphi = q1_ref_basis(quad.points)
    X = mesh.nodes[mesh.elements]  # (ne, 4, 2)
    node = [(X[:, i, 0, None], X[:, i, 1, None]) for i in range(4)]  # (ne, 1) per node and axis
    x = np.stack([sum(phi[:, i] * node[i][a] for i in range(4)) for a in range(2)], axis=-1)
    J = [[sum(node[i][a] * dphi[:, i, b] for i in range(4)) for b in range(2)] for a in range(2)]  # (ne, nq) each
    detJ = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    bad = np.nonzero(~np.all(detJ > 0, axis=1))[0]
    if len(bad):
        raise AssemblyError(int(bad[0]), "non-positive Jacobian")
    w = quad.weights[None, :] * detJ

    def grad():
        invJ = [[J[1][1] / detJ, -J[0][1] / detJ], [-J[1][0] / detJ, J[0][0] / detJ]]
        # physical gradient: (J^{-T} grad_ref)_a = invJ[b,a] dphi[b]
        return np.stack([sum(invJ[b][a][:, :, None] * dphi[:, :, b] for b in range(2)) for a in range(2)], axis=-1)

    return x, w, phi, grad


def p2_ref_basis(xi: np.ndarray):
    """Quadratic shapes on [0,1] in local order (left, right, mid) along a new last axis."""
    phi = np.stack([(1 - xi) * (1 - 2 * xi), xi * (2 * xi - 1), 4 * xi * (1 - xi)], axis=-1)
    dphi = np.stack([4 * xi - 3, 4 * xi - 1, 4 - 8 * xi], axis=-1)
    return phi, dphi


def morley_element_basis(mesh: Mesh):
    """Per-element Morley coefficients in centroid-centred scaled monomials.

    Dofs: values at the three vertices, then normal derivatives (with the
    global edge-normal convention) at the midpoints of the edges opposite
    vertices 0, 1, 2.  Returns (coeffs (ne,6,6), centres, scales).
    """
    X = mesh.nodes[mesh.elements]  # (ne, 3, 2)
    ne = X.shape[0]
    centres = X.mean(axis=1)
    e1 = X[:, 1] - X[:, 0]
    e2 = X[:, 2] - X[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    scales = np.sqrt(2.0 * area)

    D = np.zeros((ne, 6, 6))
    U = (X - centres[:, None, :]) / scales[:, None, None]
    for k in range(3):
        u, v = U[:, k, 0], U[:, k, 1]
        D[:, k, :] = np.stack([np.ones(ne), u, v, u * u, u * v, v * v], axis=1)
    local_edges = [(1, 2), (2, 0), (0, 1)]
    ends = np.array(local_edges).T
    normals = edge_normal(mesh, mesh.elements[:, ends[0]], mesh.elements[:, ends[1]])  # (ne, 3, 2)
    for k, (a, b) in enumerate(local_edges):
        mid = 0.5 * (X[:, a] + X[:, b])
        m = (mid - centres) / scales[:, None]
        u, v = m[:, 0], m[:, 1]
        zeros = np.zeros(ne)
        dmono_du = np.stack([zeros, np.ones(ne), zeros, 2 * u, v, zeros], axis=1)
        dmono_dv = np.stack([zeros, zeros, np.ones(ne), zeros, u, 2 * v], axis=1)
        # physical gradient carries 1/scale
        D[:, 3 + k, :] = (normals[:, k, 0:1] * dmono_du + normals[:, k, 1:2] * dmono_dv) / scales[:, None]
    try:
        coeffs = np.linalg.inv(D)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise AssemblyError(-1, f"Morley dof matrix singular: {exc}")
    return coeffs, centres, scales


_MONO_HESS = np.zeros((6, 2, 2))
_MONO_HESS[3] = [[2.0, 0.0], [0.0, 0.0]]
_MONO_HESS[4] = [[0.0, 1.0], [1.0, 0.0]]
_MONO_HESS[5] = [[0.0, 0.0], [0.0, 2.0]]


def morley_batch(mesh: Mesh, quad: QuadratureRule) -> ElementBatch:
    coeffs, centres, scales = morley_element_basis(mesh)
    X = mesh.nodes[mesh.elements]
    lam = np.column_stack([1.0 - quad.points.sum(axis=1), quad.points])  # barycentric
    x = np.einsum("qk,eka->eqa", lam, X)
    e1 = X[:, 1] - X[:, 0]
    e2 = X[:, 2] - X[:, 0]
    area2 = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    w = quad.weights[None, :] * area2[:, None]

    U = (x - centres[:, None, :]) / scales[:, None, None]
    u, v = U[..., 0], U[..., 1]
    one, zero = np.ones_like(u), np.zeros_like(u)
    mono = np.stack([one, u, v, u * u, u * v, v * v], axis=-1)  # (ne,nq,6)
    phi = np.einsum("eqm,emi->eqi", mono, coeffs)
    hess = np.einsum("mab,emi->eiab", _MONO_HESS, coeffs) / (scales**2)[:, None, None, None]
    hess = np.broadcast_to(hess[:, None, :, :, :], (X.shape[0], len(quad.weights), 6, 2, 2))

    def grad():
        dmono = np.stack(
            [
                np.stack([zero, one, zero, 2 * u, v, zero], axis=-1),
                np.stack([zero, zero, one, zero, u, 2 * v], axis=-1),
            ],
            axis=-1,
        )  # (ne,nq,6,2) in scaled coords, made here so that the batch does not hold it
        return np.einsum("eqmd,emi->eqid", dmono, coeffs) / scales[:, None, None, None]

    return ElementBatch(x, w, phi, grad, hess=hess)


def element_batch(mesh: Mesh, space: SpaceKind, quad: QuadratureRule = None) -> ElementBatch:
    if quad is None:
        quad = default_rule(space)
    if space == SpaceKind.Q1_SCALAR:
        x, w, phi, grad = quad_geometry(mesh, quad)
        return ElementBatch(x, w, np.broadcast_to(phi[None, :, :], w.shape + (4,)), grad)
    if space == SpaceKind.P2_1D:
        X = mesh.nodes[mesh.elements][..., 0]  # (ne, 2)
        h = X[:, 1] - X[:, 0]
        xi = quad.points[:, 0]
        x = X[:, 0][:, None] + h[:, None] * xi[None, :]
        w = quad.weights[None, :] * h[:, None]
        phi, dphi = p2_ref_basis(xi)
        grad = dphi[None, :, :, None] / h[:, None, None, None]
        return ElementBatch(x[..., None], w, np.broadcast_to(phi[None], w.shape + (3,)), lambda: grad)
    if space == SpaceKind.MORLEY:
        return morley_batch(mesh, quad)
    raise ValueError(space)


def point_gram(w: np.ndarray, a: np.ndarray, b: np.ndarray = None) -> np.ndarray:
    """Per-element sums over the points q of (w_q a_qi) b_qj, shape (ne, n_a, n_b).
    A trailing component axis is summed at each point before the point is
    added: numpy's einsum order for "eq,eqi...,eqj...->eij", whose bits it
    keeps.  (Einsum sums a point from zero, which only turns a -0 into +0,
    and a sum started at +0 never holds -0, so adding either is the same.)
    """
    b = a if b is None else b
    if a.ndim == 3:
        a, b = a[..., None], b[..., None]
    out = np.zeros(w.shape[:1] + (a.shape[2], b.shape[2]))
    for q in range(w.shape[1]):
        wq = w[:, q, None]
        terms = [(wq * a[:, q, :, d])[:, :, None] * b[:, q, None, :, d] for d in range(a.shape[3])]
        out += sum(terms[1:], terms[0])
    return out


def mass_density(batch: ElementBatch) -> np.ndarray:
    return point_gram(batch.w, batch.phi)


def stiffness_density(batch: ElementBatch) -> np.ndarray:
    return point_gram(batch.w, batch.grad)


def strain_blocks(batch):
    """Per-element 8x8 blocks (eps:eps, div div) of a Q1 2-vector field over
    [x-component(4), y-component(4)], from the scalar Q1 batch.  eps_cd is
    (gx, gy/2, gy/2, 0) for an x-component basis function and (0, gx/2, gx/2,
    gy) for a y-component one; each point sums its (c, d) terms as in
    `point_gram`, which keeps the bits of the einsum over a zero-padded basis.
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


def assemble_from_local(dofmap: DofMap, *stacks: np.ndarray):
    """Scatter each stack of symmetric per-element matrices into a
    canonical, exactly symmetric CSR matrix over all `dofmap.n_dofs` dofs,
    constrained or not: one matrix for one stack, else a tuple.  The index
    arrays of the lower triangle are built once for all stacks.

    Raises `AssemblyError` naming the first element whose block holds a
    non-finite entry.
    """
    n = dofmap.n_dofs
    gi = dofmap.element_to_global.astype(np.int32 if n < 2**31 else np.int64)  # scipy's index dtype
    row, col = gi[:, :, None], gi[:, None, :]  # (ne, nloc, 1) and (ne, 1, nloc)
    keep = row >= col
    rows, cols = (np.broadcast_to(index, keep.shape)[keep] for index in (row, col))
    matrices = []
    for local in stacks:
        bad = np.nonzero(~np.all(np.isfinite(local.reshape(len(local), -1)), axis=1))[0]
        if len(bad):
            raise AssemblyError(int(bad[0]), "local matrix has a non-finite entry")
        vals = local[keep]
        vals += local.transpose(0, 2, 1)[keep]
        vals *= 0.5
        lower = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        lower.sum_duplicates()
        lower.eliminate_zeros()
        # sum duplicates in one triangle, then mirror: summing both rounds differently per side
        matrices.append((lower + sp.tril(lower, k=-1).T).tocsr())
    return matrices[0] if len(matrices) == 1 else tuple(matrices)


@dataclass
class Pencil:
    """Symmetric matrices (A, B) on `mesh` whose rows are the dofs
    `dofmap.free`, in that order.

    A stacked dofmap (`stack_dofmaps`) lays the fields out block after
    block.  `B_full` is the mass over all dofs in the global order.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    mesh: Mesh
    dofmap: DofMap
    params: object = None
    B_full: sp.csr_matrix = field(default=None, repr=False)

    def split(self, full_vector: np.ndarray):
        """Cut a full coefficient vector into the blocks of a stacked dofmap."""
        return tuple(np.split(full_vector, self.dofmap.aux["offsets"][1:-1]))

    def restrict(self, dofmap: DofMap) -> "Pencil":
        """The pencil on the free dofs of `dofmap`, a constrained version of
        this pencil's dof layout, in this pencil's order."""
        keep = np.flatnonzero(~np.isin(self.dofmap.free, dofmap.constrained))
        return _cut(self.A, self.B, keep, self.mesh, replace(dofmap, free=self.dofmap.free[keep]), self.params, self.B_full)


def _cut(A, B, rows, *pencil) -> Pencil:
    """The pencil of A[rows][:, rows] and B[rows][:, rows] in canonical
    CSR; all rows in order share A and B.  Both are exactly symmetric, so
    M[rows][:, rows] is the transpose of M[rows] cut at `rows`, which comes
    out with sorted indices and costs less than sorting a column cut."""
    if not np.array_equal(rows, np.arange(A.shape[0])):
        A, B = (M[rows].T.tocsr()[rows] for M in (A, B))
    return Pencil(A, B, *pencil)


def assemble_pencil(mesh: Mesh, dofmap: DofMap, form: np.ndarray, mass: np.ndarray, params=None) -> Pencil:
    """The shifted pencil A = form + mass, B = mass of per-element blocks,
    scattered over all dofs and cut to the free dofs of `dofmap`, with the
    unrestricted B as `B_full`: a plate's (`eigensolve.ordering` of A) in
    `nested_dissection` order, a strip's or chain's in the global order.
    The mass is added to `form` in place, so pass a temporary.
    """
    form += mass
    A, B = assemble_from_local(dofmap, form, mass)
    order = np.arange(dofmap.n_dofs) if ordering(A) == "COLAMD" else nested_dissection(dofmap.points, mesh.nodes)
    free = order[~np.isin(order, dofmap.constrained)]
    return _cut(A, B, free, mesh, replace(dofmap, free=free), params, B)


def assemble_load_from_local(dofmap: DofMap, local: np.ndarray) -> np.ndarray:
    """Scatter per-element load vectors (ne, nloc) over all dofs; `DofMap.restrict` cuts it."""
    load = np.zeros(dofmap.n_dofs)
    np.add.at(load, dofmap.element_to_global.ravel(), local.ravel())
    return load
