"""Sparse symmetric Galerkin assembly over batched element bases.

`element_batch` tabulates basis values, gradients (and Hessians for Morley)
of one space at the quadrature points of every element at once; densities
turn a batch into per-element matrices, and `assemble_from_local` scatters
them into a symmetric CSR matrix over all dofs of a dofmap.  Every assembler
tabulates a mesh once per quadrature rule, computes all of its local blocks
from that batch, and makes them the shifted `Pencil` on the free dofs with
`assemble_pencil`: a boundary condition reaches a matrix only by that
restriction.  Symmetry is structural: only the lower triangle is
accumulated, then mirrored.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .geometry import ElementKind, Mesh
from .quadrature import QuadratureRule, quad_rule, segment_rule, triangle_rule
from .spaces import DofMap, SpaceKind, edge_normal


@dataclass
class ElementBatch:
    """Tabulated basis data: x (ne,nq,dim), w (ne,nq) with Jacobians folded in.

    Scalar spaces: phi (ne,nq,nloc), grad (ne,nq,nloc,dim).
    Vector spaces: phi (ne,nq,nloc,ncomp), grad (ne,nq,nloc,ncomp,dim).
    Morley additionally carries hess (ne,nq,nloc,dim,dim).
    """

    x: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    grad: np.ndarray
    hess: np.ndarray = None


def default_rule(space: SpaceKind) -> QuadratureRule:
    kind = space.element_kind
    if kind == ElementKind.QUAD4:
        return quad_rule(2)
    if kind == ElementKind.SEGMENT:
        return segment_rule(3)
    return triangle_rule(4)


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
    """Isoparametric geometry at quadrature points of all quad elements."""
    phi, dphi = q1_ref_basis(quad.points)
    X = mesh.nodes[mesh.elements]  # (ne, 4, 2)
    J = np.einsum("eia,qib->eqab", X, dphi)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    bad = np.nonzero(~np.all(detJ > 0, axis=1))[0]
    if len(bad):
        raise AssemblyError(int(bad[0]), "non-positive Jacobian")
    invJ = np.empty_like(J)
    invJ[..., 0, 0] = J[..., 1, 1] / detJ
    invJ[..., 0, 1] = -J[..., 0, 1] / detJ
    invJ[..., 1, 0] = -J[..., 1, 0] / detJ
    invJ[..., 1, 1] = J[..., 0, 0] / detJ
    x = np.einsum("qi,eia->eqa", phi, X)
    w = quad.weights[None, :] * detJ
    # physical gradient: (J^{-T} grad_ref)_a = invJ[b,a] dphi[b]
    grad = np.einsum("eqba,qib->eqia", invJ, dphi)
    return x, w, phi, grad


def segment_geometry(mesh: Mesh, quad: QuadratureRule):
    X = mesh.nodes[mesh.elements][..., 0]  # (ne, 2)
    h = X[:, 1] - X[:, 0]
    xi = quad.points[:, 0]
    x = X[:, 0][:, None] + h[:, None] * xi[None, :]
    w = quad.weights[None, :] * h[:, None]
    return x[..., None], w, h


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
    dmono = np.stack(
        [
            np.stack([zero, one, zero, 2 * u, v, zero], axis=-1),
            np.stack([zero, zero, one, zero, u, 2 * v], axis=-1),
        ],
        axis=-1,
    )  # (ne,nq,6,2) in scaled coords
    phi = np.einsum("eqm,emi->eqi", mono, coeffs)
    grad = np.einsum("eqmd,emi->eqid", dmono, coeffs) / scales[:, None, None, None]
    hess = np.einsum("mab,emi->eiab", _MONO_HESS, coeffs) / (scales**2)[:, None, None, None]
    hess = np.broadcast_to(hess[:, None, :, :, :], (X.shape[0], len(quad.weights), 6, 2, 2))
    return ElementBatch(x, w, phi, grad, hess=hess)


def element_batch(mesh: Mesh, space: SpaceKind, quad: QuadratureRule = None) -> ElementBatch:
    if quad is None:
        quad = default_rule(space)
    if space in (SpaceKind.Q1_SCALAR, SpaceKind.Q1_VECTOR2):
        x, w, phi, grad = quad_geometry(mesh, quad)
        ne, nq = w.shape
        phi_e = np.broadcast_to(phi[None, :, :], (ne, nq, 4))
        if space == SpaceKind.Q1_SCALAR:
            return ElementBatch(x, w, phi_e, grad)
        # vector dofs: [x-component at 4 nodes, y-component at 4 nodes]
        vphi = np.zeros((ne, nq, 8, 2))
        vgrad = np.zeros((ne, nq, 8, 2, 2))
        for c in range(2):
            vphi[:, :, 4 * c : 4 * c + 4, c] = phi_e
            vgrad[:, :, 4 * c : 4 * c + 4, c, :] = grad
        return ElementBatch(x, w, vphi, vgrad)
    if space == SpaceKind.P2_1D:
        x, w, h = segment_geometry(mesh, quad)
        phi, dphi = p2_ref_basis(quad.points[:, 0])
        ne, nq = w.shape
        phi_e = np.broadcast_to(phi[None], (ne, nq, 3))
        grad = (dphi[None, :, :] / h[:, None, None])[..., None]
        return ElementBatch(x, w, phi_e, np.broadcast_to(grad, (ne, nq, 3, 1)))
    if space == SpaceKind.MORLEY:
        return morley_batch(mesh, quad)
    raise ValueError(space)


def mass_density(batch: ElementBatch) -> np.ndarray:
    if batch.phi.ndim == 4:
        return np.einsum("eq,eqic,eqjc->eij", batch.w, batch.phi, batch.phi)
    return np.einsum("eq,eqi,eqj->eij", batch.w, batch.phi, batch.phi)


def stiffness_density(batch: ElementBatch) -> np.ndarray:
    if batch.grad.ndim == 5:
        return np.einsum("eq,eqicd,eqjcd->eij", batch.w, batch.grad, batch.grad)
    return np.einsum("eq,eqid,eqjd->eij", batch.w, batch.grad, batch.grad)


def assemble_from_local(dofmap: DofMap, local: np.ndarray) -> sp.csr_matrix:
    """Scatter symmetric per-element matrices into a canonical, exactly
    symmetric CSR matrix over all `dofmap.n_dofs` dofs, constrained or not.

    Raises `AssemblyError` naming the first element whose block holds a
    non-finite entry.
    """
    bad = np.nonzero(~np.all(np.isfinite(local.reshape(len(local), -1)), axis=1))[0]
    if len(bad):
        raise AssemblyError(int(bad[0]), "local matrix has a non-finite entry")
    local = 0.5 * (local + np.transpose(local, (0, 2, 1)))
    gi = dofmap.element_to_global  # (ne, nloc)
    rows = np.repeat(gi[:, :, None], gi.shape[1], axis=2).ravel()
    cols = np.repeat(gi[:, None, :], gi.shape[1], axis=1).ravel()
    vals = local.ravel()
    keep = rows >= cols
    n = dofmap.n_dofs
    lower = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    lower.sum_duplicates()
    lower.eliminate_zeros()
    # sum duplicates in one triangle, then mirror: summing both rounds differently per side
    return (lower + sp.tril(lower, k=-1).T).tocsr()


@dataclass
class Pencil:
    """Symmetric matrices (A, B) over the free dofs of `dofmap` on `mesh`.

    A stacked dofmap (`stack_dofmaps`) lays the fields out block after
    block.  A pencil made by `restrict` keeps the mass of the pencil it was
    cut from as `B_full`.
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
        """The pencil `[free][:, free]` on the free dofs of `dofmap`, a
        constrained version of this pencil's dof layout."""
        free = dofmap.free
        return Pencil(self.A[free][:, free], self.B[free][:, free], self.mesh, dofmap, self.params, B_full=self.B)


def assemble_pencil(mesh: Mesh, dofmap: DofMap, form: np.ndarray, mass: np.ndarray, params=None) -> Pencil:
    """The shifted pencil A = form + mass, B = mass of per-element blocks.

    Both are scattered over all dofs, then restricted to the free dofs of
    `dofmap`, with the unrestricted mass as `B_full`.  The mass is added to
    `form` in place, so pass a temporary.
    """
    form += mass
    A, B = assemble_from_local(dofmap, form), assemble_from_local(dofmap, mass)
    return Pencil(A, B, mesh, dofmap, params).restrict(dofmap)


def assemble_load_from_local(dofmap: DofMap, local: np.ndarray) -> np.ndarray:
    """Scatter per-element load vectors (ne, nloc) over all dofs; `DofMap.restrict` cuts it."""
    load = np.zeros(dofmap.n_dofs)
    np.add.at(load, dofmap.element_to_global.ravel(), local.ravel())
    return load
