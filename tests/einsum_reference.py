"""Reference Q1 tabulation, Reissner-Mindlin kernels and scatters.

The package computes these blocks from scalar Q1 batches, in numpy's einsum
order, and scatters loads with `np.bincount`.  This module keeps the
zero-padded vector-batch einsums they replace, the matrix scatter that
repeats the full index grid of every element and the `np.add.at` load
scatter, so `test_bit_identity.py` can assert that both give the same bits.
Nothing in the package imports it.
"""

import numpy as np
import scipy.sparse as sp

from rmplates.assemble import q1_ref_basis
from rmplates.errors import AssemblyError
from rmplates.quadrature import quad_rule, shear_rule_x, shear_rule_y


def quad_geometry(mesh, quad):
    """(x, w, phi, grad) of all quad elements at the points of `quad`."""
    phi, dphi = q1_ref_basis(quad.points)
    X = mesh.nodes[mesh.elements]
    J = np.einsum("eia,qib->eqab", X, dphi)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    invJ = np.empty_like(J)
    invJ[..., 0, 0] = J[..., 1, 1] / detJ
    invJ[..., 0, 1] = -J[..., 0, 1] / detJ
    invJ[..., 1, 0] = -J[..., 1, 0] / detJ
    invJ[..., 1, 1] = J[..., 0, 0] / detJ
    x = np.einsum("qi,eia->eqa", phi, X)
    w = quad.weights[None, :] * detJ
    grad = np.einsum("eqba,qib->eqia", invJ, dphi)
    return x, w, phi, grad


def vector_batch(mesh, quad):
    """Q1 2-vector batch (x, w, phi (ne,nq,8,2), grad (ne,nq,8,2,2)), dofs
    [x-component at 4 nodes, y-component at 4 nodes], zero-padded."""
    x, w, phi, grad = quad_geometry(mesh, quad)
    ne, nq = w.shape
    phi_e = np.broadcast_to(phi[None, :, :], (ne, nq, 4))
    vphi = np.zeros((ne, nq, 8, 2))
    vgrad = np.zeros((ne, nq, 8, 2, 2))
    for c in range(2):
        vphi[:, :, 4 * c : 4 * c + 4, c] = phi_e
        vgrad[:, :, 4 * c : 4 * c + 4, c, :] = grad
    return x, w, vphi, vgrad


def rm_local_matrices(mesh, params):
    """12x12 (bending, shear, mass) blocks over [beta_x(4), beta_y(4), w(4)]."""
    _, w, vphi, vgrad = vector_batch(mesh, quad_rule(2))
    ne = w.shape[0]
    scalar_phi = vphi[..., :4, 0]
    eps = 0.5 * (vgrad + np.swapaxes(vgrad, -1, -2))
    div = vgrad[..., 0, 0] + vgrad[..., 1, 1]
    sig = params.sigma
    bend = np.zeros((ne, 12, 12))
    bend[:, :8, :8] = params.bending_factor * (
        (1.0 - sig) * np.einsum("eq,eqicd,eqjcd->eij", w, eps, eps) + sig * np.einsum("eq,eqi,eqj->eij", w, div, div)
    )
    t2_12 = params.t**2 / 12.0
    mass = np.zeros((ne, 12, 12))
    mass[:, :8, :8] = t2_12 * np.einsum("eq,eqic,eqjc->eij", w, vphi, vphi)
    mass[:, 8:, 8:] = np.einsum("eq,eqi,eqj->eij", w, scalar_phi, scalar_phi)
    shear = np.zeros((ne, 12, 12))
    for rule, comp in ((shear_rule_x(), 0), (shear_rule_y(), 1)):
        _, ws, vphis, vgrads = vector_batch(mesh, rule)
        gam = np.zeros(ws.shape + (12,))
        gam[..., :8] = -vphis[..., comp]
        gam[..., 8:] = vgrads[..., :4, 0, comp]
        shear += np.einsum("eq,eqi,eqj->eij", ws, gam, gam)
    shear *= params.shear_factor
    return bend, shear, mass


def rm_load_local(mesh, params, F, f):
    """Per-element 12-vectors of the callable load (t^2/12 F, f)."""
    x, w, vphi, _ = vector_batch(mesh, quad_rule(3))
    loc = np.zeros((w.shape[0], 12))
    loc[:, :8] = params.t**2 / 12.0 * np.einsum("eq,eqc,eqic->ei", w, F(x), vphi)
    loc[:, 8:] = np.einsum("eq,eq,eqi->ei", w, f(x), vphi[..., :4, 0])
    return loc


def korn_blocks(mesh):
    """8x8 (|D eta|^2, eps:eps, |eta|^2) blocks of the Korn quotient."""
    _, w, vphi, vgrad = vector_batch(mesh, quad_rule(2))
    eps = 0.5 * (vgrad + np.swapaxes(vgrad, -1, -2))
    return (
        np.einsum("eq,eqicd,eqjcd->eij", w, vgrad, vgrad),
        np.einsum("eq,eqicd,eqjcd->eij", w, eps, eps),
        np.einsum("eq,eqic,eqjc->eij", w, vphi, vphi),
    )


def assemble_from_local(dofmap, *stacks):
    """Symmetric CSR matrices of per-element stacks over all dofs, from the
    lower triangle of the full (ne, nloc, nloc) index grid and of the
    symmetrized stacks."""
    gi = dofmap.element_to_global  # (ne, nloc)
    rows = np.repeat(gi[:, :, None], gi.shape[1], axis=2).ravel()
    cols = np.repeat(gi[:, None, :], gi.shape[1], axis=1).ravel()
    keep = rows >= cols
    rows, cols = rows[keep], cols[keep]
    n = dofmap.n_dofs
    matrices = []
    for local in stacks:
        bad = np.nonzero(~np.all(np.isfinite(local.reshape(len(local), -1)), axis=1))[0]
        if len(bad):
            raise AssemblyError(int(bad[0]), "local matrix has a non-finite entry")
        vals = (0.5 * (local + np.transpose(local, (0, 2, 1)))).ravel()[keep]
        lower = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        lower.sum_duplicates()
        lower.eliminate_zeros()
        matrices.append((lower + sp.tril(lower, k=-1).T).tocsr())
    return matrices[0] if len(matrices) == 1 else tuple(matrices)


def assemble_load_from_local(dofmap, local):
    """Per-element load vectors (ne, nloc) added into a zero vector over all
    dofs, one entry at a time in element order."""
    load = np.zeros(dofmap.n_dofs)
    np.add.at(load, dofmap.element_to_global.ravel(), local.ravel())
    return load
