"""Morley discretization of the shifted Kirchhoff-Love plate pencil.

The operator E/(12(1-sigma^2)) Delta^2 u + u is assembled elementwise from

    (1-sigma) D^2 u : D^2 v + sigma (Delta u)(Delta v)

with the Morley triangle, whose nonconforming second derivatives are
constant per element.  Four limit boundary-condition families are realized
by selecting which Morley dofs are constrained on the boundary:

    clamped       vertex values and edge normal derivatives
    navier        vertex values only
    intermediate  edge normal derivatives only (Kuttler-Sigillito)
    free          none

The plate families with w free at the boundary (hard rigid, weak Neumann)
have no standard biharmonic limit and are rejected.
"""

from enum import Enum

import numpy as np

from .assemble import Pencil, assemble_load_from_local, assemble_pencil, element_batch, mass_density
from .eigensolve import sparse_solve
from .errors import UnsupportedLimitError
from .geometry import ElementKind, Mesh
from .quadrature import triangle_rule
from .rm_system import BcFamily
from .spaces import MORLEY, build_dofmap, edge_normal, edge_table


class LimitBc(str, Enum):
    CLAMPED = "clamped"
    NAVIER = "navier"
    INTERMEDIATE = "intermediate"
    FREE = "free"


# per family: essential (vertex values, edge normal derivatives)
_ESSENTIAL = {
    LimitBc.CLAMPED: (True, True),
    LimitBc.NAVIER: (True, False),
    LimitBc.INTERMEDIATE: (False, True),
    LimitBc.FREE: (False, False),
}

_LIMIT_MAP = {
    BcFamily.HARD_CLAMPED: LimitBc.CLAMPED,
    BcFamily.SOFT_CLAMPED: LimitBc.CLAMPED,
    BcFamily.HARD_SIMPLY_SUPPORTED: LimitBc.NAVIER,
    BcFamily.SOFT_SIMPLY_SUPPORTED: LimitBc.NAVIER,
    BcFamily.SOFT_RIGID: LimitBc.INTERMEDIATE,
    BcFamily.FREE: LimitBc.FREE,
}


def map_limit_bc(bc: BcFamily) -> LimitBc:
    """Thin-plate limit family of a Reissner-Mindlin BC family."""
    bc = BcFamily(bc)
    if bc not in _LIMIT_MAP:
        raise UnsupportedLimitError(
            f"{bc.value} leads to a non-standard limit problem (u constant per "
            "boundary component); not discretized"
        )
    return _LIMIT_MAP[bc]


def assemble_biharmonic_pencil(mesh: Mesh, E: float, sigma: float, bc: LimitBc) -> Pencil:
    """A = prefactor * bending + mass, B = mass, over the free Morley dofs."""
    if mesh.element_kind != ElementKind.TRI3:
        raise ValueError("the biharmonic pencil needs a triangle mesh (see split_quads)")
    if not (np.isfinite(E) and E > 0):
        raise ValueError("E must be finite and positive")
    if not -1.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (-1, 1)")
    dofmap = build_dofmap(mesh, MORLEY, np.array(_ESSENTIAL[LimitBc(bc)]))
    pref = E / (12.0 * (1.0 - sigma**2))

    batch = element_batch(mesh, MORLEY, triangle_rule(4))
    # the Hessians are constant per element: one product, times the element's weight sum
    H = batch.hess[:, 0].reshape(len(batch.w), 6, 4)
    lap = H[..., 0] + H[..., 3]
    bend = (1.0 - sigma) * (H @ H.transpose(0, 2, 1)) + sigma * (lap[:, :, None] * lap[:, None, :])
    return assemble_pencil(mesh, dofmap, (pref * batch.w.sum(axis=1))[:, None, None] * bend, mass_density(batch))


def solve_biharmonic_source(pencil: Pencil, f) -> np.ndarray:
    """Solve A u = (f, phi_i) for a callable or constant source f; returns
    the full Morley coefficient vector."""
    batch = element_batch(pencil.mesh, MORLEY, triangle_rule(4))
    fx = f(batch.x) if callable(f) else np.full(batch.w.shape, float(f))
    load = assemble_load_from_local(pencil.dofmap, np.einsum("eq,eq,eqi->ei", batch.w, fx, batch.phi))
    u = sparse_solve(pencil.A, pencil.dofmap.restrict(load))
    return pencil.dofmap.expand(u)


def morley_interpolate(mesh: Mesh, fn, grad_fn) -> np.ndarray:
    """Morley interpolant: vertex values of fn, edge-midpoint normal
    derivatives of grad_fn (with the global edge-normal convention)."""
    edges, _ = edge_table(mesh)
    vals = np.asarray(fn(mesh.nodes))
    mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    grads = np.asarray(grad_fn(mids))
    normals = edge_normal(mesh, edges[:, 0], edges[:, 1])
    return np.concatenate([vals, np.sum(grads * normals, axis=1)])


def vertex_values(mesh: Mesh, coeffs: np.ndarray) -> np.ndarray:
    """Morley vertex dofs are nodal values; convenience slice."""
    return coeffs[: mesh.n_nodes]
