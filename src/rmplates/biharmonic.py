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

Each plate family names its limit in `rm_system.FAMILIES`; hard rigid and
weak Neumann have no standard biharmonic limit and are rejected.
"""

from enum import Enum

import numpy as np

from .assemble import Pencil, assemble_pencil, element_batch, mass_density
from .errors import UnsupportedLimitError
from .geometry import ElementKind, Mesh
from .quadrature import triangle_rule
from .rm_system import FAMILIES, BcFamily
from .spaces import MORLEY, build_dofmap


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


def map_limit_bc(bc: BcFamily) -> LimitBc:
    """Thin-plate limit family of a Reissner-Mindlin BC family (`FAMILIES`)."""
    bc = BcFamily(bc)
    if FAMILIES[bc].limit is None:
        raise UnsupportedLimitError(
            f"{bc.value} leads to a non-standard limit problem (u constant per "
            "boundary component); not discretized"
        )
    return LimitBc(FAMILIES[bc].limit)


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

    rule = triangle_rule()

    def blocks(cells):
        batch = element_batch(mesh, MORLEY, rule, cells)
        # the Hessians are constant per element: one product, times the element's weight sum
        H = batch.hess[:, 0].reshape(len(batch.w), 6, 4)
        lap = H[..., 0] + H[..., 3]
        bend = H @ H.transpose(0, 2, 1)
        bend *= 1.0 - sigma
        bend += sigma * (lap[:, :, None] * lap[:, None, :])
        bend *= (pref * batch.w.sum(axis=1))[:, None, None]
        return bend, mass_density(batch)

    return assemble_pencil(mesh, dofmap, blocks)

