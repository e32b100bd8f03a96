"""The Reissner-Mindlin pencil with all eight boundary-condition families.

The plate is described by a rotation field beta (Q1 vector) and a transverse
displacement w (Q1 scalar).  The bilinear form is

    a(beta, eta) + E k / (2 (1+sigma) t^2) * (grad w - beta, grad v - eta)

with the elastic form

    a(beta, eta) = E / (12 (1-sigma^2)) *
                   integral( (1-sigma) eps(beta):eps(eta) + sigma div beta div eta ),

against the weighted mass  (w, v) + t^2/12 (beta, eta).  The pencil is
shifted: A adds the mass to the form, which makes it positive definite for
every family and moves the rigid-pair kernel (beta, w) = (a, a.x + b) to
the exact eigenvalue 1.  A family only chooses which traces are essential,
so its pencil is a restriction of the unconstrained one.

Shear locking is mitigated by reduced integration of the shear energy, with
the x-component sampled on the element midline xi = 0 and the y-component on
eta = 0; the bending and mass terms use full 2x2 Gauss.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .assemble import Pencil, assemble_pencil, element_batch, point_gram, strain_blocks
from .errors import UnsupportedConfigurationError
from .geometry import ElementKind, Mesh
from .quadrature import QuadratureRule, quad_rule, shear_rule_x, shear_rule_y
from .spaces import Q1_SCALAR, Q1_VECTOR2, DofMap, build_dofmap, stack_dofmaps
from .eigensolve import EigOptions, solve_gep_smallest, sparse_solve

_AXIS_TOL = 1e-9
#: a kernel eigenvalue of a shifted pencil sits this close to 1, the next one far above
KERNEL_TOL = 1e-6


@dataclass(frozen=True)
class MaterialParams:
    """Young modulus E, Poisson ratio sigma, shear correction k, thickness t."""

    E: float
    sigma: float
    k: float = 5.0 / 6.0
    t: float = 0.1

    def __post_init__(self):
        if not np.all(np.isfinite([self.E, self.sigma, self.k, self.t])):
            raise ValueError("E, sigma, k and t must be finite")
        if self.E <= 0:
            raise ValueError("E must be positive")
        if not -1.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie strictly in (-1, 1)")
        if self.k <= 0 or self.t <= 0:
            raise ValueError("k and t must be positive")

    @property
    def bending_factor(self) -> float:
        return self.E / (12.0 * (1.0 - self.sigma**2))

    @property
    def shear_factor(self) -> float:
        return self.E * self.k / (2.0 * (1.0 + self.sigma) * self.t**2)


class BcFamily(str, Enum):
    HARD_CLAMPED = "hard_clamped"
    SOFT_CLAMPED = "soft_clamped"
    HARD_SIMPLY_SUPPORTED = "hard_simply_supported"
    SOFT_SIMPLY_SUPPORTED = "soft_simply_supported"
    FREE = "free"
    HARD_RIGID = "hard_rigid"
    SOFT_RIGID = "soft_rigid"
    WEAK_NEUMANN = "weak_neumann"


class Family(NamedTuple):
    """One boundary family: the essential trace of the rotation field
    ("full", "normal", "tangential" or None), whether w is pinned, the
    dimension of the kernel at 1, and the `biharmonic.LimitBc` value of its
    Morley limit (None: no standard limit is discretized)."""

    trace: str | None
    w_pinned: bool
    kernel: int
    limit: str | None


FAMILIES = {
    BcFamily.HARD_CLAMPED: Family("full", True, 0, "clamped"),
    BcFamily.SOFT_CLAMPED: Family("normal", True, 0, "clamped"),
    BcFamily.HARD_SIMPLY_SUPPORTED: Family("tangential", True, 0, "navier"),
    BcFamily.SOFT_SIMPLY_SUPPORTED: Family(None, True, 0, "navier"),
    BcFamily.FREE: Family(None, False, 3, "free"),
    BcFamily.HARD_RIGID: Family("full", False, 1, None),
    BcFamily.SOFT_RIGID: Family("normal", False, 1, "intermediate"),
    BcFamily.WEAK_NEUMANN: Family("tangential", False, 1, None),
}


def _trace_mask(normals: np.ndarray, trace):
    """Essential mask over (facet, rotation component) of a trace: all
    components, none, or the normal or tangential one of an axis-aligned facet."""
    if trace in (None, "full"):
        return trace == "full"
    axis = np.argmax(np.abs(normals), axis=1)
    skew = np.nonzero(np.abs(np.abs(normals).max(axis=1) - 1.0) > _AXIS_TOL)[0]
    if len(skew):
        raise UnsupportedConfigurationError(
            f"normal/tangential traces need axis-aligned facets; got normal {normals[skew[0]]}"
        )
    normal = axis[:, None] == np.arange(2)
    return normal if trace == "normal" else ~normal


@dataclass
class FieldPair:
    """Coefficient vectors of (beta, w) over the full (unconstrained) dofs."""

    beta: np.ndarray
    w: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.beta, self.w])


# the 2x2 Gauss points, then the x-shear and the y-shear midline points: one
# tabulation serves the three rules, and gives each point the bits a
# tabulation of its own rule gives it, as every value at a point is
# computed from that point alone
_RULES = (quad_rule(2), shear_rule_x(), shear_rule_y())
_POINTS = QuadratureRule(np.concatenate([r.points for r in _RULES]), np.concatenate([r.weights for r in _RULES]))
_GAUSS, _SHEAR_X, _SHEAR_Y = slice(0, 4), slice(4, 6), slice(6, 8)


def rm_local_matrices(mesh: Mesh, params: MaterialParams, cells: slice = slice(None)):
    """12x12 blocks (bending, shear, mass) of the elements `cells` over the local dofs
    [beta_x(4), beta_y(4), w(4)], from one scalar Q1 batch at the points of the 2x2
    Gauss and the two shear rules; the rotation blocks are `strain_blocks` of the
    Gauss points."""
    batch = element_batch(mesh, Q1_SCALAR, _POINTS, cells)
    b = batch.points(_GAUSS)
    strain, div = strain_blocks(b)
    sig = params.sigma
    # bend = c ((1 - sig) strain + sig div), in place; each block is made when the one before is done
    strain *= 1.0 - sig
    div *= sig
    strain += div
    del div
    strain *= params.bending_factor
    bend = np.zeros((len(strain), 12, 12))
    bend[:, :8, :8] = strain
    del strain

    # mass: w v + t^2/12 beta.eta
    mass = np.zeros_like(bend)
    mass[:, 8:, 8:] = point_gram(b.w, b.phi)
    mass[:, :4, :4] = mass[:, 4:8, 4:8] = params.t**2 / 12.0 * mass[:, 8:, 8:]

    # reduced-integration shear gamma_c = d_c w - beta_c on its own midline, in the (beta_c, w) 4x4 blocks
    shear = np.zeros_like(bend)
    blocks = shear.reshape(len(shear), 3, 4, 3, 4)
    for points, comp, pick in ((_SHEAR_X, 0, slice(0, 3, 2)), (_SHEAR_Y, 1, slice(1, 3))):
        b = batch.points(points)
        blocks[:, pick, :, pick] += point_gram(b.w, np.concatenate([-b.phi, b.grad[..., comp]], 2)).reshape(-1, 2, 4, 2, 4)
    shear *= params.shear_factor
    return bend, shear, mass


def rm_dofmap(mesh: Mesh, bc: BcFamily) -> DofMap:
    """Stacked dofmap of one family: the rotation block ([beta_x nodes,
    beta_y nodes]) first, then the displacement block."""
    family = FAMILIES[BcFamily(bc)]
    rotation = build_dofmap(mesh, Q1_VECTOR2, _trace_mask(mesh.facets.normal, family.trace))
    return stack_dofmaps([rotation, build_dofmap(mesh, Q1_SCALAR, family.w_pinned)])


def assemble_rm_pencil(mesh: Mesh, params: MaterialParams, bc: BcFamily) -> Pencil:
    """Assemble the shifted Reissner-Mindlin pencil for one BC family.

    A = bending + shear + mass and B = mass; the family only selects the
    free dofs (`assemble_pencil`).
    """
    if mesh.element_kind != ElementKind.QUAD4 or mesh.dim != 2:
        raise ValueError("the plate system needs a 2D quad mesh")

    def blocks(cells):
        bend, shear, mass = rm_local_matrices(mesh, params, cells)
        bend += shear
        return bend, mass

    return assemble_pencil(mesh, rm_dofmap(mesh, bc), blocks)


def interpolate_pair(mesh: Mesh, beta_fn, w_fn) -> FieldPair:
    """Nodal interpolant of callable fields (beta_fn maps (n,2)->(n,2))."""
    x = mesh.nodes
    beta = np.asarray(beta_fn(x))
    w = np.asarray(w_fn(x))
    return FieldPair(np.concatenate([beta[:, 0], beta[:, 1]]), w)


def rigid_pair(mesh: Mesh, a, b: float) -> FieldPair:
    """The kernel pair beta = a, w = a.x + b."""
    a = np.asarray(a, dtype=float)
    return interpolate_pair(mesh, lambda x: np.broadcast_to(a, x.shape).copy(), lambda x: x @ a + b)


def rm_load_vector(pencil: Pencil, F: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Reduced load with the weighting (t^2/12 F, f) of the full-length
    coefficient vectors F (the rotation block: a plate's concatenated beta,
    the limit's Phi) and f of interpolants: their product with the mass."""
    return pencil.dofmap.restrict(pencil.B_full @ np.concatenate([F, f]))


def solve_source(pencil: Pencil, load: np.ndarray) -> np.ndarray:
    """The solution over all dofs of the shifted source problem with a
    reduced load, on the pencil's LU: the one place a load meets a pencil."""
    return pencil.dofmap.expand(sparse_solve(pencil.A, load, pencil.factor))


def solve_rm_source(pencil: Pencil, F: np.ndarray, f: np.ndarray) -> FieldPair:
    """Solve the shifted source problem with data (t^2/12 F, f) given as
    full-length coefficient vectors (`rm_load_vector`)."""
    return FieldPair(*pencil.split(solve_source(pencil, rm_load_vector(pencil, F, f))))


def at_one(eigenvalues) -> np.ndarray:
    """Mask of the kernel eigenvalues of a shifted pencil: those at 1 within KERNEL_TOL."""
    return np.abs(np.asarray(eigenvalues) - 1.0) <= KERNEL_TOL


def kernel_count(pencil: Pencil) -> int:
    """Kernel dimension of the shifted pencil: its eigenvalues at 1.  The
    kernel is at most the three rigid pairs, so six eigenvalues reach past
    it; a pencil with no free dofs has none."""
    if pencil.A.shape[0] == 0:
        return 0
    res = solve_gep_smallest(pencil.A, pencil.B, EigOptions(k=min(6, pencil.A.shape[0])))
    return int(np.sum(at_one(res.eigenvalues)))
