"""Weighted dimension-reduced plate system on the interval, and the
connecting system that compares it with the thin-domain solution.

For a thin domain with section measure delta*g(x), the limit pencil acts on
pairs (Phi, phi) of P2 fields over the base interval:

    A = E/(12(1-sigma^2)) * integral[ ((1-sigma) + c_div(sigma,d)) Phi' Psi' ] g
        + E k/(2(1+sigma) t^2) * integral[ (phi' - Phi)(v' - Psi) ] g
        + B,
    B = integral[ phi v + t^2/12 Phi Psi ] g,

with natural boundary conditions, where

    c_div(sigma, d) = (1-sigma) sigma / ((1-sigma) + d sigma)

is the divergence coefficient surviving the thin-direction relaxation.  The
connecting system carries the extension (constant in the thin variable, zero
thin components) and the section-average operator; its norms make

    || E_delta u0 ||_{H_delta} = || u0 ||_{H_0}

an exact identity at the quadrature level, because the section measure is
exactly delta * g(x).
"""

import numpy as np

from .assemble import Pencil, assemble_load_from_local, assemble_pencil, element_batch, p2_ref_basis, point_gram
from .geometry import ElementKind, Mesh, ThinDomainSpec
from .quadrature import quad_rule, segment_rule
from .rm_system import BcFamily, FieldPair, MaterialParams, assemble_rm_pencil, rm_load_vector, solve_source
from .spaces import P2_1D, Q1_SCALAR, build_dofmap, stack_dofmaps


def _relaxation(sigma: float, d: int) -> float:
    """The thin-direction relaxation denominator (1-sigma) + d sigma, for a
    positive integer d, where it is positive."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    den = (1.0 - sigma) + d * sigma
    if den <= 0:
        raise ValueError(f"degenerate divergence denominator for sigma={sigma}, d={d}")
    return den


def limit_div_coefficient(sigma: float, d: int) -> float:
    """(1-sigma) sigma / ((1-sigma) + d sigma)."""
    return (1.0 - sigma) * sigma / _relaxation(sigma, d)


def qjj_value(sigma: float, d: int, divx_beta: float) -> float:
    """Diagonal thin-strain limit q_jj = -sigma div_x beta / ((1-sigma) + d sigma);
    the off-diagonal entries vanish."""
    return -sigma * divx_beta / _relaxation(sigma, d)


def divgrad_consistency_gap(E: float, sigma: float, d: int) -> float:
    """Difference between the strong-form grad-div coefficient
    E (1 + (d+1) sigma) / (24 (1+sigma)(1 + (d-1) sigma)) and the one
    implied by the weak form via 2 eps:eps = |grad|^2 + div^2 (diagnostic,
    valid for constant section weight)."""
    weak = E / (24.0 * (1.0 + sigma)) + E / (12.0 * (1.0 - sigma**2)) * limit_div_coefficient(sigma, d)
    return E * (1.0 + (d + 1) * sigma) / (24.0 * (1.0 + sigma) * (1.0 + (d - 1) * sigma)) - weak


def p2_dof_points(interval_mesh: Mesh) -> np.ndarray:
    """x-positions of the P2 dofs: vertices, then element midpoints."""
    xs = interval_mesh.nodes[:, 0]
    mids = 0.5 * (xs[interval_mesh.elements[:, 0]] + xs[interval_mesh.elements[:, 1]])
    return np.concatenate([xs, mids])


def _locate(xs: np.ndarray, x):
    """Cell index on the sorted grid xs of each point x, and the point's
    local coordinate in [0, 1] (points outside go to the end cells)."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    return idx, (x - xs[idx]) / (xs[idx + 1] - xs[idx])


def p2_evaluate(interval_mesh: Mesh, coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate a P2 coefficient vector at arbitrary points of the interval."""
    xs = interval_mesh.nodes[:, 0]
    idx, xi = _locate(xs, x)
    n = p2_ref_basis(xi)[0]
    return n[..., 0] * coeffs[idx] + n[..., 1] * coeffs[idx + 1] + n[..., 2] * coeffs[len(xs) + idx]


def p2_interpolate(interval_mesh: Mesh, fn) -> np.ndarray:
    return np.asarray(fn(p2_dof_points(interval_mesh)), dtype=float)


def assemble_limit_pencil(interval_mesh: Mesh, spec: ThinDomainSpec, params: MaterialParams) -> Pencil:
    """Assemble the weighted P2 x P2 limit pencil from the reduced weak
    form; the dofs are laid out [Phi dofs, phi dofs]."""
    if interval_mesh.element_kind != ElementKind.SEGMENT:
        raise ValueError("the limit pencil lives on an interval mesh")
    quad = segment_rule(3)
    sig = params.sigma
    c_bend = params.bending_factor * ((1.0 - sig) + limit_div_coefficient(sig, spec.d))

    def blocks(cells):
        batch = element_batch(interval_mesh, P2_1D, quad, cells)
        gq = spec.g(batch.x[..., 0])
        if np.min(gq) <= 0:
            raise ValueError("section weight g must be strictly positive")
        phi = batch.phi  # (ne, nq, 3)
        dphi = batch.grad[..., 0]  # (ne, nq, 3)
        wg = batch.w * gq
        bend, mass = np.zeros((2, phi.shape[0], 6, 6))
        bend[:, :3, :3] = c_bend * point_gram(wg, dphi)
        shear = params.shear_factor * point_gram(wg, np.concatenate([-phi, dphi], axis=2))
        mass[:, 3:, 3:] = point_gram(wg, phi)
        mass[:, :3, :3] = params.t**2 / 12.0 * mass[:, 3:, 3:]
        return bend + shear, mass

    dofmap = stack_dofmaps([build_dofmap(interval_mesh, P2_1D), build_dofmap(interval_mesh, P2_1D)])
    return assemble_pencil(interval_mesh, dofmap, blocks)


def solve_limit_source(pencil: Pencil, F_coeffs: np.ndarray, f_coeffs: np.ndarray):
    """Solve the shifted limit system with data (t^2/12 F, f) (g-weighted),
    loaded by `rm_load_vector`; the data and the pair (Phi, phi) returned are
    P2 coefficients in the global dof order."""
    return pencil.split(solve_source(pencil, rm_load_vector(pencil, F_coeffs, f_coeffs)))


class ConnectingSystem:
    """Couples a structured thin mesh with its base-interval mesh.

    The thin mesh must come from build_thin_mesh with `spec` and the
    interval mesh must share its x grid; then every vertical line through
    the mesh sees a piecewise-linear restriction of Q1 fields, so section
    averages are exact column-wise quadratures.
    """

    def __init__(self, thin_mesh: Mesh, interval_mesh: Mesh, spec: ThinDomainSpec):
        if thin_mesh.meta.get("kind") != "thin":
            raise ValueError("need a mesh from build_thin_mesh")
        nx, ny = thin_mesh.meta["nx"], thin_mesh.meta["ny"]
        xs = thin_mesh.nodes[: nx + 1, 0]
        if interval_mesh.n_nodes != nx + 1 or not np.allclose(
            interval_mesh.nodes[:, 0], xs, rtol=0, atol=1e-12
        ):
            raise ValueError("interval mesh nodes must coincide with the thin-mesh x grid")
        # build_thin_mesh puts the bottom and top rows at -delta f1 and delta f2 to rounding
        Y = thin_mesh.nodes[:, 1].reshape(ny + 1, nx + 1)
        off = max(np.abs(Y[0] + spec.delta * spec.f1(xs)).max(), np.abs(Y[-1] - spec.delta * spec.f2(xs)).max())
        if off > 1e-12 * spec.delta:
            raise ValueError(f"thin mesh was not built with this spec: its profile rows are {off:.2e} off")
        self.thin_mesh = thin_mesh
        self.interval_mesh = interval_mesh
        self.spec = spec
        self.delta = spec.delta
        self.nx, self.ny = nx, ny
        self.xs = xs
        self.Y = Y
        # quadrature used for all thin-side norms: exact for products of Q1
        # fields and extensions of P2 interval fields; of its batch only the
        # points' x, the weights and the basis values are read
        batch = element_batch(thin_mesh, Q1_SCALAR, quad_rule(3, 2))
        self._xq, self._w, self._phi = batch.x[..., 0].copy(), batch.w, batch.phi
        self._ivl_batch = element_batch(interval_mesh, P2_1D, segment_rule(3))

    # -- pointwise column operations ------------------------------------
    def section_integral(self, nodal: np.ndarray, x) -> np.ndarray:
        """Exact integral over the section {x} x (y_bottom, y_top) of the Q1
        interpolant with the given nodal values (grid shape implied)."""
        idx, xi = _locate(self.xs, x)
        U = np.asarray(nodal).reshape(self.ny + 1, self.nx + 1)
        v = (1 - xi) * U[:, idx] + xi * U[:, idx + 1]  # (ny+1, len(x))
        y = (1 - xi) * self.Y[:, idx] + xi * self.Y[:, idx + 1]
        return np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(y, axis=0), axis=0)

    def section_height(self, x) -> np.ndarray:
        idx, xi = _locate(self.xs, x)
        y = (1 - xi) * self.Y[:, idx] + xi * self.Y[:, idx + 1]
        return y[-1] - y[0]

    def section_average(self, nodal: np.ndarray, x) -> np.ndarray:
        return self.section_integral(nodal, x) / self.section_height(x)

    # -- averaging --------------------------------------------------------
    def average_to_p2(self, nodal: np.ndarray) -> np.ndarray:
        """Section averages sampled at the P2 dof points of the interval mesh."""
        return self.section_average(nodal, p2_dof_points(self.interval_mesh))

    def average_pair(self, pair: FieldPair):
        """Averages (Phi_bar, phi_bar) of the in-line rotation beta_x and of w."""
        return self.average_to_p2(pair.beta[: self.thin_mesh.n_nodes]), self.average_to_p2(pair.w)

    # -- quadrature-level fields ------------------------------------------
    def q1_at_rule(self, nodal: np.ndarray) -> np.ndarray:
        """Q1 field values at the thin-side norm quadrature points, (ne, nq)."""
        vals = np.asarray(nodal)[self.thin_mesh.elements]
        return np.einsum("eqi,ei->eq", self._phi, vals)

    def p2x_at_rule(self, coeffs: np.ndarray) -> np.ndarray:
        """Extension of a P2 interval field, evaluated exactly at the same points."""
        return p2_evaluate(self.interval_mesh, coeffs, self._xq.ravel()).reshape(self._xq.shape)

    def extended_load(self, pencil: Pencil, params: MaterialParams, F0_coeffs: np.ndarray, f0_coeffs: np.ndarray):
        """Reduced load of a pencil on the thin mesh with the data
        (t^2/12 F, f) of the extension E_delta(F0, 0, f0) of interval data,
        on the norm rule.  The rule is exact for it: the thin mesh's quads
        have vertical sides, so detJ is linear in xi and constant in eta,
        and P2(x) Q1 detJ has degree <= 4 in xi and <= 1 in eta."""
        if pencil.mesh is not self.thin_mesh:
            raise ValueError("the pencil is not on this system's thin mesh")
        F = self.p2x_at_rule(F0_coeffs)
        data = np.stack([F, np.zeros_like(F), self.p2x_at_rule(f0_coeffs)], axis=2)  # (ne, nq, [F_x, F_y, f])
        loc = point_gram(self._w, data, self._phi).reshape(-1, 12)
        loc[:, :8] *= params.t**2 / 12.0
        return pencil.dofmap.restrict(assemble_load_from_local(pencil.dofmap, loc))

    def integrate_thin(self, vals: np.ndarray) -> float:
        return float(np.sum(self._w * vals))

    def integrate_interval(self, vals: np.ndarray) -> float:
        return float(np.sum(self._ivl_batch.w * vals))

    # -- norms --------------------------------------------------------------
    def h0_norm(self, Phi_coeffs: np.ndarray, phi_coeffs: np.ndarray) -> float:
        """g-weighted L2 norm of an interval pair, with the section weight
        g = height / delta implied by the mesh (spec.g up to profile
        resampling at the x grid)."""
        xq = self._ivl_batch.x[..., 0]
        g = (self.section_height(xq.ravel()) / self.delta).reshape(xq.shape)
        Phi = p2_evaluate(self.interval_mesh, Phi_coeffs, xq.ravel()).reshape(xq.shape)
        phi = p2_evaluate(self.interval_mesh, phi_coeffs, xq.ravel()).reshape(xq.shape)
        return float(np.sqrt(self.integrate_interval(g * (Phi**2 + phi**2))))

    def hdelta_norm_extended(self, Phi_coeffs: np.ndarray, phi_coeffs: np.ndarray) -> float:
        """H_delta norm of the exact extension E_delta(Phi, phi)."""
        Phi = self.p2x_at_rule(Phi_coeffs)
        phi = self.p2x_at_rule(phi_coeffs)
        val = self.integrate_thin(Phi**2 + phi**2) / self.delta
        return float(np.sqrt(val))

    def hdelta_gap_norm(self, pair: FieldPair, Phi_coeffs: np.ndarray, phi_coeffs: np.ndarray) -> float:
        """H_delta distance between a thin pair and an extended limit pair,
        every block in the plain L2(delta^{-d}) norm.  The thin rotation block
        is not divided by delta: beta_y tends to the strain-relaxation profile
        q_jj * y (see `qjj_value`), so it is of order delta and that stronger
        norm would not vanish along the limit."""
        nv = self.thin_mesh.n_nodes
        bI = self.q1_at_rule(pair.beta[:nv]) - self.p2x_at_rule(Phi_coeffs)
        bII = self.q1_at_rule(pair.beta[nv:])
        wg = self.q1_at_rule(pair.w) - self.p2x_at_rule(phi_coeffs)
        val = self.integrate_thin(bI**2 + bII**2 + wg**2) / self.delta
        return float(np.sqrt(val))

    # -- adjoint identity, both sides by independent loops -----------------
    def adjoint_lhs(self, nodal: np.ndarray, p2_coeffs: np.ndarray) -> float:
        """integral over the interval of g * (M_delta u) * v."""
        xq = self._ivl_batch.x[..., 0]
        integrand = (
            self.section_integral(nodal, xq.ravel()).reshape(xq.shape) / self.delta
        ) * p2_evaluate(self.interval_mesh, p2_coeffs, xq.ravel()).reshape(xq.shape)
        return self.integrate_interval(integrand)

    def adjoint_rhs(self, nodal: np.ndarray, p2_coeffs: np.ndarray) -> float:
        """delta^{-d} integral over the thin domain of u * (E_delta v)."""
        u = self.q1_at_rule(nodal)
        v = self.p2x_at_rule(p2_coeffs)
        return self.integrate_thin(u * v) / self.delta


def solve_extended_source(system, thin_pencil: Pencil, params: MaterialParams, F0_coeffs, f0_coeffs):
    """The thin solution (a `FieldPair`) of extended interval data: the
    shifted source problem of `thin_pencil` with the load
    `ConnectingSystem.extended_load` of (F0, 0, f0), solved by `solve_source`."""
    load = system.extended_load(thin_pencil, params, F0_coeffs, f0_coeffs)
    return FieldPair(*thin_pencil.split(solve_source(thin_pencil, load)))


def resolvent_gap(
    system: ConnectingSystem,
    params: MaterialParams,
    F0_coeffs: np.ndarray,
    f0_coeffs: np.ndarray,
    thin_pencil: Pencil = None,
    limit_solution=None,
) -> float:
    """Relative H_delta distance between the thin resolvent applied to
    extended data and the extended limit resolvent.

    Both solves use the shifted operator and the (t^2/12 F, f) data
    convention; the thin one is `solve_extended_source`, on the LU of
    `thin_pencil`.  `limit_solution` is the limit pair (Phi0, phi0) of
    `solve_limit_source` for this data, which does not depend on delta.
    The distance is `hdelta_gap_norm`.
    """
    denom = system.h0_norm(F0_coeffs, f0_coeffs)
    if denom == 0:
        raise ValueError("data must be nonzero")
    if thin_pencil is None:
        thin_pencil = assemble_rm_pencil(system.thin_mesh, params, BcFamily.FREE)
    if limit_solution is None:
        limit_pencil = assemble_limit_pencil(system.interval_mesh, system.spec, params)
        limit_solution = solve_limit_source(limit_pencil, F0_coeffs, f0_coeffs)

    pair = solve_extended_source(system, thin_pencil, params, F0_coeffs, f0_coeffs)
    return system.hdelta_gap_norm(pair, *limit_solution) / denom

