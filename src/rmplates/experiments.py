"""Convergence experiments: thickness sweep, thin-domain sweep, kernel
census, and discrete Korn / Poincare constants, with log-log rate fits.

Every sweep carries a discretization control: the same errors are recomputed
one mesh level coarser, and a rate is only claimed when the two levels agree
within 20% on every point of the fitted family.  Errors are measured against
Richardson-extrapolated fine-mesh references, never against literature
values.
"""

import csv
import json
import pathlib
import subprocess
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .assemble import assemble_pencil, element_batch, mass_density, stiffness_density, strain_blocks
from .biharmonic import assemble_biharmonic_pencil, map_limit_bc
from .eigensolve import EigOptions, _b_orthonormalize, clusters, factorize, principal_angles, solve_gep_smallest
from .errors import ConvergenceError
from .geometry import (
    Mesh,
    ThinDomainSpec,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    profile_spec,
    split_quads,
)
from .rm_system import BcFamily, FieldPair, MaterialParams, assemble_rm_pencil, at_one, kernel_count, rm_dofmap
from .spaces import Q1_SCALAR, Q1_VECTOR2, build_dofmap
from .thin_limit import (
    ConnectingSystem,
    assemble_limit_pencil,
    p2_dof_points,
    p2_interpolate,
    resolvent_gap,
    solve_limit_source,
)

#: agreement required between two mesh levels before a rate is claimed
CONTROL_RTOL = 0.20

DEFAULT_PARAMS = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.1)

#: limit eigenvalue clusters (beyond the kernel) that the delta-sweep tracks
DELTA_CLUSTERS = 3

#: the `SweepConfig` keys that each kind of sweep reads; a report echoes
#: these and the command line rejects any other key
CONFIG_KEYS = {
    "thickness": ("values", "mesh_n", "num_eigs", "params", "bc"),
    "delta": ("values", "mesh_n", "mesh_ny", "params", "profile"),
    "kernel": ("mesh_n", "params"),
    "korn": ("values", "mesh_n", "mesh_ny", "profile"),
    "poincare": ("values", "mesh_n", "mesh_ny"),
}


def fit_rate(points) -> dict:
    """Ordinary least squares on the log-log cloud; needs >= 3 positive errors.
    Returns the `slope`, `intercept` and `r2` of log(error) against
    log(parameter), and the fitted `points`."""
    pts = [(float(p), float(e)) for p, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a rate fit")
    if any(e <= 0 for _, e in pts):
        raise ValueError("rate fits need strictly positive errors")
    x = np.log([p for p, _ in pts])
    y = np.log([e for _, e in pts])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else max(0.0, 1.0 - ss_res / ss_tot)
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r2": r2, "points": pts}


@dataclass
class SweepConfig:
    """Sweep settings; `values` must be strictly decreasing."""

    kind: str  # a key of CONFIG_KEYS
    values: tuple = ()
    mesh_n: int = 64
    mesh_ny: int = 8
    num_eigs: int = 4
    params: MaterialParams = field(default_factory=lambda: DEFAULT_PARAMS)
    bc: BcFamily = BcFamily.HARD_CLAMPED
    profile: dict = None  # {"x": [...], "f1": [...], "f2": [...]}; None = cylinder

    def __post_init__(self):
        if self.kind not in CONFIG_KEYS:
            raise ValueError(f"sweep kind {self.kind!r} is not one of {sorted(CONFIG_KEYS)}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) >= 2 and np.any(np.diff(vals) >= 0):
            raise ValueError("sweep values must be strictly decreasing")
        self.values = vals

    def spec_at(self, delta: float) -> ThinDomainSpec:
        if self.profile is None:
            return constant_profile_spec(0.0, 1.0, 0.5, delta)
        return profile_spec(self.profile, delta)

    def to_dict(self) -> dict:
        """The keys that this kind of sweep reads (`CONFIG_KEYS`), as JSON values."""
        d = {key: value for key, value in asdict(self).items() if key in CONFIG_KEYS[self.kind]}
        if "bc" in d:
            d["bc"] = BcFamily(self.bc).value
        return d


def _version_string() -> str:
    try:
        # describe the package's own checkout, wherever the process runs
        here = pathlib.Path(__file__).parent
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=here, capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "rmplates-0.1.0"


def _richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """One O(h^2) Richardson step for values at levels h and h/2."""
    return fine + (fine - coarse) / 3.0


def _control_ok(fine_errors, coarse_errors) -> bool:
    fine = np.asarray(fine_errors, dtype=float)
    coarse = np.asarray(coarse_errors, dtype=float)
    scale = np.maximum(np.abs(fine), 1e-300)
    return bool(np.all(np.abs(fine - coarse) / scale <= CONTROL_RTOL))


def _morley_eigenvalues(level: int, params: MaterialParams, limit_bc, k: int) -> np.ndarray:
    """k smallest Morley eigenvalues on the split level x level unit square."""
    tri = split_quads(build_rect_mesh(1.0, 1.0, level, level))
    pencil = assemble_biharmonic_pencil(tri, params.E, params.sigma, limit_bc)
    return solve_gep_smallest(pencil.A, pencil.B, EigOptions(k=k)).eigenvalues


def _above_kernel(eigenvalues: np.ndarray, kernel: int) -> np.ndarray:
    """The eigenvalues after the `kernel` smallest, which must be the kernel
    at 1 (`at_one`) with no further eigenvalue there; else ConvergenceError."""
    at = at_one(eigenvalues)
    if not np.all(at[:kernel]) or np.any(at[kernel:]):
        raise ConvergenceError(f"expected a kernel of {kernel} eigenvalues at 1, got {eigenvalues.tolist()}")
    return eigenvalues[kernel:]


def _thickness_gaps(n: int, config: SweepConfig, reference: np.ndarray):
    """Gaps of the RM eigenvalues above the kernel to the biharmonic
    reference on an n x n mesh."""
    mesh = build_rect_mesh(1.0, 1.0, n, n)
    kernel = EXPECTED_KERNELS[config.bc]
    gaps, eigs = [], []
    for t in config.values:
        params = MaterialParams(config.params.E, config.params.sigma, config.params.k, t)
        pencil = assemble_rm_pencil(mesh, params, config.bc)
        res = solve_gep_smallest(pencil.A, pencil.B, EigOptions(k=config.num_eigs + kernel))
        eigenvalues = _above_kernel(res.eigenvalues, kernel)
        eigs.append(eigenvalues.tolist())
        gaps.append(np.abs(eigenvalues - reference).tolist())
    return np.array(gaps), eigs


def sweep_thickness(config: SweepConfig) -> dict:
    """Gaps between RM eigenvalues and the biharmonic limit as t decreases,
    for the `num_eigs` eigenvalues above the family's kernel at 1, which
    the limit shares (`EXPECTED_KERNELS`)."""
    t0 = time.perf_counter()
    limit_bc = map_limit_bc(config.bc)  # raises for unsupported families
    n = config.mesh_n
    if n % 4:
        raise ValueError(f"mesh_n = {n}: the thickness sweep halves it twice, so it must be a multiple of 4")
    k, kernel = config.num_eigs, EXPECTED_KERNELS[config.bc]
    # the references at n and n/2 share the n/2 level; each level is solved once
    lam = {
        level: _above_kernel(_morley_eigenvalues(level, config.params, limit_bc, k + kernel), kernel)
        for level in (n // 4, n // 2, n)
    }
    reference = _richardson(lam[n // 2], lam[n])
    reference_c = _richardson(lam[n // 4], lam[n // 2])
    gaps, eigs = _thickness_gaps(n, config, reference)
    gaps_c, _ = _thickness_gaps(n // 2, config, reference_c)

    # the rate is only claimed when the coarser level reproduces the fitted
    # error family within 20%; otherwise the fit is withheld, which is the
    # guard working rather than a failed run
    control_ok = _control_ok(gaps[:, 0], gaps_c[:, 0])
    fit = fit_rate(list(zip(config.values, gaps[:, 0]))) if control_ok else None
    monotone = [bool(np.all(np.diff(gaps[:, j]) < 0)) for j in range(k)]
    rel_final = (gaps[-1] / np.abs(reference)).tolist()
    checks = {"gaps_strictly_decreasing": all(monotone)}
    return {
        "kind": "thickness",
        "bc": config.bc.value,
        "parameter_values": list(config.values),
        "reference_eigenvalues": reference.tolist(),
        "rm_eigenvalues": eigs,
        "gaps": gaps.tolist(),
        "gaps_control": gaps_c.tolist(),
        "relative_final_gaps": rel_final,
        "fit": fit,
        "per_eig_monotone": monotone,
        "control_ok": control_ok,
        "rate_claimed": fit is not None,
        "checks": checks,
        "ok": all(checks.values()),
        "config": config.to_dict(),
        "version": _version_string(),
        "elapsed_s": time.perf_counter() - t0,
    }


def _nonunit_clusters(eigenvalues: np.ndarray, how_many: int):
    """First clusters of eigenvalues beyond the shifted kernel at 1."""
    kernel = at_one(eigenvalues)
    groups = []
    for group in clusters(np.asarray(eigenvalues)):
        if kernel[group[0]]:
            continue
        groups.append(group)
        if len(groups) == how_many:
            break
    return groups


def _delta_level(config: SweepConfig, nx: int, ny: int):
    """All measured errors at one mesh level, one point per delta.  The limit
    pencil sees the profile only through g = f1 + f2, so it is made and
    factored once: the LU serves its source solve, then its eigensolve.  The
    data is (F0, f0) = (0, sin(pi x)) on the level's own interval mesh."""
    spec = config.spec_at(config.values[0])
    interval = build_interval_mesh(*spec.base_interval, nx)
    limit_pencil = assemble_limit_pencil(interval, spec, config.params)
    factor = factorize(limit_pencil.A)
    f0 = np.zeros(len(p2_dof_points(interval))), p2_interpolate(interval, lambda x: np.sin(np.pi * x))
    limit_solution = solve_limit_source(limit_pencil, *f0, factor)
    lim = solve_gep_smallest(limit_pencil.A, limit_pencil.B, EigOptions(k=DELTA_CLUSTERS + 4), factor)
    return [
        _delta_point(config, delta, interval, ny, f0, limit_pencil, lim, limit_solution) for delta in config.values
    ]


def _delta_point(config: SweepConfig, delta: float, interval: Mesh, ny: int, f0, limit_pencil, lim, limit_solution):
    """All measured errors for one delta against the level's limit pencil,
    its eigenpairs and its source solution, in the global dof order.  The thin
    A is factored once: the source solve and the Lanczos run share the LU."""
    spec = config.spec_at(delta)
    thin = build_thin_mesh(spec, interval.n_elements, ny)
    system = ConnectingSystem(thin, interval, spec)
    thin_pencil = assemble_rm_pencil(thin, config.params, BcFamily.FREE)
    factor = factorize(thin_pencil.A)
    res_gap = resolvent_gap(system, config.params, *f0, thin_pencil, limit_solution, factor=factor)

    groups = _nonunit_clusters(lim.eigenvalues, DELTA_CLUSTERS)
    need = 3 + sum(len(c) for c in groups) + 6
    thin_res = solve_gep_smallest(thin_pencil.A, thin_pencil.B, EigOptions(k=need), factor)

    # averaged thin eigenvectors, B0-normalized; transverse (y-odd) branches
    # average to nearly zero and are excluded from the matching
    B0 = limit_pencil.B_full
    averaged = []
    for i in range(len(thin_res.eigenvalues)):
        full = thin_pencil.dofmap.expand(thin_res.eigenvectors[:, i])
        beta, w = thin_pencil.split(full)
        Phi_bar, _, phi_bar = system.average_pair(FieldPair(beta, w))
        averaged.append(np.concatenate([Phi_bar, phi_bar]))
    averaged = np.column_stack(averaged)

    eig_gaps, signed_gaps, angles, lam0s = [], [], [], []
    taken = at_one(thin_res.eigenvalues)
    for group in groups:
        lam0 = float(np.mean(lim.eigenvalues[group]))
        lam0s.append(lam0)
        m = len(group)
        V = limit_pencil.dofmap.expand(lim.eigenvectors[:, group])
        # mass of the averaged thin eigenvector inside the limit eigenspace,
        # the computable stand-in for the spectral-projection pairing; the
        # thin vectors are B-orthonormal, so transverse branches score ~1e-11
        # while the converging branch scores O(1)
        scores = np.full(len(thin_res.eigenvalues), -1.0)
        for i in range(len(thin_res.eigenvalues)):
            if taken[i] or abs(thin_res.eigenvalues[i] - lam0) > 0.6 * max(lam0, 1.0):
                continue
            scores[i] = np.linalg.norm(V.T @ (B0 @ averaged[:, i]))
        picked = list(np.argsort(scores)[::-1][:m])
        if np.min(scores[picked]) <= 1e-9:
            raise RuntimeError(f"could not match {m} thin eigenpairs to limit cluster at {lam0}")
        taken[picked] = True
        eig_gaps.append(float(np.sum(np.abs(thin_res.eigenvalues[picked] - lam0))))
        signed_gaps.append(float(np.sum(thin_res.eigenvalues[picked] - lam0)))
        U = _b_orthonormalize(averaged[:, picked], B0)
        angles.append(float(np.max(principal_angles(U, V, B0))))
    return {
        "delta": delta,
        "resolvent_gap": res_gap,
        "eig_gap_sums": eig_gaps,
        "eig_gap_signed": signed_gaps,
        "limit_eigenvalues": lam0s,
        "max_angles": angles,
    }


def sweep_delta(config: SweepConfig) -> dict:
    """Resolvent gaps, clustered eigenvalue gaps and projection angles as the
    thin domain collapses.

    The resolvent data is (F0, f0) = (0, sin(pi x)), interpolated on each
    level's base interval.  Each entry of `points` (the `mesh_n` level) and
    `points_control` (half the mesh in each direction, so `mesh_n` and
    `mesh_ny` must be even) holds, per tracked limit cluster
    (`DELTA_CLUSTERS`), `eig_gap_signed`, the sum of
    `lam_i - lam_0` over the matched thin eigenvalues, and `eig_gap_sums`,
    the sum of `|lam_i - lam_0|`.  The signed gaps of the two
    levels admit a Richardson step in h (`_richardson`).  `eig_gap_fits[j]`
    is the rate fit of cluster j's `eig_gap_sums` over `points`, claimed
    only when `points_control` reproduces them within `CONTROL_RTOL` and
    `None` otherwise; `eig_gaps_monotone_per_cluster` reads the single-level
    sums and is not discretization-controlled.
    """
    t0 = time.perf_counter()
    nx, ny = config.mesh_n, config.mesh_ny
    for name, n in (("mesh_n", nx), ("mesh_ny", ny)):
        if n % 2:
            raise ValueError(f"{name} = {n}: the control level halves it, so it must be even")
    fine = _delta_level(config, nx, ny)
    coarse = _delta_level(config, nx // 2, ny // 2)

    res_gaps = [p["resolvent_gap"] for p in fine]
    res_gaps_c = [p["resolvent_gap"] for p in coarse]
    control_ok = _control_ok(res_gaps, res_gaps_c)
    fit = fit_rate(list(zip(config.values, res_gaps))) if control_ok else None

    eig_tables = np.array([p["eig_gap_sums"] for p in fine])
    eig_tables_c = np.array([p["eig_gap_sums"] for p in coarse])
    rel_eig = eig_tables / np.abs(np.array([p["limit_eigenvalues"] for p in fine]))
    checks = {"resolvent_monotone": bool(np.all(np.diff(res_gaps) < 0))}
    eig_fits = []
    for j in range(eig_tables.shape[1]):
        col = eig_tables[:, j]
        claimed = np.all(col > 0) and _control_ok(col, eig_tables_c[:, j])
        eig_fits.append(fit_rate(list(zip(config.values, col))) if claimed else None)
    return {
        "kind": "delta",
        "parameter_values": list(config.values),
        "points": fine,
        "points_control": coarse,
        "resolvent_gaps": res_gaps,
        "fit": fit,
        "eig_gap_fits": eig_fits,
        "relative_eig_gaps": rel_eig.tolist(),
        "eig_gaps_monotone_per_cluster": [bool(np.all(np.diff(eig_tables[:, j]) < 0)) for j in range(eig_tables.shape[1])],
        "max_angles": [p["max_angles"] for p in fine],
        "control_ok": control_ok,
        "rate_claimed": fit is not None,
        "checks": checks,
        "ok": all(checks.values()),
        "config": config.to_dict(),
        "version": _version_string(),
        "elapsed_s": time.perf_counter() - t0,
    }


EXPECTED_KERNELS = {
    BcFamily.FREE: 3,
    BcFamily.HARD_RIGID: 1,
    BcFamily.SOFT_RIGID: 1,
    BcFamily.WEAK_NEUMANN: 1,
    BcFamily.HARD_CLAMPED: 0,
    BcFamily.SOFT_CLAMPED: 0,
    BcFamily.HARD_SIMPLY_SUPPORTED: 0,
    BcFamily.SOFT_SIMPLY_SUPPORTED: 0,
}


def kernel_census(params: MaterialParams, mesh: Mesh) -> dict:
    """Kernel dimension (eigenvalue cluster at 1) for every BC family.

    The free pencil is assembled once; every other family is its restriction.
    """
    free = assemble_rm_pencil(mesh, params, BcFamily.FREE)
    return {
        bc.value: kernel_count(free if bc is BcFamily.FREE else free.restrict(rm_dofmap(mesh, bc)))
        for bc in BcFamily
    }


def korn_constant(mesh: Mesh) -> float:
    """Discrete second-Korn constant: largest eigenvalue of
    ( |D eta|^2 , |eps(eta)|^2 + |eta|^2 ).  It is 1/mu - 1 for the smallest
    eigenvalue mu of the definite pencil (B, A) that `assemble_pencil` makes
    of that pair's shift A = |D eta|^2 + B, B = |eps(eta)|^2 + |eta|^2.
    """

    def blocks(cells):
        batch = element_batch(mesh, Q1_SCALAR, cells=cells)
        strain, _ = strain_blocks(batch)
        grad, mass = np.zeros((2,) + strain.shape)  # |D eta|^2 and |eta|^2: the scalar blocks per component
        grad[:, :4, :4] = grad[:, 4:, 4:] = stiffness_density(batch)
        mass[:, :4, :4] = mass[:, 4:, 4:] = mass_density(batch)
        return grad, strain + mass

    pen = assemble_pencil(mesh, build_dofmap(mesh, Q1_VECTOR2), blocks)
    mu = solve_gep_smallest(pen.B, pen.A, EigOptions(k=1)).eigenvalues[0]
    return float(1.0 / mu - 1.0)


def korn_sweep(config: SweepConfig) -> dict:
    """Second-Korn constant on thin rectangles; documents its blow-up."""
    t0 = time.perf_counter()
    consts = []
    for d in config.values:
        mesh = build_thin_mesh(config.spec_at(d), config.mesh_n, config.mesh_ny)
        consts.append(korn_constant(mesh))
    square = korn_constant(build_rect_mesh(1.0, 1.0, config.mesh_n // 4, config.mesh_n // 4))
    checks = {
        "strictly_increasing": bool(np.all(np.diff(consts) > 0)),
        "square_at_least_rotation_bound": square >= 3.0,
    }
    return {
        "kind": "korn",
        "parameter_values": list(config.values),
        "constants": consts,
        "unit_square_constant": square,
        "checks": checks,
        "ok": all(checks.values()),
        "config": config.to_dict(),
        "version": _version_string(),
        "elapsed_s": time.perf_counter() - t0,
    }


def dirichlet_laplace_smallest(mesh: Mesh) -> float:
    """Smallest eigenvalue of the Dirichlet Laplacian (Q1) on the interior
    dofs of the mesh: that of its shifted pencil (K + M, M), minus 1."""

    def blocks(cells):
        batch = element_batch(mesh, Q1_SCALAR, cells=cells)
        return stiffness_density(batch), mass_density(batch)

    pen = assemble_pencil(mesh, build_dofmap(mesh, Q1_SCALAR, True), blocks)
    return float(solve_gep_smallest(pen.A, pen.B, EigOptions(k=1)).eigenvalues[0] - 1.0)


def poincare_check(delta_values, mesh_n: int = 32, mesh_ny: int = 8) -> dict:
    """Blow-up of the Dirichlet constant on collapsing domains.

    Reports the smallest Dirichlet-Laplace eigenvalue per delta, the log-log
    slope (about -2), the delta = 1 value against the square reference
    2 pi^2 after one Richardson step, and the mesh it ran on.
    """
    t0 = time.perf_counter()
    delta_values = tuple(float(v) for v in delta_values)
    eigs = []
    for d in delta_values:
        spec = constant_profile_spec(0.0, 1.0, 0.5, d)
        eigs.append(dirichlet_laplace_smallest(build_thin_mesh(spec, mesh_n, mesh_ny)))
    fit = fit_rate(list(zip(delta_values, eigs)))

    spec1 = constant_profile_spec(0.0, 1.0, 0.5, 1.0)
    lam_c = dirichlet_laplace_smallest(build_thin_mesh(spec1, mesh_n, mesh_n))
    lam_f = dirichlet_laplace_smallest(build_thin_mesh(spec1, 2 * mesh_n, 2 * mesh_n))
    lam_sq = float(_richardson(np.array([lam_c]), np.array([lam_f]))[0])
    ref = 2.0 * np.pi**2
    checks = {
        "slope_steep": fit["slope"] <= -1.9,
        "square_matches": abs(lam_sq - ref) / ref <= 0.01,
        "all_positive": all(e > 0 for e in eigs),
    }
    return {
        "kind": "poincare",
        "parameter_values": list(delta_values),
        "eigenvalues": eigs,
        "fit": fit,
        "square_extrapolated": lam_sq,
        "square_reference": ref,
        "checks": checks,
        "ok": all(checks.values()),
        "mesh_n": mesh_n,
        "mesh_ny": mesh_ny,
        "version": _version_string(),
        "elapsed_s": time.perf_counter() - t0,
    }


def emit_report(results: dict, out_dir) -> dict:
    """Write report.json (full results) and report.csv (one row per point).

    CSV columns: sweep kind, parameter, one gap column per tracked
    eigenvalue family, the resolvent gap (nan when not measured), and the
    claimed slope; 2 + k + 1 + 1 columns in total, and a last `value`
    column for a sweep that measures one value per point (the Korn
    constant, the Dirichlet eigenvalue).
    """
    if not results or not results.get("parameter_values"):
        raise ValueError("refusing to write an empty report")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jpath = out / "report.json"
    with open(jpath, "w") as fh:
        json.dump(results, fh, indent=2)

    values = results["parameter_values"]
    if results["kind"] == "thickness":
        gaps = results["gaps"]
    elif results["kind"] == "delta":
        gaps = [p["eig_gap_sums"] for p in results["points"]]
    else:
        gaps = [[] for _ in values]
    k = max((len(g) for g in gaps), default=0)
    res_gaps = results.get("resolvent_gaps", [float("nan")] * len(values))
    slope = (results.get("fit") or {}).get("slope", float("nan"))
    measured = results.get("constants") or results.get("eigenvalues") or []

    cpath = out / "report.csv"
    with open(cpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["sweep", "parameter"] + [f"gap_eig_{j + 1}" for j in range(k)] + ["resolvent_gap", "fitted_slope"]
        writer.writerow(header + ["value"] * bool(measured))
        for i, v in enumerate(values):
            row = [results["kind"], v]
            row += list(gaps[i]) + [float("nan")] * (k - len(gaps[i]))
            row += [res_gaps[i], slope] + measured[i : i + 1]
            writer.writerow(row)
    return {"json": str(jpath), "csv": str(cpath)}
