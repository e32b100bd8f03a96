"""Convergence experiments: thickness sweep, thin-domain sweep, kernel
census, and discrete Korn / Poincare constants, with log-log rate fits.

Every sweep carries a discretization control: the same errors are recomputed
one mesh level coarser, and a rate is only claimed when the two levels agree
within 20% on every point of the fitted family.  Errors are measured against
Richardson-extrapolated fine-mesh references, never against literature
values.
"""

import csv
import functools
import json
import pathlib
import subprocess
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .assemble import assemble_pencil, element_batch, mass_density, stiffness_density, strain_blocks
from .biharmonic import assemble_biharmonic_pencil, map_limit_bc
from .eigensolve import EigOptions, _b_orthonormalize, clusters, principal_angles, solve_gep_smallest
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
from .rm_system import FAMILIES, BcFamily, FieldPair, MaterialParams, assemble_rm_pencil, at_one, kernel_count, rm_dofmap
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

#: the dimension of each family's kernel at 1 (`rm_system.FAMILIES`)
EXPECTED_KERNELS = {bc: family.kernel for bc, family in FAMILIES.items()}

#: limit eigenvalue clusters (beyond the kernel) that the delta-sweep tracks
DELTA_CLUSTERS = 3

#: the least match score times sqrt(delta): thin vectors are B-normalized over
#: a section of height delta, so a converging branch scores ~1, a twist pair ~0
MATCH_FLOOR = 0.5

#: each kind of sweep's row: the `SweepConfig` keys it reads, with their
#: command-line defaults; a report echoes these keys and the command line
#: rejects any other
CONFIG_KEYS = {
    "thickness": {
        "values": (0.2, 0.1, 0.05, 0.025), "mesh_n": 64, "num_eigs": 4, "params": DEFAULT_PARAMS,
        "bc": BcFamily.HARD_CLAMPED,
    },
    "delta": {"values": (0.4, 0.2, 0.1, 0.05), "mesh_n": 96, "mesh_ny": 6, "params": DEFAULT_PARAMS, "profile": None},
    "kernel": {"mesh_n": 16, "params": DEFAULT_PARAMS},
    "korn": {"values": (0.4, 0.2, 0.1), "mesh_n": 64, "mesh_ny": 8, "profile": None},
    "poincare": {"values": (0.4, 0.2, 0.1), "mesh_n": 32, "mesh_ny": 8},
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
        self.bc = BcFamily(self.bc)
        for key in ("mesh_n", "mesh_ny", "num_eigs"):
            if isinstance(getattr(self, key), bool) or not isinstance(getattr(self, key), (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        real = (int, float, np.integer, np.floating)
        if not isinstance(self.values, (list, tuple, np.ndarray)) or not all(
            isinstance(v, real) and not isinstance(v, bool) for v in self.values
        ):
            raise ValueError(f"values must be a list of numbers, got {self.values!r}")
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
            d["bc"] = self.bc.value
        return d


@functools.cache  # one `git describe` per process
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


def _report(kind: str, config: SweepConfig, checks: dict, t0: float, **results) -> dict:
    """A sweep's report: its `results` between the keys every sweep report
    carries, `ok` holding when every check does and `config` echoing the
    keys the sweep read."""
    return {
        "kind": kind,
        "parameter_values": list(config.values),
        **results,
        "checks": checks,
        "ok": all(checks.values()),
        "config": config.to_dict(),
        "version": _version_string(),
        "elapsed_s": time.perf_counter() - t0,
    }


def _richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """One O(h^2) Richardson step for values at levels h and h/2."""
    return fine + (fine - coarse) / 3.0


def _rate_values(values) -> tuple:
    """`values` as floats; a sweep that fits a rate needs at least 3."""
    values = tuple(float(v) for v in values)
    if len(values) < 3:
        raise ValueError(f"a rate fit needs at least 3 values, got {len(values)}")
    return values


def _halvable_mesh(config: SweepConfig) -> tuple:
    """(mesh_n, mesh_ny), both even, as the control level halves them."""
    for name in ("mesh_n", "mesh_ny"):
        n = getattr(config, name)
        if n % 2:
            raise ValueError(f"{name} = {n}: the control level halves it, so it must be even")
    return config.mesh_n, config.mesh_ny


def _controlled_fit(values, fine, coarse):
    """(control_ok, fit): whether the coarse level reproduces every `fine`
    error within CONTROL_RTOL, and the rate fit of `fine` against `values`,
    claimed only when it does and every error is positive, else None."""
    fine, coarse = np.asarray(fine, dtype=float), np.asarray(coarse, dtype=float)
    scale = np.maximum(np.abs(fine), 1e-300)
    control_ok = bool(np.all(np.abs(fine - coarse) / scale <= CONTROL_RTOL))
    return control_ok, (fit_rate(list(zip(values, fine))) if control_ok and np.all(fine > 0) else None)


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
    _rate_values(config.values)
    if config.num_eigs < 1:
        raise ValueError(f"num_eigs = {config.num_eigs}: the thickness sweep compares at least 1 eigenvalue")
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
    control_ok, fit = _controlled_fit(config.values, gaps[:, 0], gaps_c[:, 0])
    monotone = [bool(np.all(np.diff(gaps[:, j]) < 0)) for j in range(k)]
    rel_final = (gaps[-1] / np.abs(reference)).tolist()
    checks = {"gaps_strictly_decreasing": all(monotone)}
    return _report(
        "thickness", config, checks, t0, bc=config.bc.value, reference_eigenvalues=reference.tolist(),
        rm_eigenvalues=eigs, gaps=gaps.tolist(), gaps_control=gaps_c.tolist(), relative_final_gaps=rel_final,
        fit=fit, per_eig_monotone=monotone, control_ok=control_ok, rate_claimed=fit is not None,
    )


def _delta_level(config: SweepConfig, nx: int, ny: int):
    """All measured errors at one mesh level, one point per delta, in the
    global dof order.  The limit pencil sees the profile only through
    g = f1 + f2, so it is made and factored once.  The data is (F0, f0) =
    (0, sin(pi x)) on the level's own interval mesh.  Every pencil's source
    solve and Lanczos run share its one LU (`Pencil.factor`).  Each point
    deletes its thin pencil, with its LU, its connecting system and its
    eigenpairs at its end: the loop would otherwise keep them alive while
    the next point assembles and factors, and raise the level's peak memory."""
    spec = config.spec_at(config.values[0])
    interval = build_interval_mesh(*spec.base_interval, nx)
    limit_pencil = assemble_limit_pencil(interval, spec, config.params)
    f0 = np.zeros(len(p2_dof_points(interval))), p2_interpolate(interval, lambda x: np.sin(np.pi * x))
    limit_solution = solve_limit_source(limit_pencil, *f0)
    lim = solve_gep_smallest(limit_pencil.A, limit_pencil.B, EigOptions(k=DELTA_CLUSTERS + 4), limit_pencil.factor)
    # the first limit clusters beyond the shifted kernel at 1: their mean
    # eigenvalue and their eigenvectors over all dofs
    kernel = at_one(lim.eigenvalues)
    groups = [group for group in clusters(lim.eigenvalues) if not kernel[group[0]]][:DELTA_CLUSTERS]
    lam0s = [float(np.mean(lim.eigenvalues[group])) for group in groups]
    Vs = [limit_pencil.dofmap.expand(lim.eigenvectors[:, group]) for group in groups]
    B0 = limit_pencil.B_full
    need = EXPECTED_KERNELS[BcFamily.FREE] + sum(len(group) for group in groups) + 6
    points = []
    for delta in config.values:
        spec = config.spec_at(delta)
        system = ConnectingSystem(build_thin_mesh(spec, nx, ny), interval, spec)
        thin_pencil = assemble_rm_pencil(system.thin_mesh, config.params, BcFamily.FREE)
        res_gap = resolvent_gap(system, config.params, *f0, thin_pencil, limit_solution)
        thin_res = solve_gep_smallest(thin_pencil.A, thin_pencil.B, EigOptions(k=need), thin_pencil.factor)

        # averaged thin eigenvectors (Phi_bar, phi_bar), B0-normalized; transverse
        # (y-odd) branches average to nearly zero and are excluded from the matching
        pairs = (FieldPair(*thin_pencil.split(thin_pencil.dofmap.expand(v))) for v in thin_res.eigenvectors.T)
        averaged = np.column_stack([np.concatenate(system.average_pair(pair)) for pair in pairs])

        eig_gaps, signed_gaps, angles, match_scores = [], [], [], []
        taken = at_one(thin_res.eigenvalues)
        for lam0, V in zip(lam0s, Vs):
            m = V.shape[1]
            # mass of the averaged thin eigenvector inside the limit eigenspace,
            # the computable stand-in for the spectral-projection pairing; the
            # thin vectors are B-orthonormal, so transverse and twist branches
            # score ~1e-8 or less while the converging branch scores about 1/sqrt(delta)
            scores = np.full(len(thin_res.eigenvalues), -1.0)
            for i in range(len(thin_res.eigenvalues)):
                if taken[i] or abs(thin_res.eigenvalues[i] - lam0) > 0.6 * max(lam0, 1.0):
                    continue
                scores[i] = np.linalg.norm(V.T @ (B0 @ averaged[:, i]))
            picked = list(np.argsort(scores)[::-1][:m])
            if np.min(scores[picked]) * np.sqrt(delta) <= MATCH_FLOOR:
                raise ConvergenceError(
                    f"delta = {delta}, {nx}x{ny} mesh: could not match {m} thin eigenpairs to the"
                    f" limit cluster at {lam0}; best projection scores {scores[picked].tolist()}"
                )
            # the margin of the match: its weakest pick and the best eligible
            # eigenpair left out (None when every eligible one was picked)
            left = np.delete(scores, picked)
            match_scores.append([float(np.min(scores[picked])), float(np.max(left)) if np.any(left >= 0) else None])
            taken[picked] = True
            eig_gaps.append(float(np.sum(np.abs(thin_res.eigenvalues[picked] - lam0))))
            signed_gaps.append(float(np.sum(thin_res.eigenvalues[picked] - lam0)))
            U = _b_orthonormalize(averaged[:, picked], B0)
            angles.append(float(np.max(principal_angles(U, V, B0))))
        points.append(dict(delta=delta, resolvent_gap=res_gap, eig_gap_sums=eig_gaps, eig_gap_signed=signed_gaps,
                           limit_eigenvalues=list(lam0s), max_angles=angles, match_scores=match_scores))
        del system, thin_pencil, thin_res, averaged
    return points


def sweep_delta(config: SweepConfig) -> dict:
    """Resolvent gaps, clustered eigenvalue gaps and projection angles as the
    thin domain collapses.

    The resolvent data is (F0, f0) = (0, sin(pi x)), interpolated on each
    level's base interval.  Each entry of `points` (the `mesh_n` level) and
    `points_control` (half the mesh in each direction, so `mesh_n` and
    `mesh_ny` must be even) holds, per tracked limit cluster
    (`DELTA_CLUSTERS`), `eig_gap_signed`, the sum of
    `lam_i - lam_0` over the matched thin eigenvalues, `eig_gap_sums`,
    the sum of `|lam_i - lam_0|`, and `match_scores`, the lowest projection
    score of the matched thin eigenpairs and the highest of an eligible one
    left unmatched (None if there was none).  The signed gaps of the two
    levels admit a Richardson step in h (`_richardson`).  `eig_gap_fits[j]`
    is the rate fit of cluster j's `eig_gap_sums` over `points`, claimed
    only when `points_control` reproduces them within `CONTROL_RTOL` and
    `None` otherwise; `eig_gaps_monotone_per_cluster` reads the single-level
    sums and is not discretization-controlled.
    """
    t0 = time.perf_counter()
    _rate_values(config.values)
    nx, ny = _halvable_mesh(config)
    fine = _delta_level(config, nx, ny)
    coarse = _delta_level(config, nx // 2, ny // 2)

    res_gaps = [p["resolvent_gap"] for p in fine]
    res_gaps_c = [p["resolvent_gap"] for p in coarse]
    control_ok, fit = _controlled_fit(config.values, res_gaps, res_gaps_c)

    eig_tables = np.array([p["eig_gap_sums"] for p in fine])
    eig_tables_c = np.array([p["eig_gap_sums"] for p in coarse])
    rel_eig = eig_tables / np.abs(np.array([p["limit_eigenvalues"] for p in fine]))
    checks = {"resolvent_monotone": bool(np.all(np.diff(res_gaps) < 0))}
    eig_fits = [_controlled_fit(config.values, col, col_c)[1] for col, col_c in zip(eig_tables.T, eig_tables_c.T)]
    return _report(
        "delta", config, checks, t0, points=fine, points_control=coarse, resolvent_gaps=res_gaps, fit=fit,
        eig_gap_fits=eig_fits, relative_eig_gaps=rel_eig.tolist(),
        eig_gaps_monotone_per_cluster=[bool(np.all(np.diff(eig_tables[:, j]) < 0)) for j in range(eig_tables.shape[1])],
        max_angles=[p["max_angles"] for p in fine], control_ok=control_ok, rate_claimed=fit is not None,
    )


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
    if len(config.values) < 2:
        raise ValueError(f"the Korn sweep compares at least 2 values, got {len(config.values)}")
    consts = []
    for d in config.values:
        mesh = build_thin_mesh(config.spec_at(d), config.mesh_n, config.mesh_ny)
        consts.append(korn_constant(mesh))
    square = korn_constant(build_rect_mesh(1.0, 1.0, config.mesh_n // 4, config.mesh_n // 4))
    checks = {
        "strictly_increasing": bool(np.all(np.diff(consts) > 0)),
        "square_at_least_rotation_bound": square >= 3.0,
    }
    return _report("korn", config, checks, t0, constants=consts, unit_square_constant=square)


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

    Reports the smallest Dirichlet-Laplace eigenvalue per delta on the
    `mesh_n` x `mesh_ny` mesh, their log-log rate fit (slope about -2),
    claimed only when the half mesh in each direction (so both sizes must
    be even) reproduces every eigenvalue within `CONTROL_RTOL`, and the
    delta = 1 value against the square reference 2 pi^2 after one
    Richardson step.
    """
    t0 = time.perf_counter()
    config = SweepConfig("poincare", values=delta_values, mesh_n=mesh_n, mesh_ny=mesh_ny)
    values = _rate_values(config.values)
    nx, ny = _halvable_mesh(config)

    def level(n, m):
        return [dirichlet_laplace_smallest(build_thin_mesh(config.spec_at(d), n, m)) for d in values]

    eigs, eigs_c = level(nx, ny), level(nx // 2, ny // 2)
    control_ok, fit = _controlled_fit(values, eigs, eigs_c)

    spec1 = config.spec_at(1.0)
    lam_c = dirichlet_laplace_smallest(build_thin_mesh(spec1, nx, nx))
    lam_f = dirichlet_laplace_smallest(build_thin_mesh(spec1, 2 * nx, 2 * nx))
    lam_sq = float(_richardson(np.array([lam_c]), np.array([lam_f]))[0])
    ref = 2.0 * np.pi**2
    checks = {
        "slope_steep": fit is not None and fit["slope"] <= -1.9,
        "square_matches": abs(lam_sq - ref) / ref <= 0.01,
        "all_positive": all(e > 0 for e in eigs),
    }
    return _report(
        "poincare", config, checks, t0, eigenvalues=eigs, fit=fit, control_ok=control_ok,
        rate_claimed=fit is not None, square_extrapolated=lam_sq, square_reference=ref,
    )


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
