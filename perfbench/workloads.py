"""The benchmark's three workloads, built only from rmplates' public API.

A workload is a fixed list of operations.  Each operation has a `run`
callable, which is what the benchmark times, and a `check` callable, run
untimed on the result, which returns the operation's outputs and the list
of problems found.  Outputs are split into

* ``pinned``: independent of the seed, compared with the seed commit's
  values in ``baseline.json`` (relative tolerance ``PINNED_RTOL``);
* ``recorded``: seed-dependent values and known-failing properties (the
  criterion-5 monotonicity flags), reported but never checked.

Why these workloads:

ladder      single pencils on the unit square at n = 32, 64, 128: the only
            workload that measures growth with mesh size, and the one where
            factorization, shift-invert applications and source-solve
            refinement dominate.  No pencil is assembled twice.
acceptance  the acceptance-suite runs at their own meshes: many small
            pencils, the same mesh assembled once per thickness and once per
            family, and Korn's regular-mode Lanczos.  Assembly reuse and
            per-call overhead show here.
thin-fine   the delta-sweep at 384x24 with its 192x12 control level, the
            only workload where eigenpair cluster refinement fires, plus a
            seeded-load resolvent gap on the same mesh.
"""

import math
from dataclasses import dataclass

import numpy as np

from rmplates import (
    BcFamily,
    ConnectingSystem,
    EigOptions,
    MaterialParams,
    assemble_biharmonic_pencil,
    assemble_rm_pencil,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    kernel_census,
    korn_constant,
    p2_dof_points,
    poincare_check,
    resolvent_gap,
    rigid_pair,
    solve_gep_smallest,
    solve_rm_source,
    split_quads,
    sweep_delta,
    sweep_thickness,
)
from rmplates.experiments import DEFAULT_PARAMS, EXPECTED_KERNELS, SweepConfig
from rmplates.rm_system import rm_load_vector

#: relative agreement required between pinned outputs and the baseline
PINNED_RTOL = 1e-6
#: criterion 2's bound on the rigid-pair fixed points
RIGID_ATOL = 1e-10
#: backward error contract of the library's source solves
SOURCE_BACKWARD_ERROR = 1e-12

LADDER_SIZES = (32, 64, 128)
# criterion 2's 1e-10 rigid-pair bound holds up to 64^2 (errors near 1e-11);
# at 128^2 the fixed-point error is 0.9e-10 .. 4.7e-10 over seeds 0-10, above
# the bound for most seeds, so there it is recorded rather than checked, like
# criterion 5's flags
RIGID_CHECKED_SIZES = (32, 64)
ACCEPTANCE_PARAMS = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.1)
DELTAS = (0.4, 0.2, 0.1, 0.05)


@dataclass
class Op:
    name: str
    run: object  # () -> result, timed
    check: object  # (result, first_pass) -> (pinned, recorded, problems)
    size_dofs: int = 0  # ladder: free dofs of the size's clamped RM pencil


def _floats(a):
    return [float(v) for v in np.ravel(a)]


def _csr(M):
    """Full CSR form of an assembled matrix, whichever matrix type it is."""
    return M.full() if hasattr(M, "full") else M


# -- ladder -------------------------------------------------------------------


def _eig_check(tol):
    def check(result, first_pass):
        n_free, res = result
        problems = []
        if np.any(res.residuals > tol):
            problems.append(f"residual {res.residuals.max():.2e} above tol {tol:.0e}")
        return {"n_free": n_free, "eigenvalues": _floats(res.eigenvalues)}, {}, problems

    return check


def _rm_clamped(n):
    def run():
        mesh = build_rect_mesh(1.0, 1.0, n, n)
        params = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.025)
        pencil = assemble_rm_pencil(mesh, params, BcFamily.HARD_CLAMPED)
        return _csr(pencil.A).shape[0], solve_gep_smallest(pencil.A, pencil.B, EigOptions(k=4))

    return Op(f"rm_clamped_{n}", run, _eig_check(EigOptions().tol), 3 * (n - 1) ** 2)


def _morley_clamped(n):
    def run():
        tri = split_quads(build_rect_mesh(1.0, 1.0, n, n))
        pencil = assemble_biharmonic_pencil(tri, 1.0, 0.3, "clamped")
        return _csr(pencil.A).shape[0], solve_gep_smallest(pencil.A, pencil.B, EigOptions(k=4))

    return Op(f"morley_clamped_{n}", run, _eig_check(EigOptions().tol), 3 * (n - 1) ** 2)


def _free_source(n, data):
    def run():
        mesh = build_rect_mesh(1.0, 1.0, n, n)
        pencil = assemble_rm_pencil(mesh, ACCEPTANCE_PARAMS, BcFamily.FREE)
        return mesh, pencil, solve_rm_source(pencil, data["F"], data["f"])

    def check(result, first_pass):
        mesh, pencil, sol = result
        problems = []
        A = _csr(pencil.A)
        x = pencil.dofmap.restrict(sol.concat())
        load = rm_load_vector(pencil, data["F"], data["f"])
        norm_A = float(abs(A).sum(axis=1).max())
        backward = float(np.abs(A @ x - load).max() / (norm_A * np.abs(x).max() + np.abs(load).max()))
        if not backward <= SOURCE_BACKWARD_ERROR:
            problems.append(f"source backward error {backward:.2e} above {SOURCE_BACKWARD_ERROR:.0e}")
        recorded = {"backward_error": backward}
        if first_pass:
            # the rigid pairs cost one more factorization each, so they are
            # checked once per run, untimed
            pair = rigid_pair(mesh, data["a"], data["b"])
            fixed = solve_rm_source(pencil, pair.beta, pair.w)
            err = max(float(np.abs(fixed.beta - pair.beta).max()), float(np.abs(fixed.w - pair.w).max()))
            recorded["rigid_pair_error"] = err
            if n in RIGID_CHECKED_SIZES and not err <= RIGID_ATOL:
                problems.append(f"rigid pair moved by {err:.2e} (bound {RIGID_ATOL:.0e})")
        return {"n_free": A.shape[0]}, recorded, problems

    return Op(f"rm_free_source_{n}", run, check, 3 * (n - 1) ** 2)


def ladder_inputs(rng):
    inputs = {}
    for n in LADDER_SIZES:
        nv = (n + 1) ** 2
        inputs[n] = {
            "F": rng.standard_normal(2 * nv),
            "f": rng.standard_normal(nv),
            "a": rng.standard_normal(2),
            "b": float(rng.standard_normal()),
        }
    return inputs


def ladder(rng):
    data = ladder_inputs(rng)
    ops = []
    for n in LADDER_SIZES:
        ops += [_rm_clamped(n), _morley_clamped(n), _free_source(n, data[n])]
    return ops


# -- acceptance -----------------------------------------------------------------


def _delta_config(nx, ny):
    return SweepConfig(kind="delta", values=DELTAS, mesh_n=nx, mesh_ny=ny, bc=BcFamily.FREE)


def _delta_sweep_check(rep, first_pass):
    pinned = {
        "resolvent_gaps": _floats(rep["resolvent_gaps"]),
        "resolvent_gaps_control": _floats([p["resolvent_gap"] for p in rep["points_control"]]),
        "eig_gap_sums": [_floats(p["eig_gap_sums"]) for p in rep["points"]],
        "limit_eigenvalues": [_floats(p["limit_eigenvalues"]) for p in rep["points"]],
        "max_angles": [_floats(a) for a in rep["max_angles"]],
        "fit_slope": rep["fit"]["slope"] if rep["fit"] else None,
        "ok": rep["ok"],
        "control_ok": rep["control_ok"],
    }
    # criterion 5's known failure: recorded, not checked
    recorded = {"eig_gaps_monotone_per_cluster": rep["eig_gaps_monotone_per_cluster"]}
    return pinned, recorded, []


def _thickness_sweep_check(rep, first_pass):
    pinned = {
        "reference_eigenvalues": _floats(rep["reference_eigenvalues"]),
        "rm_eigenvalues": [_floats(e) for e in rep["rm_eigenvalues"]],
        "gaps": [_floats(g) for g in rep["gaps"]],
        "gaps_control": [_floats(g) for g in rep["gaps_control"]],
        "fit_slope": rep["fit"]["slope"] if rep["fit"] else None,
        "ok": rep["ok"],
        "control_ok": rep["control_ok"],
    }
    return pinned, {"per_eig_monotone": rep["per_eig_monotone"]}, []


def _census_check(table, first_pass):
    expected = {bc.value: dim for bc, dim in EXPECTED_KERNELS.items()}
    problems = [] if table == expected else [f"kernel census {table} != {expected}"]
    return {"census": table}, {}, problems


def _poincare_check(rep, first_pass):
    pinned = {
        "eigenvalues": _floats(rep["eigenvalues"]),
        "square_extrapolated": float(rep["square_extrapolated"]),
        "ok": rep["ok"],
    }
    return pinned, {}, []


def _korn_strips_check(consts, first_pass):
    problems = [] if np.all(np.diff(consts) > 0) else [f"Korn constants {consts} not increasing"]
    return {"constants": _floats(consts)}, {}, problems


def _korn_square_check(const, first_pass):
    problems = [] if const >= 3.0 else [f"unit-square Korn constant {const} below 3"]
    return {"constant": float(const)}, {}, problems


def acceptance(rng):
    thickness = SweepConfig(
        kind="thickness", values=(0.2, 0.1, 0.05, 0.025), mesh_n=64, num_eigs=4, bc=BcFamily.HARD_CLAMPED
    )
    return [
        Op("kernel_census_16", lambda: kernel_census(ACCEPTANCE_PARAMS, build_rect_mesh(1, 1, 16, 16)), _census_check),
        Op("thickness_sweep_64", lambda: sweep_thickness(thickness), _thickness_sweep_check),
        Op("delta_sweep_96x6", lambda: sweep_delta(_delta_config(96, 6)), _delta_sweep_check),
        Op("poincare_32x8", lambda: poincare_check((0.4, 0.2, 0.1), mesh_n=32, mesh_ny=8), _poincare_check),
        Op(
            "korn_strips_48x6",
            lambda: [korn_constant(build_thin_mesh(constant_profile_spec(0, 1, 0.5, d), 48, 6)) for d in (0.4, 0.2, 0.1)],
            _korn_strips_check,
        ),
        Op("korn_square_16", lambda: korn_constant(build_rect_mesh(1, 1, 16, 16)), _korn_square_check),
    ]


# -- thin-fine ------------------------------------------------------------------


def seeded_load(rng, x):
    """Smooth seeded data (F0, f0) at points x: four cosine / sine modes."""
    k = np.arange(1, 5)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    F0 = np.cos(np.pi * np.outer(x, k)) @ a
    f0 = np.sin(np.pi * np.outer(x, k)) @ b
    return F0, f0


def thin_fine(rng):
    nx, ny, delta = 384, 24, DELTAS[-1]
    F0, f0 = seeded_load(rng, p2_dof_points(build_interval_mesh(0.0, 1.0, nx)))

    def seeded_gap():
        spec = constant_profile_spec(0.0, 1.0, 0.5, delta)
        system = ConnectingSystem(build_thin_mesh(spec, nx, ny), build_interval_mesh(0.0, 1.0, nx), spec)
        return resolvent_gap(system, DEFAULT_PARAMS, F0, f0)

    def gap_check(gap, first_pass):
        # a relative H_delta distance of 1 or more means the thin and limit
        # resolvents do not agree at all
        problems = [] if math.isfinite(gap) and 0.0 < gap < 1.0 else [f"seeded resolvent gap {gap}"]
        return {}, {"resolvent_gap": float(gap)}, problems

    return [
        Op("delta_sweep_384x24", lambda: sweep_delta(_delta_config(nx, ny)), _delta_sweep_check),
        Op("seeded_resolvent_384x24", seeded_gap, gap_check),
    ]


WORKLOADS = {"ladder": ladder, "acceptance": acceptance, "thin-fine": thin_fine}
