"""Command-line front end.

Subcommands: solve-rm, solve-biharmonic, solve-limit, sweep-t, sweep-delta,
kernel-check, korn, poincare.  Sweep subcommands accept --config pointing at
a JSON file that overrides the defaults with the keys that sweep reads; the
schema is documented in the README.  The exit code is 0 only when every
invariant asserted by the run holds.
"""

import argparse
import json
import pathlib
import sys
from dataclasses import asdict

import numpy as np
import scipy.io

from .biharmonic import LimitBc, assemble_biharmonic_pencil
from .eigensolve import BACKWARD_ERROR, EigOptions, solve_gep_smallest
from .errors import AssemblyError
from .experiments import (
    CONFIG_KEYS,
    EXPECTED_KERNELS,
    SweepConfig,
    emit_report,
    kernel_census,
    korn_sweep,
    poincare_check,
    sweep_delta,
    sweep_thickness,
)
from .geometry import build_interval_mesh, build_rect_mesh, load_mesh, profile_spec, split_quads
from .rm_system import BcFamily, MaterialParams, assemble_rm_pencil
from .thin_limit import assemble_limit_pencil


def _parse_bc(name: str, kind=BcFamily):
    """The member of the boundary-condition enum `kind` that `name` names by
    its value or its short name (the value with "ss" for "simply_supported"),
    all folded: blanks stripped, lower case, "-" for "_" (values are lower case)."""
    if not isinstance(name, str):
        raise ValueError(f"bc must be a string naming a {kind.__name__}, got {name!r}")
    key = name.strip().lower().replace("_", "-")
    for bc in kind:
        if key in (bc.value.replace("_", "-"), bc.value.replace("simply_supported", "ss").replace("_", "-")):
            return bc
    raise ValueError(f"{name!r} names no {kind.__name__}")


def _material(args) -> MaterialParams:
    return MaterialParams(E=args.E, sigma=args.sigma, k=args.k, t=args.t)


def _config_params(params) -> MaterialParams:
    """The MaterialParams of a config's `params`: an object of numbers E,
    sigma and, optionally, k and t."""
    numbers = isinstance(params, dict) and all(type(v) in (int, float) for v in params.values())
    if not (numbers and {"E", "sigma"} <= set(params) <= {"E", "sigma", "k", "t"}):
        raise ValueError(f"params must be an object of numbers E, sigma and optionally k and t, got {params!r}")
    return MaterialParams(**params)


def _build_rm(args):
    mesh, params, bc = load_mesh(args.mesh), _material(args), _parse_bc(args.bc)
    mesh_info = {"nodes": mesh.n_nodes, "elements": mesh.n_elements}
    payload = {"bc": bc.value, "params": asdict(params), "mesh_info": mesh_info, "shifted": True}
    return assemble_rm_pencil(mesh, params, bc), payload


def _build_biharmonic(args):
    mesh = load_mesh(args.mesh)
    if mesh.element_kind.value == "quad4":
        mesh = split_quads(mesh)
    bc, mesh_info = _parse_bc(args.bc, LimitBc), {"nodes": mesh.n_nodes, "elements": mesh.n_elements}
    payload = {"bc": bc.value, "params": {"E": args.E, "sigma": args.sigma}, "mesh_info": mesh_info}
    return assemble_biharmonic_pencil(mesh, args.E, args.sigma, bc), payload


def _build_limit(args):
    a, b = (float(v) for v in args.interval.split(","))
    profile = {"x": [a, b], "f1": [0.5, 0.5], "f2": [0.5, 0.5]}
    if args.g_profile:
        with open(args.g_profile) as fh:
            profile = json.load(fh)
    params, spec = _material(args), profile_spec(profile, 1.0, (a, b), args.d)
    pencil = assemble_limit_pencil(build_interval_mesh(a, b, args.n), spec, params)
    return pencil, {"interval": [a, b], "d": args.d, "params": asdict(params)}


def cmd_solve(args) -> int:
    """Solve the pencil of the subcommand's builder; dump it, over the free dofs
    in ascending global order, and write its payload with the eigenpairs.
    A ValueError, such as a bad --num-eigs or --tol, an unreadable input
    file or a mesh the assembler refuses (AssemblyError) exits with its message."""
    try:
        pencil, payload = args.build(args)
        res = solve_gep_smallest(pencil.A, pencil.B, EigOptions(k=args.num_eigs, tol=args.tol))
    except (OSError, ValueError, AssemblyError) as exc:
        raise SystemExit(f"{args.command}: {exc}")
    order = np.argsort(pencil.dofmap.free)
    if args.dump_matrices:
        out = pathlib.Path(args.dump_matrices)
        out.mkdir(parents=True, exist_ok=True)
        for name, M in (("A", pencil.A), ("B", pencil.B)):
            scipy.io.mmwrite(out / f"{name}.mtx", M[order][:, order], symmetry="symmetric")
    if getattr(args, "dump_eigvecs", None):
        scipy.io.mmwrite(args.dump_eigvecs, res.eigenvectors[order])
    payload.update(eigenvalues=res.eigenvalues.tolist(), residuals=res.residuals.tolist(), info=res.info)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")
    return 0


def _kernel_check(cfg: SweepConfig) -> dict:
    table = kernel_census(cfg.params, build_rect_mesh(1.0, 1.0, cfg.mesh_n, cfg.mesh_n))
    ok = all(table[bc.value] == dim for bc, dim in EXPECTED_KERNELS.items())
    for name, count in table.items():
        print(f"  {name:24s} kernel dimension {count}")
    print(f"  [{'pass' if ok else 'FAIL'}] kernel census matches theory")
    return {"kernel_census": table, "ok": ok}


def _korn(cfg: SweepConfig) -> dict:
    report = korn_sweep(cfg)
    print(f"  unit square constant: {report['unit_square_constant']:.4f}")
    for d, c in zip(report["parameter_values"], report["constants"]):
        print(f"  delta={d:<6g} korn constant {c:.4f}")
    return report


def _poincare(cfg: SweepConfig) -> dict:
    report = poincare_check(cfg.values, cfg.mesh_n, cfg.mesh_ny)
    slope = f"slope {report['fit']['slope']:.3f}" if report["fit"] else "slope withheld by the control level"
    print(f"  {slope}, square value {report['square_extrapolated']:.4f}")
    return report


# subcommand -> (sweep kind, runner from SweepConfig to report, help); the
# kind's row of CONFIG_KEYS holds the keys it reads and their defaults
SWEEPS = {
    "sweep-t": ("thickness", sweep_thickness, "thickness sweep against the biharmonic reference"),
    "sweep-delta": ("delta", sweep_delta, "thin-domain sweep: resolvent gaps and eigenvalue clusters"),
    "kernel-check": ("kernel", _kernel_check, "kernel census over the eight boundary families"),
    "korn": ("korn", _korn, "second Korn constant on thin rectangles"),
    "poincare": ("poincare", _poincare, "Dirichlet constant blow-up on thin rectangles"),
}


def cmd_sweep(args) -> int:
    """Run the subcommand's row of SWEEPS on its kind's defaults in
    CONFIG_KEYS updated by --config, a JSON object.  An unreadable config or
    one the sweep cannot run (a ValueError) exits with its message."""
    kind, run, _ = SWEEPS[args.command]
    try:
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"a config is a JSON object, got {type(config).__name__}")
        unread = sorted(set(config) - set(CONFIG_KEYS[kind]))
        if unread:
            raise SystemExit(f"{args.command} does not read config keys {unread}; it reads {list(CONFIG_KEYS[kind])}")
        if "params" in config:
            config["params"] = _config_params(config["params"])
        if "bc" in config:
            config["bc"] = _parse_bc(config["bc"])
        report = run(SweepConfig(kind, **{**CONFIG_KEYS[kind], **config}))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.command}: {exc}")
    if args.out and kind == "kernel":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    elif args.out:
        paths = emit_report(report, args.out)
        print(f"wrote {paths['json']} and {paths['csv']}")
    for name, ok in report.get("checks", {}).items():
        print(f"  [{'pass' if ok else 'FAIL'}] {name}")
    return 0 if report["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rmplates", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--num-eigs", type=int, default=10)
    solve.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help=f"relative eigenpair residual bound; a pair above it passes when its normwise backward error is at most {BACKWARD_ERROR:.0e}",
    )
    solve.add_argument("--out", required=True)
    solve.add_argument("--dump-matrices")
    mesh = argparse.ArgumentParser(add_help=False)
    mesh.add_argument("--mesh", required=True)
    mesh.add_argument("--dump-eigvecs")
    plate = argparse.ArgumentParser(add_help=False)
    plate.add_argument("--E", type=float, default=1.0)
    plate.add_argument("--sigma", type=float, default=0.3)
    shear = argparse.ArgumentParser(add_help=False)
    shear.add_argument("--k", type=float, default=5.0 / 6.0)
    shear.add_argument("--t", type=float, default=0.1)

    p = sub.add_parser("solve-rm", parents=[mesh, plate, shear, solve], help="eigenvalues of the shifted plate pencil")
    p.add_argument("--bc", default="free")
    p.set_defaults(func=cmd_solve, build=_build_rm)
    p = sub.add_parser("solve-biharmonic", parents=[mesh, plate, solve], help="eigenvalues of the Morley limit pencil")
    p.add_argument("--bc", default="clamped")
    p.set_defaults(func=cmd_solve, build=_build_biharmonic)
    p = sub.add_parser("solve-limit", parents=[plate, shear, solve], help="eigenvalues of the dimension-reduced pencil")
    p.add_argument("--interval", default="0,1")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--g-profile", help="JSON file {x, f1, f2}")
    p.add_argument("--d", type=int, default=1)
    p.set_defaults(func=cmd_solve, build=_build_limit)

    for name, (*_, help_text) in SWEEPS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file overriding the defaults")
        p.add_argument("--out", help="report directory (JSON output file for kernel-check)")
        p.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
