"""Command-line front end.

Subcommands: solve-rm, solve-biharmonic, solve-limit, sweep-t, sweep-delta,
kernel-check, korn, poincare.  Sweep subcommands accept --config pointing at
a JSON file that overrides the defaults; the schema is documented in the
README.  The exit code is 0 only when every invariant asserted by the run
holds.
"""

import argparse
import json
import pathlib
import sys

import numpy as np
import scipy.io

from .biharmonic import LimitBc, assemble_biharmonic_pencil
from .eigensolve import EigOptions, solve_gep_smallest
from .experiments import (
    EXPECTED_KERNELS,
    SweepConfig,
    emit_report,
    kernel_census,
    korn_sweep,
    poincare_check,
    sweep_delta,
    sweep_thickness,
)
from .geometry import (
    PiecewiseLinear,
    ThinDomainSpec,
    build_interval_mesh,
    build_rect_mesh,
    load_mesh,
    split_quads,
)
from .rm_system import BcFamily, MaterialParams, assemble_rm_pencil
from .thin_limit import assemble_limit_pencil

_BC_ALIASES = {
    "free": BcFamily.FREE,
    "hard-clamped": BcFamily.HARD_CLAMPED,
    "soft-clamped": BcFamily.SOFT_CLAMPED,
    "hard-ss": BcFamily.HARD_SIMPLY_SUPPORTED,
    "soft-ss": BcFamily.SOFT_SIMPLY_SUPPORTED,
    "hard-rigid": BcFamily.HARD_RIGID,
    "soft-rigid": BcFamily.SOFT_RIGID,
    "weak-neumann": BcFamily.WEAK_NEUMANN,
}


def _parse_bc(name: str) -> BcFamily:
    key = name.strip().lower().replace("_", "-")
    if key in _BC_ALIASES:
        return _BC_ALIASES[key]
    return BcFamily(name)


def _material(args) -> MaterialParams:
    return MaterialParams(E=args.E, sigma=args.sigma, k=args.k, t=args.t)


def _add_material_args(p):
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--k", type=float, default=5.0 / 6.0)
    p.add_argument("--t", type=float, default=0.1)


def _eig_options(args) -> EigOptions:
    return EigOptions(k=args.num_eigs, tol=args.tol)


def _dump_matrices(args, matrices: dict):
    if not getattr(args, "dump_matrices", None):
        return
    out = pathlib.Path(args.dump_matrices)
    out.mkdir(parents=True, exist_ok=True)
    for name, M in matrices.items():
        scipy.io.mmwrite(out / f"{name}.mtx", M, symmetry="symmetric")


def _dump_eigvecs(args, vecs):
    if getattr(args, "dump_eigvecs", None):
        scipy.io.mmwrite(args.dump_eigvecs, np.asarray(vecs))


def _write_eigs(path, result, extra):
    payload = dict(extra)
    payload["eigenvalues"] = result.eigenvalues.tolist()
    payload["residuals"] = result.residuals.tolist()
    payload["info"] = result.info
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")


def cmd_solve_rm(args) -> int:
    mesh = load_mesh(args.mesh)
    params = _material(args)
    bc = _parse_bc(args.bc)
    pencil = assemble_rm_pencil(mesh, params, bc)
    res = solve_gep_smallest(pencil.A, pencil.B, _eig_options(args))
    _dump_matrices(args, {"A": pencil.A, "B": pencil.B})
    _dump_eigvecs(args, res.eigenvectors)
    _write_eigs(
        args.out,
        res,
        {
            "bc": bc.value,
            "params": {"E": params.E, "sigma": params.sigma, "k": params.k, "t": params.t},
            "mesh_info": {"nodes": mesh.n_nodes, "elements": mesh.n_elements},
            "shifted": True,
        },
    )
    return 0


def cmd_solve_biharmonic(args) -> int:
    mesh = load_mesh(args.mesh)
    if mesh.element_kind.value == "quad4":
        mesh = split_quads(mesh)
    bc = LimitBc(args.bc)
    pencil = assemble_biharmonic_pencil(mesh, args.E, args.sigma, bc)
    res = solve_gep_smallest(pencil.A, pencil.B, _eig_options(args))
    _dump_matrices(args, {"A": pencil.A, "B": pencil.B})
    _dump_eigvecs(args, res.eigenvectors)
    _write_eigs(
        args.out,
        res,
        {
            "bc": bc.value,
            "params": {"E": args.E, "sigma": args.sigma},
            "mesh_info": {"nodes": mesh.n_nodes, "elements": mesh.n_elements},
        },
    )
    return 0


def cmd_solve_limit(args) -> int:
    a, b = (float(v) for v in args.interval.split(","))
    mesh = build_interval_mesh(a, b, args.n)
    if args.g_profile:
        with open(args.g_profile) as fh:
            prof = json.load(fh)
        xs = np.asarray(prof["x"], dtype=float)
        spec = ThinDomainSpec(
            (a, b),
            PiecewiseLinear(xs, np.asarray(prof["f1"], dtype=float)),
            PiecewiseLinear(xs, np.asarray(prof["f2"], dtype=float)),
            delta=1.0,
            d=args.d,
        )
    else:
        spec = ThinDomainSpec(
            (a, b), PiecewiseLinear.constant(0.5, a, b), PiecewiseLinear.constant(0.5, a, b), 1.0, d=args.d
        )
    params = _material(args)
    pencil = assemble_limit_pencil(mesh, spec, params)
    res = solve_gep_smallest(pencil.A, pencil.B, _eig_options(args))
    _dump_matrices(args, {"A": pencil.A, "B": pencil.B})
    _write_eigs(
        args.out,
        res,
        {
            "interval": [a, b],
            "d": args.d,
            "params": {"E": params.E, "sigma": params.sigma, "k": params.k, "t": params.t},
        },
    )
    return 0


def _config_from_file(path, kind, defaults: dict) -> SweepConfig:
    data = dict(defaults)
    if path:
        with open(path) as fh:
            data.update(json.load(fh))
    data.pop("kind", None)  # the subcommand decides the sweep kind
    params = data.pop("params", None)
    known = {"values", "mesh_n", "mesh_ny", "num_eigs", "bc", "profile", "out"}
    unknown = set(data) - known
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)} (expected a subset of {sorted(known)})")
    cfg = SweepConfig(kind=kind, **data)
    if params:
        cfg.params = MaterialParams(**params)
    if isinstance(cfg.bc, str):
        cfg.bc = _parse_bc(cfg.bc)
    return cfg


def _finish_sweep(report: dict, out: str) -> int:
    if out:
        paths = emit_report(report, out)
        print(f"wrote {paths['json']} and {paths['csv']}")
    for name, ok in report.get("checks", {}).items():
        print(f"  [{'pass' if ok else 'FAIL'}] {name}")
    return 0 if report["ok"] else 1


def cmd_sweep_t(args) -> int:
    cfg = _config_from_file(
        args.config,
        "thickness",
        {"values": (0.2, 0.1, 0.05, 0.025), "mesh_n": 64, "num_eigs": 4, "bc": "hard_clamped"},
    )
    report = sweep_thickness(cfg)
    return _finish_sweep(report, args.out or cfg.out)


def cmd_sweep_delta(args) -> int:
    cfg = _config_from_file(
        args.config,
        "delta",
        {"values": (0.4, 0.2, 0.1, 0.05), "mesh_n": 96, "mesh_ny": 6, "num_eigs": 4, "bc": "free"},
    )
    report = sweep_delta(cfg)
    return _finish_sweep(report, args.out or cfg.out)


def cmd_kernel_check(args) -> int:
    cfg = _config_from_file(args.config, "kernel", {"values": (), "mesh_n": 16})
    mesh = build_rect_mesh(1.0, 1.0, cfg.mesh_n, cfg.mesh_n)
    table = kernel_census(cfg.params, mesh)
    ok = all(table[bc.value] == dim for bc, dim in EXPECTED_KERNELS.items())
    for name, count in table.items():
        print(f"  {name:24s} kernel dimension {count}")
    print(f"  [{'pass' if ok else 'FAIL'}] kernel census matches theory")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"kernel_census": table, "ok": ok}, fh, indent=2)
    return 0 if ok else 1


def cmd_korn(args) -> int:
    cfg = _config_from_file(args.config, "korn", {"values": (0.4, 0.2, 0.1), "mesh_n": 64, "mesh_ny": 8})
    report = korn_sweep(cfg)
    print(f"  unit square constant: {report['unit_square_constant']:.4f}")
    for d, c in zip(report["parameter_values"], report["constants"]):
        print(f"  delta={d:<6g} korn constant {c:.4f}")
    return _finish_sweep(report, args.out or cfg.out)


def cmd_poincare(args) -> int:
    cfg = _config_from_file(args.config, "poincare", {"values": (0.4, 0.2, 0.1), "mesh_n": 32, "mesh_ny": 8})
    report = poincare_check(cfg.values, cfg.mesh_n, cfg.mesh_ny)
    print(f"  slope {report['fit']['slope']:.3f}, square value {report['square_extrapolated']:.4f}")
    return _finish_sweep(report, args.out or cfg.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rmplates", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-rm", help="eigenvalues of the shifted plate pencil")
    p.add_argument("--mesh", required=True)
    p.add_argument("--bc", default="free")
    _add_material_args(p)
    p.add_argument("--num-eigs", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9, help="relative eigenpair residual bound")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-matrices")
    p.add_argument("--dump-eigvecs")
    p.set_defaults(func=cmd_solve_rm)

    p = sub.add_parser("solve-biharmonic", help="eigenvalues of the Morley limit pencil")
    p.add_argument("--mesh", required=True)
    p.add_argument("--bc", default="clamped")
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--num-eigs", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9, help="relative eigenpair residual bound")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-matrices")
    p.add_argument("--dump-eigvecs")
    p.set_defaults(func=cmd_solve_biharmonic)

    p = sub.add_parser("solve-limit", help="eigenvalues of the dimension-reduced pencil")
    p.add_argument("--interval", default="0,1")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--g-profile", help="JSON file {x, f1, f2}")
    p.add_argument("--d", type=int, default=1)
    _add_material_args(p)
    p.add_argument("--num-eigs", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9, help="relative eigenpair residual bound")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-matrices")
    p.set_defaults(func=cmd_solve_limit)

    for name, fn, help_text in (
        ("sweep-t", cmd_sweep_t, "thickness sweep against the biharmonic reference"),
        ("sweep-delta", cmd_sweep_delta, "thin-domain sweep: resolvent gaps and eigenvalue clusters"),
        ("kernel-check", cmd_kernel_check, "kernel census over the eight boundary families"),
        ("korn", cmd_korn, "second Korn constant on thin rectangles"),
        ("poincare", cmd_poincare, "Dirichlet constant blow-up on thin rectangles"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file overriding the defaults")
        p.add_argument("--out", help="report directory (JSON output file for kernel-check)")
        p.set_defaults(func=fn)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
