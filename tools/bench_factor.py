"""Time the plate and strip LU: `factorize`, its fill and 20 solves per pencil and size.

The package is imported from the `src/` of the checkout this file sits in:

    python3 tools/bench_factor.py --sizes 32 64 128 192 > factor.json

Pencils, on the unit square with n x n cells:

    rm_clamped       hard-clamped Reissner-Mindlin, t = 0.025
    morley_clamped   clamped Morley on the split mesh
    rm_free          the free plate at t = 0.1, whose A a free-plate
                     source solve factors

and on the thin strip (0, 1) x (-delta/2, delta/2) with 2n x n/8 cells, so
that n = 192 is the 384 x 24 strip of the delta-sweep:

    strip_free_0.05  the free strip at t = 0.1 and delta = 0.05
    strip_free_0.4   the same at delta = 0.4

For every pencil and size the result holds the free dofs, the ordering
`factorize` reports, `lu_fill` (SuperLU's stored L and U entries), the
median `factor_s` over the repeats, the median seconds of 20 solves with
seeded right-hand sides, and `rss_mb`, the pencil's own memory: the largest
resident set size read right after a factor, less the one read just before
the pencil is built (`VmRSS` in /proc/self/status; null off Linux), so the
imports of the process are not counted.  Each pencil and size is built and
measured in a fresh process of its own, one after another, so `rss_mb`
holds nothing that an earlier pencil left.  `assembly_peak_mb` is the
tracemalloc high-water mark of one assembly of the pencil, made before,
and apart from, the measured one, so tracing touches neither `rss_mb` nor
the timings; `assembly_peak_stacks` is that peak in stacks of
ne * nloc^2 float64 entries, the size of one matrix's per-element blocks.
`growth_exp` is the least-squares slope of log(factor_s), log(lu_fill) and
log(solve_s) against log(dofs).  The last line of standard output is the
JSON result.
"""

import argparse
import json
import multiprocessing
import pathlib
import platform
import statistics
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rmplates import (  # noqa: E402
    BcFamily,
    MaterialParams,
    assemble_biharmonic_pencil,
    assemble_rm_pencil,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    split_quads,
)
from rmplates.eigensolve import factorize  # noqa: E402

SOLVES = 20


def square(n):
    return build_rect_mesh(1.0, 1.0, n, n)


def split_square(n):
    return split_quads(square(n))


def strip(delta):
    return lambda n: build_thin_mesh(constant_profile_spec(0.0, 1.0, 0.5, delta), 2 * n, n // 8)


def rm(bc, t):
    params = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=t)
    return lambda mesh: assemble_rm_pencil(mesh, params, bc)


def morley_clamped(mesh):
    return assemble_biharmonic_pencil(mesh, 1.0, 0.3, "clamped")


# name -> (mesh of size n, assembler of the pencil on it, local dofs per element)
PENCILS = {
    "rm_clamped": (square, rm(BcFamily.HARD_CLAMPED, 0.025), 12),
    "morley_clamped": (split_square, morley_clamped, 6),
    "rm_free": (square, rm(BcFamily.FREE, 0.1), 12),
    "strip_free_0.05": (strip(0.05), rm(BcFamily.FREE, 0.1), 12),
    "strip_free_0.4": (strip(0.4), rm(BcFamily.FREE, 0.1), 12),
}


def traced_peak(assemble, mesh):
    """The tracemalloc high-water mark of one assembly on `mesh`, in bytes;
    a first, untraced assembly keeps lazy imports and caches out of it."""
    assemble(mesh)
    tracemalloc.start()
    try:
        assemble(mesh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rss_mb():
    """The resident set size of this process in MB, or None without /proc."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) / 1024 for line in fh if line.startswith("VmRSS:"))
    except (OSError, StopIteration):
        return None


def measure(M, repeats, base_rss):
    factor_s, solve_s, rss = [], [], []
    rhs = np.random.default_rng(0).standard_normal((SOLVES, M.shape[0]))
    for _ in range(repeats):
        t0 = time.perf_counter()
        factor = factorize(M)
        factor_s.append(time.perf_counter() - t0)
        rss.append(rss_mb())
        t0 = time.perf_counter()
        for b in rhs:
            factor.lu.solve(b)
        solve_s.append(time.perf_counter() - t0)
        del factor.lu
    return {
        "dofs": M.shape[0],
        "ordering": factor.ordering,
        "lu_fill": factor.lu_fill,
        "factor_s": statistics.median(factor_s),
        "solve_s": statistics.median(solve_s),
        "rss_mb": None if None in rss else max(rss) - base_rss,
    }


def measure_pencil(name, n, repeats):
    """`measure` of pencil `name` at size n, its memory counted from before
    the build, and its traced assembly peak; runs in a process of its own."""
    build_mesh, assemble, nloc = PENCILS[name]
    mesh = build_mesh(n)
    peak = traced_peak(assemble, mesh)
    base_rss = rss_mb()
    row = measure(assemble(mesh).A, repeats, base_rss)
    row["assembly_peak_mb"] = peak / 2**20
    row["assembly_peak_stacks"] = peak / (len(mesh.elements) * nloc * nloc * 8)
    return row


def slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0]) if len(xs) >= 2 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128, 192])
    ap.add_argument("--repeats", type=int, default=3, help="factorizations per pencil below 128^2; one from 128^2 up")
    args = ap.parse_args()
    out = {
        "host": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "solves": SOLVES,
        "pencils": {},
        "growth_exp": {},
    }
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn, max_tasks_per_child=1) as pool:
        for name in PENCILS:
            rows = {}
            for n in args.sizes:
                rows[n] = pool.submit(measure_pencil, name, n, args.repeats if n < 128 else 1).result()
                print(name, n, rows[n], file=sys.stderr, flush=True)
            out["pencils"][name] = rows
            dofs = [r["dofs"] for r in rows.values()]
            metrics = ("factor_s", "lu_fill", "solve_s")
            out["growth_exp"][name] = {key: slope(dofs, [r[key] for r in rows.values()]) for key in metrics}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
