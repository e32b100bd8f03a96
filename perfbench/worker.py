"""One benchmark process: set-up, then passes over one workload.

Started by run.py, which caps the BLAS threads before this process imports
numpy.  With --probe it only times set-up (imports plus a first tiny pencil
solve) and exits.  Otherwise it runs passes over the workload until
--seconds of pass time have been measured, checks every operation's outputs,
and with --trace 1 puts traced passes between two untraced ones.  The last
line of standard output is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rmplates  # noqa: E402

if pathlib.Path(rmplates.__file__).resolve().parent != SRC / "rmplates":
    sys.exit(f"rmplates imported from {rmplates.__file__}, not from {SRC}")


def warm_up():
    """First call of the library: mesh build and one tiny pencil solve."""
    mesh = rmplates.build_rect_mesh(1.0, 1.0, 4, 4)
    pencil = rmplates.assemble_rm_pencil(mesh, rmplates.MaterialParams(E=1.0, sigma=0.3), "hard_clamped")
    rmplates.solve_gep_smallest(pencil.A, pencil.B, rmplates.EigOptions(k=2))


warm_up()
SETUP_S = time.perf_counter() - T0

from spans import LAYER_METRICS, RUN_METRICS, Tracer, layer_metrics, unit  # noqa: E402
import workloads  # noqa: E402


def compare(got, want, rtol, path=""):
    """Differences between an output and its baseline value."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [d for k in want for d in compare(got[k], want[k], rtol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, rtol, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=rtol, abs_tol=0.0) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def run_pass(ops, baseline, first_pass, tracer=None):
    """Time every op of one pass, then check it; returns per-op records."""
    gc.collect()
    records = {}
    for op in ops:
        problems, pinned, recorded = [], {}, {}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("op"):
                    result = op.run()
        except Exception as exc:  # a raising op counts as failed, the run goes on
            result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
        if result is not None:
            try:
                pinned, recorded, problems = op.check(result, first_pass)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            del result
            if baseline is not None:
                want = baseline.get(op.name, {}).get("pinned")
                if want is None:
                    problems.append("no baseline recorded")
                else:
                    problems += compare(pinned, want, workloads.PINNED_RTOL, op.name)
        records[op.name] = {"seconds": seconds, "pinned": pinned, "recorded": recorded, "problems": problems}
    return records


DIFFERS = "traced outputs differ from the untraced pass"


def flag_differences(untraced, traced):
    """Mark ops whose traced outputs are not bit-for-bit the untraced ones."""
    for name, ra in untraced.items():
        rb = traced[name]
        shared = ra["recorded"].keys() & rb["recorded"].keys()
        if ra["pinned"] != rb["pinned"] or any(ra["recorded"][k] != rb["recorded"][k] for k in shared):
            rb["problems"].append(DIFFERS)


def growth_exponent(ops, passes):
    """Log-log slope of per-size operation time against free dofs."""
    sizes = sorted({op.size_dofs for op in ops if op.size_dofs})
    if len(sizes) < 2:
        return 0.0
    times = [
        statistics.median(sum(p[op.name]["seconds"] for op in ops if op.size_dofs == n) for p in passes)
        for n in sizes
    ]
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "rmplates").glob("*.py")))


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu["model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            cpu[f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--no-baseline", action="store_true")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"setup_s": SETUP_S}))
        return

    ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    baseline = None
    if not args.no_baseline:
        with open(BENCH / "baseline.json") as fh:
            baseline = json.load(fh)["workloads"][args.workload]["ops"]

    passes = [run_pass(ops, baseline, first_pass=True)]
    measured = sum(r["seconds"] for r in passes[0].values())
    traced, layers = [], []
    if args.trace:
        tracer = Tracer()
        tracer.install(workloads)
        try:
            while not traced or measured < args.seconds:
                tracer.spans.clear()
                paused = tracer.bookkeeping_s
                traced.append(run_pass(ops, baseline, first_pass=False, tracer=tracer))
                measured += sum(r["seconds"] for r in traced[-1].values())
                metrics = layer_metrics(tracer.spans)
                metrics["trace.pass_s"] = sum(s[3] - s[2] for s in tracer.spans if s[0] == "op")
                metrics["trace.bookkeeping_s"] = tracer.bookkeeping_s - paused
                layers.append(metrics)
        finally:
            tracer.uninstall()
        # the tracing overhead is judged against a warm untraced pass, since
        # the first pass also pays for first use of the heap
        passes.append(run_pass(ops, baseline, first_pass=False))
    else:
        while measured < args.seconds:
            passes.append(run_pass(ops, baseline, first_pass=False))
            measured += sum(r["seconds"] for r in passes[-1].values())

    for t in traced:
        flag_differences(passes[0], t)
    all_passes = passes + traced
    failures = [f"{name}: {msg}" for p in all_passes for name, r in p.items() for msg in r["problems"]]
    failed = sum(1 for p in all_passes for r in p.values() if r["problems"])
    pass_s = [sum(r["seconds"] for r in p.values()) for p in passes]
    out = {
        "setup_s": SETUP_S,
        "pass_s": pass_s,
        "op_s": {op.name: [p[op.name]["seconds"] for p in passes] for op in ops},
        "attempted": len(ops) * len(all_passes),
        "failed": failed,
        "failures": failures,
        "outputs": {name: {"pinned": r["pinned"], "recorded": r["recorded"]} for name, r in passes[0].items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "growth_exp": growth_exponent(ops, passes),
        "env": environment(),
    }
    if args.trace:
        layer = {k: statistics.mean(m[k] for m in layers) for k in layers[0]}
        layer["trace.attributed"] = sum(layer[k] for k in LAYER_METRICS if k.endswith("_s")) / layer["trace.pass_s"]
        layer["trace.overhead"] = layer["trace.pass_s"] / pass_s[-1]
        layer["growth_exp"] = out["growth_exp"]
        layer["src.lines"] = src_lines()
        out["layer"] = {k: {"value": layer[k], "unit": unit(k)} for k in LAYER_METRICS + RUN_METRICS}
        out["bit_for_bit"] = not any(DIFFERS in r["problems"] for t in traced for r in t.values())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
