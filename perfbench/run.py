"""rmplates benchmark: time to checked spectra, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Workloads: ladder, acceptance, thin-fine (see workloads.py for what each
runs and why).  The launcher caps BLAS threads at the CPUs this process may
use, times set-up in fresh worker processes (one discarded warm-up, then
SETUP_PROBES timed ones), then runs the workload in one worker process,
started and awaited one at a time.

With --trace 0 the result reports the end-to-end metrics

    pass_s       median seconds of one pass over the workload's operations
    setup_s      median of the set-up samples: imports plus a first tiny solve
    peak_rss_mb  peak resident set size of the workload process

and with --trace 1 the per-layer counts and self times of spans.py, measured
on traced passes between two untraced ones.  Every operation's outputs
are checked (invariants, and the seed commit's values in baseline.json);
an operation that raises or fails a check counts in "failed".  The last
line of standard output is the JSON result.

--record runs without baseline comparison and writes the pinned outputs
(and, with --trace 1, the exact per-layer counts) into baseline.json.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
BASELINE = BENCH / "baseline.json"
WORKLOADS = ("ladder", "acceptance", "thin-fine")
SETUP_PROBES = 8
DEADLINE_S = 170.0
# per-layer counts that repeat exactly from run to run
EXACT_COUNTS = (
    "eigensolve.factor_calls",
    "eigensolve.opinv_applies",
    "eigensolve.lu_fill",
    "eigensolve.refine_factor_calls",
    "rm_system.solve_lu_solves",
    "src.lines",
)


def worker_env():
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(max(1, min(nproc, int(env.get(var, nproc)))))
        except ValueError:
            env[var] = str(nproc)
    # the library's sweeps call `git describe`; keep git inside the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def run_worker(args, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("benchmark: out of time before the workload started")
    proc = subprocess.run(
        [sys.executable, str(WORKER)] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"benchmark: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    return f"median {statistics.median(values):.4g}, max {max(values):.4g}, n={len(values)}"


def record(workload, out):
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"workloads": {}}
    entry = baseline["workloads"].setdefault(workload, {})
    entry["ops"] = {name: {"pinned": o["pinned"]} for name, o in out["outputs"].items()}
    if "layer" in out:
        entry["counts"] = {k: round(out["layer"][k]["value"]) for k in EXACT_COUNTS}
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rmplates" / "__init__.py").is_file():
        sys.exit(f"benchmark: no rmplates sources under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    probes = [run_worker(["--probe"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES + 1)][1:]
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace", str(args.trace)] + (["--no-baseline"] if args.record else [])
    out = run_worker(cmd, env, deadline)
    if args.record:
        record(args.workload, out)

    setups = probes + [out["setup_s"]]
    failed = out["failed"]
    print(f"env {json.dumps(out['env'])}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  pass_s       {statistics.median(out['pass_s']):.4f} s   ({summary(out['pass_s'])} untraced passes)")
    print(f"  setup_s      {statistics.median(setups):.4f} s   ({summary(setups)} processes)")
    print(f"  peak_rss_mb  {out['peak_rss_mb']:.1f} MB")
    if args.workload == "ladder":
        print(f"  growth_exp   {out['growth_exp']:.4f}   (slope of log op time per size vs log free dofs)")
    print(f"  failed_ops   {failed / out['attempted']:.4f}   ({failed} of {out['attempted']} operations)")
    for name, times in out["op_s"].items():
        print(f"    op {name:28s} {summary(times)} s")
    for name, o in out["outputs"].items():
        if o["recorded"]:
            print(f"    out {name:27s} {json.dumps(o['recorded'])}")
    for msg in out["failures"]:
        print(f"  FAILED {msg}")
    if "bit_for_bit" in out:
        print(f"  traced outputs identical to untraced: {out['bit_for_bit']}")

    if args.trace:
        metrics = out["layer"]
        for k, m in metrics.items():
            print(f"  {k:34s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "pass_s": {"value": statistics.median(out["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"], "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
