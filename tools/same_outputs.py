"""Check that two trees of the repository give the same benchmark outputs, bit for bit.

    python3 tools/same_outputs.py PARENT CHANGE [--seeds 1 2]

For every workload named in PARENT's BENCHMARK.json and every seed, runs

    perfbench/worker.py --workload W --seed S --seconds 0 --trace 0

in each tree (one checked pass, on the tree's own `src/`), one process at a
time, and compares the two runs' `outputs` with == (two NaNs count as the
same output) and their counts of `failed` operations.  One line per run
pair says `==` or names the first key path that differs.  The exit code is
1 on any difference or failed worker, else 0.  Standard library only.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys


def first_difference(a, b, path):
    """The first key path at which a and b differ, with both values; None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [key for key in b if key not in a]:
            if key not in a or key not in b:
                return f"{path}.{key}: only in {'CHANGE' if key in b else 'PARENT'}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    if a == b or (a != a and b != b):
        return None
    return f"{path}: {repr(a)[:100]} != {repr(b)[:100]}"


def run_worker(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """The JSON result of one checked pass of a workload in a tree."""
    # the package's sweeps call `git describe`; keep git inside the tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tree.parent))
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{tree}: worker --workload {workload} --seed {seed} exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    trees = args.parent.resolve(), args.change.resolve()
    workloads = [w["name"] for w in json.loads((trees[0] / "BENCHMARK.json").read_text())["workloads"]]
    same = True
    for workload in workloads:
        for seed in args.seeds:
            try:
                parent, change = (run_worker(tree, workload, seed) for tree in trees)
            except RuntimeError as exc:
                print(f"{workload} seed {seed}: {exc}")
                same = False
                continue
            found = first_difference(parent["outputs"], change["outputs"], "outputs")
            if parent["failed"] != change["failed"]:
                found = found or f"failed: {parent['failed']} != {change['failed']}"
            print(f"{workload} seed {seed}: {found or '=='} (failed {parent['failed']} and {change['failed']})")
            same = same and found is None
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
