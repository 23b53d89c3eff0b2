#!/usr/bin/env python3
"""Self-test of the benchmark on toy inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on tiny inputs (a tiny Cora-like
replica, a 3,000-node store), untraced and traced, and checks that each run
is correct and emits every metric BENCHMARK.json names, with its unit. Then
re-runs each workload with a deliberately corrupted reference score and
checks that the correctness gate trips: the run must report
`"correct": false` and exit non-zero. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "2", "--trace", str(trace), "--toy", *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(name, trace)
            label = f"{name} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}, stderr {err[-1500:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
            if key == "end_to_end" and any(v["value"] <= 0 for v in result["metrics"].values()):
                problems.append(f"{label}: a metric is not positive: {result['metrics']}")
            print(f"ok   {label}: {len(got)} metrics", flush=True)
        code, result, _ = run(name, 0, "--corrupt")
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{name}: corrupted reference did not trip the gate (exit {code}, {result})")
        else:
            print(f"ok   {name}: corrupted reference trips the gate", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
