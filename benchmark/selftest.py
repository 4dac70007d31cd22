#!/usr/bin/env python3
"""Self-test of the benchmark.

For each workload, run alone:
  1. two runs at the reference seed are correct, have identical outcome
     digests and agree on every gated end-to-end metric within its bound;
  2. a run at another seed uses a different instance set and is correct.
Finally, in a directory holding only BENCHMARK.json and the benchmark's own
files, the benchmark must exit non-zero without printing a result.

    python3 benchmark/selftest.py [--seconds 40] [--workloads mt-ladder,tiny-oracle]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join("benchmark", "run.py")
OTHER_SEED = 7


def bench(cwd: str, workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workloads", default="mt-ladder,baselines-mix,tiny-oracle")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []

    for wl in args.workloads.split(","):
        runs = [parse(bench(ROOT, wl, 0, args.seconds)) for _ in range(2)]
        other = parse(bench(ROOT, wl, OTHER_SEED, args.seconds))
        (d1, r1), (d2, r2), (d3, r3) = runs[0], runs[1], other
        if not (r1["correct"] and r2["correct"] and r3["correct"]):
            problems.append(f"{wl}: a run reported incorrect results")
        if d1["outcome_digest"] != d2["outcome_digest"]:
            problems.append(f"{wl}: outcome digests differ between same-seed runs")
        if d1["instances_digest"] == d3["instances_digest"]:
            problems.append(f"{wl}: seed {OTHER_SEED} did not change the instance set")
        for name, bound in bounds.items():
            a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
            diff = abs(a - b) / statistics.median((a, b))
            status = "ok" if diff <= bound else "OUTSIDE BOUND"
            if diff > bound:
                problems.append(f"{wl}: {name} differs by {diff:.3f} > {bound}")
            print(f"{wl:14s} {name:14s} {a:12.6g} {b:12.6g} diff {diff:.3f} "
                  f"bound {bound} {status}")
        print(f"{wl:14s} digest {d1['outcome_digest']} failed {r1['failed']}/"
              f"{r1['attempted']}; seed {OTHER_SEED}: digest "
              f"{d3['outcome_digest']} failed {r3['failed']}/{r3['attempted']}")

    bare = os.path.join(BENCH_DIR, "out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(bare, "mt-ladder", 0, 1)
        printed = any(line.startswith("{") for line in proc.stdout.splitlines())
        if proc.returncode == 0 or printed:
            problems.append("benchmark did not fail without the library sources")
        print(f"bare directory: exit {proc.returncode}, result printed: {printed}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
