#!/usr/bin/env python3
"""Generate a seeded instance batch and benchmark the solvers over it.

Writes the instances and a CSV in the style of the usual result tables
(ET = execution time in seconds, M = makespan, dash = Unsolved).  Everything
but ET is deterministic for a fixed --seed.

Example:
    python scripts/run_benchmark.py --out-dir runs/smoke --count 10 --set A
"""

import argparse
import os
import sys

from mdrpp import GenSpec, generate_instance, random_connected_graph, serialize_instance
from mdrpp.cli import main as cli_main


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=10, help="instances to generate")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--set", choices=("A", "B", "C"), default="A")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--edges", type=int, default=11)
    p.add_argument("--algorithms", default="mt,ps,am,cs,exact")
    p.add_argument("--threads", type=int, default=1)
    return p.parse_args()


def main():
    args = parse_args()
    inst_dir = os.path.join(args.out_dir, "instances")
    os.makedirs(inst_dir, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        base = random_connected_graph(args.nodes, args.edges, seed,
                                      integer_weights=False,
                                      min_weight=1.0, max_weight=4.0)
        inst = generate_instance(
            base, GenSpec(args.nodes, args.edges, seed, set_kind=args.set))
        path = os.path.join(inst_dir, f"{inst.name}.inst")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(inst))
    out_csv = os.path.join(args.out_dir, "results.csv")
    code = cli_main(["--threads", str(args.threads),
                     "bench", inst_dir,
                     "--algorithms", args.algorithms,
                     "--out", out_csv])
    if code == 0:
        print(f"wrote {args.count} instances to {inst_dir}")
        print(f"wrote results to {out_csv}")
    return code


if __name__ == "__main__":
    sys.exit(main())
