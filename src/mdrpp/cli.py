"""Command-line front end: generate, solve, check, export-milp, bench, gap.

Exit-code policy: usage errors exit 2; an Unsolved outcome is data, not an
error, and exits 0; check failures, a solved plan that fails its check, and
decode/IO failures exit 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .baselines import augment_merge, construct_strike, path_scanning
from .exact import OracleBudgetError, OracleSizeError, solve_exact
from .instance import (
    GenSpec,
    InstanceError,
    add_dummy_nodes,
    generate_instance,
    parse_carp_benchmark,
    parse_instance,
    random_connected_graph,
    serialize_instance,
)
from .milp import ModelSizeError, build_model, write_lp, write_mps
from .multitrip import solve_multitrip
from .solution import (
    check_feasibility,
    gap,
    parse_solution,
    write_solution,
    write_unsolved,
)

ALGORITHMS = ("mt", "ps", "am", "cs", "exact")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a positive, finite number of seconds")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _run_algorithm(inst, alg: str, time_budget: float):
    """Returns (Solution | None, reason | None, optimal_flag | None)."""
    if alg == "exact":
        try:
            out = solve_exact(inst, time_budget=time_budget)
        except OracleBudgetError:
            return None, "time budget ran out before any feasible solution", None
        if out is None:
            return None, "no feasible solution within limits", None
        return out[0], None, out[1]
    # built at each call, so a solver name rebound on this module (by a tracer) is used
    solver = {"mt": solve_multitrip, "ps": path_scanning, "am": augment_merge,
              "cs": construct_strike}.get(alg)
    if solver is None:
        raise ValueError(f"unknown algorithm {alg!r}")
    out = solver(inst)
    return (None, out, None) if isinstance(out, str) else (out, None, None)


def cmd_generate(args) -> int:
    if args.carp:
        base, _ = parse_carp_benchmark(_read(args.carp))
    else:
        if args.nodes is None or args.edges is None:
            print("generate: --nodes and --edges are required without --carp",
                  file=sys.stderr)
            return 2
        base = random_connected_graph(
            args.nodes, args.edges, args.seed,
            min_weight=args.min_weight, max_weight=args.max_weight,
            integer_weights=not args.float_weights)
    spec = GenSpec(
        node_count=base.node_count,
        edge_count=len(base.arcs) // 2,
        seed=args.seed,
        set_kind=args.set,
        capacity_minutes=args.capacity_minutes,
        wind_ratio=args.wind_ratio,
    )
    inst = generate_instance(base, spec)
    text = serialize_instance(inst)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    t0 = time.perf_counter()
    sol, reason, optimal = _run_algorithm(inst, args.algorithm, args.time_budget)
    elapsed = time.perf_counter() - t0
    name = inst.name or os.path.splitext(os.path.basename(args.instance))[0]
    if sol is None or not sol.complete:
        reason = reason or "incomplete coverage"
        if args.out:
            _write(args.out, write_unsolved(inst, reason))
        print(f"{name} {args.algorithm} - {elapsed:.1f}")
        return 0
    findings = check_feasibility(inst, sol)
    if findings:
        for finding in findings:
            print(f"solve: {args.algorithm} plan fails the check: {finding}", file=sys.stderr)
        return 1
    if args.out:
        _write(args.out, write_solution(inst, sol))
    tail = " optimal" if optimal else (" bound" if optimal is False else "")
    print(f"{name} {args.algorithm} {sol.makespan} {elapsed:.1f}{tail}")
    return 0


def cmd_check(args) -> int:
    inst = parse_instance(_read(args.instance))
    parsed = parse_solution(_read(args.solution))
    if isinstance(parsed, str):
        print(f"unsolved: {parsed}")
        return 0
    findings = check_feasibility(inst, parsed)
    for finding in findings:
        print(finding)
    if not findings:
        print("ok")
    return 0 if not findings else 1


def cmd_export_milp(args) -> int:
    if args.trips < 1:
        print("export-milp: --trips must be positive", file=sys.stderr)
        return 2
    inst = parse_instance(_read(args.instance))
    prepped, _ = add_dummy_nodes(inst)
    try:
        model = build_model(prepped, args.trips, subtour_mode=args.subtour,
                            subtour_cap=args.subtour_cap)
    except ModelSizeError as exc:
        print(f"export-milp: {exc}", file=sys.stderr)
        return 1
    text = write_lp(model) if args.format == "lp" else write_mps(model)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"columns {len(model.columns)} rows {len(model.rows)}", file=sys.stderr)
    return 0


def _bench_one(task):
    path, algorithms, time_budget = task
    inst = parse_instance(_read(path))
    name = inst.name or os.path.splitext(os.path.basename(path))[0]
    results = {}
    for alg in algorithms:
        t0 = time.perf_counter()
        try:
            sol, _, optimal = _run_algorithm(inst, alg, time_budget)
        except (OracleSizeError, RuntimeError):
            sol, optimal = None, None
        elapsed = time.perf_counter() - t0
        if sol is not None and sol.complete:
            results[alg] = (elapsed, sol.makespan, bool(optimal))
        else:
            results[alg] = (elapsed, None, False)
    return name, results


def cmd_bench(args) -> int:
    paths = sorted(
        os.path.join(args.instances, f)
        for f in os.listdir(args.instances)
        if f.endswith(".inst") or f.endswith(".txt"))
    if not paths:
        print("bench: no instance files found", file=sys.stderr)
        return 2
    algorithms = [a.strip() for a in args.algorithms.split(",")]
    for alg in algorithms:
        if alg not in ALGORITHMS:
            print(f"bench: unknown algorithm {alg!r}", file=sys.stderr)
            return 2
    tasks = [(p, algorithms, args.time_budget) for p in paths]
    # a fork pool starts all its workers on the first submit
    workers = min(args.threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(t) for t in tasks]

    with_gap = "exact" in algorithms and "mt" in algorithms
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["instance", "alg", "ET", "M"] + (["gap"] if with_gap else [])
    writer.writerow(header)
    for name, results in rows:
        exact_opt = None
        if with_gap:
            et, m, optimal = results["exact"]
            if m is not None and optimal:
                exact_opt = m
        for alg in algorithms:
            et, m, _ = results[alg]
            row = [name, alg, f"{et:.1f}", "-" if m is None else f"{m}"]
            if with_gap:
                if alg == "mt" and m is not None and exact_opt:
                    row.append(f"{gap(m, exact_opt):.1f}")
                else:
                    row.append("-")
            writer.writerow(row)
    text = buf.getvalue()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gap(args) -> int:
    try:
        value = gap(args.heuristic, args.optimal)
    except ValueError as exc:
        print(f"gap: {exc}", file=sys.stderr)
        return 2
    print(f"{value:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdrpp",
        description="Multi-depot rural postman solver toolkit for rechargeable, "
                    "reusable vehicles.")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--threads", type=_positive_int, default=1, help="bench worker count")
    parser.add_argument("--time-budget", type=_positive_seconds, default=60.0,
                        help="per-solve budget in seconds (exact solver)")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a seeded instance")
    g.add_argument("--nodes", type=int)
    g.add_argument("--edges", type=int)
    g.add_argument("--carp", help="derive the base graph from a CARP benchmark file")
    g.add_argument("--set", choices=("A", "B", "C"), default="A")
    g.add_argument("--capacity-minutes", type=float, default=31.0)
    g.add_argument("--wind-ratio", type=float, default=0.3)
    g.add_argument("--min-weight", type=float, default=1.0)
    g.add_argument("--max-weight", type=float, default=10.0)
    g.add_argument("--float-weights", action="store_true")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("instance")
    s.add_argument("algorithm", choices=ALGORITHMS)
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("check", help="validate a solution against its instance")
    c.add_argument("instance")
    c.add_argument("solution")
    c.set_defaults(func=cmd_check)

    e = sub.add_parser("export-milp", help="write the model as LP or MPS text")
    e.add_argument("instance")
    e.add_argument("--trips", type=int, required=True)
    e.add_argument("--format", choices=("lp", "mps"), default="lp")
    e.add_argument("--subtour", choices=("full-enumeration", "none"),
                   default="full-enumeration")
    e.add_argument("--subtour-cap", type=int, default=16)
    e.add_argument("--out")
    e.set_defaults(func=cmd_export_milp)

    b = sub.add_parser("bench", help="run algorithms over a directory of instances")
    b.add_argument("instances")
    b.add_argument("--algorithms", default="mt,ps,am,cs")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench)

    p = sub.add_parser("gap", help="percentage excess of a makespan over the optimum")
    p.add_argument("heuristic", type=float)
    p.add_argument("optimal", type=float)
    p.set_defaults(func=cmd_gap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
