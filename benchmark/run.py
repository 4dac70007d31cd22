#!/usr/bin/env python3
"""Benchmark of the mdrpp solver toolkit.

Runs one workload single-process and closed-loop (one caller, the next
operation starts when the previous one has been checked) for about
--seconds seconds, then prints one JSON result as the last line of standard
output.  With --trace 0 the result holds the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 the second half of the run is traced and
the result holds the per-layer metrics.  The line before it is a JSON
detail record (every metric, the failure base, the outcome digest).

Run from the repository root, for example:

    python3 benchmark/run.py --workload mt-ladder --seed 0 --seconds 40 --trace 0

The library is imported from `src/` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_MIN_S = 1.0  # set-up repeats until it has run this long in total ...
SETUP_MIN_REPEATS = 3  # ... and at least this often
# (operation kind, time part, end-to-end metric name)
KIND_METRICS = (
    ("mt", "total", "mt_s"),
    ("ps", "total", "ps_s"),
    ("am", "total", "am_s"),
    ("cs", "total", "cs_s"),
    ("exact", "total", "exact_s"),
    ("milp-export", "total", "milp_export_s"),
    ("milp-roundtrip", "solver", "milp_roundtrip_s"),
    ("milp-roundtrip", "oracle", "roundtrip_oracle_s"),
)
# speed-probe kernel that matches the work of each operation kind and layer
KERNEL = {"exact": "perm", "milp-roundtrip": "perm", "milp-export": "text",
          "milp": "text"}  # everything else: "graph"


def load_library():
    """Import mdrpp from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import mdrpp
    except ImportError as exc:
        print(f"benchmark: cannot import mdrpp from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    origin = os.path.abspath(mdrpp.__file__)
    if not origin.startswith(SRC + os.sep):
        print(f"benchmark: mdrpp was imported from {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


class Log:
    """Per-operation samples, outcomes and check results of one run."""

    def __init__(self, ops, reference: dict | None, probe):
        self.ops = ops
        self.reference = reference
        self.probe = probe
        self.samples = defaultdict(list)  # op id -> [(elapsed, oracle_s, probe count)]
        self.factors: dict[str, float] = {}  # speed factor per probe kernel over the run
        self.first: dict = {}  # op id -> Result of its first execution
        self.attempted = 0
        self.failed = 0
        self.unknown_failures: list[str] = []

    def record(self, op, res, probes: int) -> None:
        self.attempted += 1
        self.samples[op.id].append((res.elapsed, res.oracle_s, probes))
        problems = list(res.failures)
        known = res.known
        first = self.first.setdefault(op.id, res).outcome
        if res.outcome != first:
            problems.append(f"outcome changed between executions: {first!r} -> {res.outcome!r}")
            known = False
        if self.reference is not None:
            expected = self.reference.get(op.id)
            if res.outcome != expected:
                problems.append(f"outcome {res.outcome!r} differs from reference {expected!r}")
                known = False
        if problems:
            self.failed += 1
            if not known:
                self.unknown_failures.append(f"{op.id}: {problems[0]}")

    def median(self, op, part: str = "total", norm: bool = False) -> float:
        """Median over executions; with `norm`, at the reference speed."""
        kernel = KERNEL.get(op.kind, "graph")
        return statistics.median(
            (e - o if part == "solver" else o if part == "oracle" else e)
            * (self.probe.factor(kernel, k) if norm else 1.0)
            for e, o, k in self.samples[op.id])

    def kind_time(self, kind: str, part: str = "total", norm: bool = False) -> float:
        """Per-pass time of one operation kind: the sum of per-operation medians."""
        return sum(self.median(op, part, norm) for op in self.ops if op.kind == kind)

    def counts(self, key: str, kind: str | None = None) -> float:
        """Per-pass total of a count recorded by the operations."""
        return sum(res.counts.get(key, 0) * op.repeat for op in self.ops
                   if (res := self.first.get(op.id)) is not None
                   and (kind is None or op.kind == kind))

    def solves_per_s(self, norm: bool = False) -> float:
        """Checked operations per second over a pass, whose time is the sum
        of the per-operation medians; a kind's change moves it in proportion
        to that kind's share of the pass time."""
        return len(self.ops) / sum(self.median(op, norm=norm) for op in self.ops)

    def digest(self) -> str:
        text = "\n".join(f"{k} {v.outcome}" for k, v in sorted(self.first.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_passes(ops, log: Log, seconds: float, probe, tracer=None) -> int:
    """Closed loop over whole passes until the next pass would overrun; the
    speed probe runs between operations and sets the log's speed factors."""
    import workloads

    first_probe = probe.count()
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        t_pass = time.perf_counter()
        ctx: dict = {}
        for op in ops:
            fn = workloads.OP_KINDS[op.kind]
            for _ in range(op.repeat):
                probe.tick()
                probes = probe.count()
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        res = fn(op, ctx)
                    else:
                        res = tracer.run(f"op.{op.kind}", op.id, fn, op, ctx)
                except Exception as exc:  # an operation that raises is data: it failed
                    res = workloads.Result(
                        f"error {type(exc).__name__}: {exc}", time.perf_counter() - t0,
                        "error", [traceback.format_exc(limit=3)])
                log.record(op, res, probes)
        durations.append(time.perf_counter() - t_pass)
        if time.perf_counter() + statistics.median(durations) > deadline:
            log.factors = probe.factors(min(first_probe, probe.count() - 1))
            return len(durations)


def end_to_end(wl, log: Log, setup: list[tuple[float, int]]) -> dict:
    """Every end-to-end metric of the run; times are at the reference speed,
    and the raw wall-clock figures are kept under "wall"."""
    kinds = set(wl.kinds)
    gaps = [res.counts["gap_pct"] for res in log.first.values() if "gap_pct" in res.counts]
    out = {
        "setup_s": statistics.median(t * log.probe.mixed_factor(k) for t, k in setup),
        "solves_per_s": log.solves_per_s(norm=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": log.failed / log.attempted,
        "mt_gap_pct": statistics.fmean(gaps) if gaps else None,
    }
    wall = {"setup_s": statistics.median(t for t, _ in setup),
            "solves_per_s": log.solves_per_s()}
    for kind, part, name in KIND_METRICS:
        if kind in kinds:
            out[name] = log.kind_time(kind, part, norm=True)
            wall[name] = log.kind_time(kind, part)
        else:
            out[name] = None
    out["wall"] = wall
    return out


def growth_ratio(log: Log) -> float:
    """mt time at the larger size over mt time at the smaller one, when the
    workload's mt operations come in exactly two instance sizes (a ladder
    step); 0 otherwise."""
    by_size = defaultdict(float)
    for op in log.ops:
        if op.kind == "mt":
            by_size[op.nodes] += log.median(op, norm=True)
    if len(by_size) != 2:
        return 0.0
    small, large = sorted(by_size)
    return by_size[large] / by_size[small]


def per_layer(summary: dict, passes: int, log: Log, untraced: Log) -> dict:
    """Per-layer metrics of the traced passes: calls and self time per pass
    (at the reference speed of the traced phase), plus counts the operations
    reported."""
    import tracing
    import workloads

    spans, setup_spans = summary["pass"], summary["setup"]

    def names(metric):
        return tracing.GROUPS.get(metric, (metric,))

    def calls(metric):
        return sum(spans.get(n, (0, 0.0))[0] for n in names(metric)) / passes

    def factor(metric):
        return log.factors[KERNEL.get(metric.split(".", 1)[0], "graph")]

    def self_s(metric, table=spans, per=passes):
        return sum(table.get(n, (0, 0.0))[1] for n in names(metric)) * factor(metric) / per

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(v[1] for k, v in spans.items()
                                     if k.startswith(layer + ".")) * factor(layer) / passes
    for fn in ("graph.one_to_all", "graph.shortest_path", "graph.all_to_set", "graph.build",
               "solution.covered_by_walk", "multitrip.closest_feasible_edge",
               "multitrip.closest_feasible_depot"):
        out[f"{fn}.calls"] = calls(fn)
        out[f"{fn}.self_s"] = self_s(fn)
    for fn in ("instance.parse", "instance.add_dummy_nodes", "solution.check_feasibility",
               "solution.io", "multitrip.solve", "baselines.path_scanning",
               "baselines.augment_merge", "baselines.construct_strike",
               "exact.solve_exact", "exact.enumerate_exhaustive", "milp.build_model",
               "milp.write_lp", "milp.write_mps", "milp.encode_solution",
               "milp.check_assignment", "milp.decode_solution"):
        out[f"{fn}.self_s"] = self_s(fn)
    out["instance.generate.self_s"] = self_s("instance.generate", setup_spans, 1)
    for root in ("multitrip", "baselines.ps", "baselines.am", "baselines.cs"):
        out[f"{root}.one_to_all.calls"] = calls(f"{root}.one_to_all")
    edge_calls = out["multitrip.closest_feasible_edge.calls"]
    out["multitrip.dijkstra_per_iteration"] = (
        out["multitrip.one_to_all.calls"] / edge_calls if edge_calls else 0.0)
    out["multitrip.growth_ratio"] = growth_ratio(untraced)

    unsolved = [op for op in log.ops if op.kind in ("ps", "am", "cs")
                and log.first[op.id].status == "unsolved"]
    out["baselines.unsolved"] = float(len(unsolved))
    solved_exact = [op for op in log.ops if op.kind == "exact"
                    and log.first[op.id].status in ("solved", "budget")]
    proven = log.counts("proven", "exact")
    out["exact.proven_share"] = proven / len(solved_exact) if solved_exact else 0.0
    out["exact.infeasible"] = log.counts("infeasible", "exact")
    for key in ("lp_bytes", "mps_bytes", "columns", "rows", "encode_rejects"):
        out[f"milp.{key}"] = log.counts(key)
    for fam in workloads.ROW_FAMILIES:
        out[f"milp.rows.{fam}"] = log.counts(f"rows.{fam}")
    out["trace.overhead"] = untraced.solves_per_s(norm=True) / log.solves_per_s(norm=True)
    out["trace.spans"] = sum(v[0] for v in spans.values()) / passes
    return out


def top_self_time(summary: dict, passes: int, count: int = 8) -> list:
    spans = summary["pass"]
    total = sum(v[1] for v in spans.values())
    ranked = sorted(spans.items(), key=lambda kv: -kv[1][1])[:count]
    return [[name, round(v[1] / passes, 6), round(v[1] / total, 4)] for name, v in ranked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    load_library()
    import calibration
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    reference = None
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if args.seed == recorded["seed"]:
        reference = recorded["outcomes"][wl.name]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        probe = calibration.Probe()
        plan = wl.plan(args.seed)
        setup = []
        deadline = time.perf_counter() + SETUP_MIN_S
        while len(setup) < SETUP_MIN_REPEATS or time.perf_counter() < deadline:
            probe.tick()
            probes = probe.count()
            t0 = time.perf_counter()
            built = workloads.build(plan)
            setup.append((time.perf_counter() - t0, probes))
        ops = wl.ops(workloads.write_instances(built, workdir))
        log = Log(ops, reference, probe)
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = run_passes(ops, log, seconds, probe)
        detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "passes": passes, "ops_per_pass": len(ops),
                  "instances_digest": instances_digest(built),
                  "setup_repeats": len(setup),
                  "outcome_digest": log.digest(),
                  "end_to_end": end_to_end(wl, log, setup),
                  "growth_ratio": growth_ratio(log),
                  "failed": log.failed, "attempted": log.attempted,
                  "unknown_failures": log.unknown_failures[:10]}
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(callers=[workloads])
            try:
                tracer.run("setup", "setup", workloads.build, plan)
                traced = Log(ops, reference, probe)
                traced_passes = run_passes(ops, traced, args.seconds - seconds, probe, tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.csv.gz"))
            summary = tracer.summary(lambda op: op == "setup")
            values = per_layer(summary, traced_passes, traced, log)
            detail.update(traced_passes=traced_passes,
                          top_self_time=top_self_time(summary, traced_passes))
            attempted = log.attempted + traced.attempted
            failed = log.failed + traced.failed
            unknown = log.unknown_failures + traced.unknown_failures
            wanted = spec["per_layer"]
        else:
            values = detail["end_to_end"]
            attempted, failed, unknown = log.attempted, log.failed, log.unknown_failures
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        detail["per_layer"] = values
    with open(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not unknown, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def instances_digest(built) -> str:
    h = hashlib.sha256()
    for _, text, _ in built:
        h.update(text.encode())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
