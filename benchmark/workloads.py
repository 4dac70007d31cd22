"""Workload definitions: seeded instance recipes and the timed operations.

Every operation starts from an instance file and ends at a checked result,
calling the library in the order of `mdrpp solve` followed by `mdrpp check`:
read the text, parse it, run the solver, write and re-parse the solution,
audit it with `check_feasibility` and compare the stated makespan against
`evaluate_solution`.  Each operation times its own library calls; the
bookkeeping that only the benchmark needs (checksums, row-family counts)
runs after the clock stops.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field

from mdrpp import (
    GenSpec,
    add_dummy_nodes,
    build_model,
    check_assignment,
    check_feasibility,
    decode_solution,
    encode_solution,
    enumerate_exhaustive,
    evaluate_solution,
    gap,
    generate_instance,
    parse_instance,
    parse_solution,
    random_connected_graph,
    serialize_instance,
    solve_exact,
    write_lp,
    write_mps,
    write_solution,
    write_unsolved,
)
from mdrpp import cli
from mdrpp.milp import EncodeError, count_columns

TOL = 1e-6
EXACT_BUDGET_S = 60.0  # the CLI's default --time-budget
# the documented encoder limitation; any other EncodeError is a defect
KNOWN_REJECTION = "traversed twice; binary arc variables cannot express this walk"
ROW_FAMILIES = ("start", "order", "end", "chain", "endexists", "makespan", "capacity",
                "depotbal", "flow", "cover", "gate", "subtour")


@dataclass
class Result:
    """What one execution of an operation produced.

    `failures` lists check findings; a non-empty list fails the operation.
    `known` marks a failure of the documented kind (the MILP encoder
    rejecting a walk that binary arc variables cannot express), which is
    counted as failed but does not make the run incorrect.
    """

    outcome: str
    elapsed: float
    status: str = "solved"  # solved, unsolved, budget or error
    failures: list[str] = field(default_factory=list)
    known: bool = False
    oracle_s: float = 0.0  # part of `elapsed` spent in the oracle step
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    path: str
    nodes: int
    repeat: int = 1


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _scale_instance(nodes: int, edges: int, seed: int, set_kind: str):
    base = random_connected_graph(nodes, edges, seed, integer_weights=False,
                                  min_weight=0.5, max_weight=3.0)
    return generate_instance(base, GenSpec(nodes, edges, seed, set_kind=set_kind))


def _tiny_instance(seed: int):
    """Same recipe as the test suite's tiny corpus: at most 8 nodes, 12 edges,
    4 required edges and 2 vehicles; every third instance keeps the tight
    default capacity and every fifth is a wind set."""
    n = 5 + seed % 4
    m = min(n + 1 + seed % 4, n * (n - 1) // 2, 12)
    base = random_connected_graph(n, m, seed, integer_weights=False,
                                  min_weight=1.0, max_weight=4.0)
    if seed % 5 == 4:
        spec = GenSpec(n, m, seed, set_kind="C", capacity_minutes=14.0)
    elif seed % 3 == 0:
        spec = GenSpec(n, m, seed, set_kind="A")
    else:
        spec = GenSpec(n, m, seed, set_kind="A", max_edge_weight=6.0)
    return generate_instance(base, spec)


# ---------------------------------------------------------------- solve + check

# The solver step is the CLI's own dispatch, looked up at call time so that
# a traced run sees the wrapped functions.

def _solve(inst, alg: str):
    """(Solution | None, reason | None, proven flag | None), as `mdrpp solve`
    gets them."""
    return cli._run_algorithm(inst, alg, EXACT_BUDGET_S)


def _uncovered_findings(sol) -> set[str]:
    return {f"required edge ({e.frm},{e.to}) not covered" for e in sol.uncovered}


def _check_partial(inst, sol) -> list[str]:
    """A partial result must be valid apart from exactly the edges it reports
    uncovered, and its makespan must be the fleet's worst route time."""
    out = []
    findings = check_feasibility(inst, sol)
    if set(findings) != _uncovered_findings(sol) or len(findings) != len(sol.uncovered):
        out.append(f"partial solution audit: {findings[:3]}")
    if abs(sol.makespan - evaluate_solution(inst, sol)) > TOL:
        out.append("partial makespan differs from evaluate_solution")
    return out


def _check_document(inst, doc: str) -> tuple[object, list[str]]:
    """Re-parse a solution document and audit it like `mdrpp check`."""
    parsed = parse_solution(doc)
    if isinstance(parsed, str):
        return parsed, []
    findings = list(check_feasibility(inst, parsed))
    value = evaluate_solution(inst, parsed)
    if abs(parsed.makespan - value) > TOL:
        findings.append(f"stated makespan {parsed.makespan} differs from {value}")
    return parsed, findings


def solve_op(alg: str):
    """Operation running one constructive solver through solve and check."""

    def run(op: Op, ctx: dict) -> Result:
        t0 = time.perf_counter()
        inst = parse_instance(_read(op.path))
        sol, reason, _ = _solve(inst, alg)
        if sol is None or not sol.complete:
            doc = write_unsolved(inst, reason or "incomplete coverage")
        else:
            doc = write_solution(inst, sol)
        parsed, failures = _check_document(inst, doc)
        if sol is not None and not sol.complete:
            failures += _check_partial(inst, sol)
        elapsed = time.perf_counter() - t0
        if isinstance(parsed, str):
            if sol is None:
                return Result(f"unsolved {parsed}", elapsed, "unsolved", failures)
            return Result(f"unsolved partial {len(sol.uncovered)} {sol.makespan!r}",
                          elapsed, "unsolved", failures)
        res = Result(f"solved {parsed.makespan!r}", elapsed, "solved", failures)
        optimum = ctx.get("optimum", {}).get(inst.name)
        if alg == "mt" and optimum:
            res.counts["gap_pct"] = gap(parsed.makespan, optimum)
        return res

    return run


def exact_op(op: Op, ctx: dict) -> Result:
    """solve_exact through solve and check, cross-checked by brute force."""
    t0 = time.perf_counter()
    inst = parse_instance(_read(op.path))
    sol, reason, proven = _solve(inst, "exact")
    if sol is None:
        doc = write_unsolved(inst, reason)
    else:
        doc = write_solution(inst, sol)
    parsed, failures = _check_document(inst, doc)
    brute = enumerate_exhaustive(inst)
    elapsed = time.perf_counter() - t0
    if isinstance(parsed, str):
        if brute is not None:
            failures.append(f"exact found nothing, brute force found {brute!r}")
        return Result(f"unsolved {parsed}", elapsed, "unsolved", failures,
                      counts={"infeasible": 1})
    if brute is None or abs(parsed.makespan - brute) > TOL:
        failures.append(f"exact {parsed.makespan!r} differs from brute force {brute!r}")
    ctx.setdefault("optimum", {})[inst.name] = parsed.makespan
    return Result(f"solved {parsed.makespan!r} {'proven' if proven else 'bound'}",
                  elapsed, "solved" if proven else "budget", failures,
                  counts={"proven": int(proven)})


def export_op(op: Op, ctx: dict) -> Result:
    """Dummy-node preprocessing, then the model and both text forms at F=1..3."""
    t0 = time.perf_counter()
    prepped, _ = add_dummy_nodes(parse_instance(_read(op.path)))
    built = []
    for trips in (1, 2, 3):
        model = build_model(prepped, trips)
        built.append((model, write_lp(model), write_mps(model)))
    elapsed = time.perf_counter() - t0
    failures = []
    counts = {"lp_bytes": 0, "mps_bytes": 0, "columns": 0, "rows": 0}
    counts.update({f"rows.{fam}": 0 for fam in ROW_FAMILIES})
    parts = []
    for trips, (model, lp, mps) in enumerate(built, start=1):
        expected = count_columns(len(model.arcs), len(prepped.depots),
                                 prepped.vehicles, trips)
        if len(model.columns) != expected:
            failures.append(f"F={trips}: {len(model.columns)} columns, formula {expected}")
        counts["lp_bytes"] += len(lp)
        counts["mps_bytes"] += len(mps)
        counts["columns"] += len(model.columns)
        counts["rows"] += len(model.rows)
        for row in model.rows:
            counts[f"rows.{row.name.split('_', 1)[0]}"] += 1
        crc = zlib.crc32(mps.encode(), zlib.crc32(lp.encode()))
        parts.append(f"F{trips} {len(model.columns)}x{len(model.rows)} {crc:08x}")
    return Result("; ".join(parts), elapsed, "solved", failures, counts=counts)


def roundtrip_op(op: Op, ctx: dict) -> Result:
    """Exact solution of the preprocessed instance -> encode -> build ->
    check_assignment -> decode; the decoded makespan must equal beta."""
    t0 = time.perf_counter()
    prepped, _ = add_dummy_nodes(parse_instance(_read(op.path)))
    t1 = time.perf_counter()
    out = solve_exact(prepped)
    oracle = time.perf_counter() - t1
    if out is None:
        return Result("unsolved no exact solution", time.perf_counter() - t0,
                      "unsolved", oracle_s=oracle)
    sol = out[0]
    try:
        trips, assignment = encode_solution(prepped, sol)
    except EncodeError as exc:
        return Result(f"rejected {exc}", time.perf_counter() - t0, "error",
                      [f"encode_solution rejected the optimal walk: {exc}"],
                      known=KNOWN_REJECTION in str(exc), oracle_s=oracle, counts={"encode_rejects": 1})
    model = build_model(prepped, trips)
    violated = check_assignment(model, assignment)
    decoded = decode_solution(prepped, trips, assignment)
    elapsed = time.perf_counter() - t0
    failures = []
    if violated:
        failures.append(f"assignment violates {len(violated)} rows, e.g. {violated[:3]}")
    beta = assignment["beta"]
    if abs(decoded.makespan - beta) > TOL:
        failures.append(f"decoded makespan {decoded.makespan!r} differs from beta {beta!r}")
    return Result(f"ok {beta!r} F{trips}", elapsed, "solved", failures, oracle_s=oracle)


OP_KINDS = {
    "mt": solve_op("mt"),
    "ps": solve_op("ps"),
    "am": solve_op("am"),
    "cs": solve_op("cs"),
    "exact": exact_op,
    "milp-export": export_op,
    "milp-roundtrip": roundtrip_op,
}


# ---------------------------------------------------------------- workloads

TINY_COUNT = 60  # instances in the tiny-oracle set; a multiple of 3, 4 and 5
TINY_TRIES = 1000  # candidate recipe seeds per position


def _free_nodes(seed: int) -> int:
    """Non-depot nodes of the tiny recipe's instance after add_dummy_nodes."""
    prepped, _ = add_dummy_nodes(_tiny_instance(seed))
    return prepped.graph.node_count - len(prepped.depots)


def tiny_seeds(seed: int) -> list[int]:
    """Recipe seeds of the tiny-oracle set, stratified on the MILP size.

    A model's subtour rows grow as 2 to the power of its non-depot nodes,
    which depend on where the recipe puts the depots, so a few instances set
    the export time.  With consecutive recipe seeds, the pass time of ten
    benchmark seeds spread by 0.2.  Position `pos` therefore takes the first
    recipe seed pos + 60 * (TINY_TRIES * seed + j), j = 0, 1, ..., whose
    model has as many non-depot nodes as the test suite's tiny_corpus
    instance at `pos` (the first candidate if none does).  Steps of 60 keep
    the recipe's node count, edge count and set kind; at seed 0 the set is
    tiny_corpus(60) itself.
    """
    out = []
    for pos in range(TINY_COUNT):
        target = _free_nodes(pos)
        candidates = [pos + TINY_COUNT * (TINY_TRIES * seed + j) for j in range(TINY_TRIES)]
        out.append(next((t for t in candidates if _free_nodes(t) == target), candidates[0]))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]  # operations run on every instance, in order
    repeat: dict = field(default_factory=dict)  # executions per pass by kind

    def plan(self, seed: int) -> list[tuple]:
        """(recipe, arguments) of each instance."""
        return PLANS[self.name](seed)

    def ops(self, paths: list[tuple[str, str, int]]) -> list[Op]:
        return [Op(f"{kind}:{name}", kind, path, nodes, self.repeat.get(kind, 1))
                for name, path, nodes in paths for kind in self.kinds]


# Instance seeds are offsets from the benchmark seed.  Both scaled workloads
# use 4 seeds per size or set: with fewer, instance-to-instance variation
# (set A's above all) dominates the spread between benchmark seeds; with more,
# a pass grows so long on a loaded host that a run holds only one or two
# passes and its per-operation medians lose their robustness.
PLANS = {
    "mt-ladder": lambda seed: [
        (_scale_instance, (n, m, seed + s, "B"))
        for n, m in ((461, 879), (922, 1758)) for s in (1, 2, 3, 4)],
    "baselines-mix": lambda seed: [
        (_scale_instance, (230, 440, seed + s, kind))
        for kind in "ABC" for s in (1, 2, 3, 4)],
    "tiny-oracle": lambda seed: [(_tiny_instance, (t,)) for t in tiny_seeds(seed)],
}

WORKLOADS = {w.name: w for w in (
    Workload("mt-ladder", ("mt",)),
    Workload("baselines-mix", ("ps", "am", "cs", "mt")),
    # mt on a tiny instance takes a fraction of a millisecond, so it runs
    # several times per pass to give its median enough samples
    Workload("tiny-oracle", ("exact", "mt", "milp-export", "milp-roundtrip"), {"mt": 10}),
)}


def build(plan: list[tuple]) -> list[tuple[str, str, int]]:
    """Generate and serialize the planned instances in memory; returns
    (name, text, node count) per instance."""
    out = []
    for recipe, args in plan:
        inst = recipe(*args)
        out.append((inst.name, serialize_instance(inst), inst.graph.node_count))
    return out


def write_instances(built: list[tuple[str, str, int]], directory: str
                    ) -> list[tuple[str, str, int]]:
    """Write built instances to files; returns (name, path, node count)."""
    out = []
    for name, text, nodes in built:
        path = os.path.join(directory, f"{name}.inst")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append((name, path, nodes))
    return out
