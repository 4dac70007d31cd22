"""MILP materialization, LP/MPS writers, iterative trip-count driver, decoding.

The model minimizes the makespan beta subject to trip tracking, chaining,
capacity, flow, coverage, trip-usage gating and fully enumerated subtour
rows.  Solving is delegated to a pluggable callback (no solver bindings);
assignments travel as {variable name: value} dictionaries.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .instance import Instance, add_dummy_nodes
from .solution import (
    Route,
    Solution,
    Trip,
    route_time,
    trip_from_walk,
    worst_route_time,
)

INT_TOL = 1e-6


class ModelSizeError(ValueError):
    pass


class EncodeError(ValueError):
    pass


class DecodeError(ValueError):
    pass


class SolverResourceLimit(RuntimeError):
    """Raised by the driver when the callback reports a resource limit."""


class TripCapExceeded(RuntimeError):
    """Raised by the driver when no trip count up to the cap is feasible."""


class Column(NamedTuple):
    name: str
    lower: float
    upper: float
    integer: bool
    objective: float


class Row(NamedTuple):
    name: str
    sense: str  # 'E', 'L' or 'G'
    rhs: float
    coeffs: tuple[tuple[int, float], ...]  # (column index, coefficient)


@dataclass
class MilpModel:
    name: str
    columns: list[Column]
    rows: list[Row]
    num_trips: int
    arcs: list[tuple[int, int, float]]  # x columns of each (k, f), in this order


def _arc_table(inst: Instance):
    """The model's arcs in column order, their column-name suffixes (`i_j`,
    then `i_j_p1`, ... for parallel copies) and the ascending arc indices of
    each (tail, head) pair."""
    arcs = sorted((a.frm, a.to, a.weight) for a in inst.graph.arcs)
    names: list[str] = []
    copies: dict[tuple[int, int], list[int]] = {}
    for a, (i, j, _) in enumerate(arcs):
        ids = copies.setdefault((i, j), [])
        names.append(f"{i}_{j}_p{len(ids)}" if ids else f"{i}_{j}")
        ids.append(a)
    return arcs, names, copies


def count_columns(n_arcs: int, n_depots: int, vehicles: int, num_trips: int) -> int:
    return vehicles * num_trips * (n_arcs + n_depots + 1) + 1


def build_model(inst: Instance, num_trips: int, subtour_mode: str = "full-enumeration",
                subtour_cap: int = 16) -> MilpModel:
    """Materialize the formulation for a fixed trip count.

    The instance is expected to be dummy-node preprocessed (no required edge
    touching a depot) so subtour rows can quantify over non-depot node sets.
    Subtour rows are fully enumerated, guarded by `subtour_cap` on the number
    of non-depot nodes; pass subtour_mode='none' to skip them.
    """
    if num_trips < 1:
        raise ValueError("trip count must be positive")
    if subtour_mode not in ("full-enumeration", "none"):
        raise ValueError(f"unknown subtour mode {subtour_mode!r}")
    arcs, names, copies = _arc_table(inst)
    depots = sorted(inst.depots)
    depot_set = set(depots)
    K, F = inst.vehicles, num_trips
    n_arcs = len(arcs)
    trips = [(k, f) for k in range(K) for f in range(F)]
    columns = [Column(f"x_{k}_{f}_{n}", 0.0, 1.0, True, 0.0) for k, f in trips for n in names]
    columns += [Column(f"y_{k}_{f}_{d}", 0.0, 1.0, True, 0.0) for k, f in trips for d in depots]
    columns += [Column(f"z_{k}_{f}", 0.0, 1.0, True, 0.0) for k, f in trips]
    columns.append(Column("beta", 0.0, float("inf"), False, 1.0))

    def xcol(k: int, f: int, a: int) -> int:
        return (k * F + f) * n_arcs + a

    y_base = K * F * n_arcs

    def ycol(k: int, f: int, d_idx: int) -> int:
        return y_base + (k * F + f) * len(depots) + d_idx

    z_base = y_base + K * F * len(depots)

    def zcol(k: int, f: int) -> int:
        return z_base + k * F + f

    beta_col = z_base + K * F
    depot_pos = {d: i for i, d in enumerate(depots)}
    arcs_out: dict[int, list[int]] = {}
    arcs_in: dict[int, list[int]] = {}
    for a, (i, j, _) in enumerate(arcs):
        arcs_out.setdefault(i, []).append(a)
        arcs_in.setdefault(j, []).append(a)
    weighted = [(a, w) for a, (_, _, w) in enumerate(arcs) if w != 0.0]
    # +1 leaving a depot, -1 entering one; arcs between two depots cancel
    balance = [(a, 1.0 if i in depot_set else -1.0) for a, (i, j, _) in enumerate(arcs)
               if (i in depot_set) != (j in depot_set)]

    rows: list[Row] = []

    # (1) first-trip start tracking at the base depot
    for k in range(K):
        coeffs = [(xcol(k, 0, a), 1.0) for a in arcs_out.get(inst.start_depot(k), [])]
        coeffs.append((zcol(k, 0), -1.0))
        rows.append(Row(f"start_{k}", "E", 0.0, tuple(coeffs)))
    # (2) trip ordering
    for k in range(K):
        for f in range(F - 1):
            rows.append(Row(f"order_{k}_{f}", "G", 0.0,
                            ((zcol(k, f), 1.0), (zcol(k, f + 1), -1.0))))
    # (3) trip-end tracking per depot
    for k, f in trips:
        for d in depots:
            coeffs = [(xcol(k, f, a), 1.0) for a in arcs_in.get(d, [])]
            coeffs.append((ycol(k, f, depot_pos[d]), -1.0))
            rows.append(Row(f"end_{k}_{f}_{d}", "E", 0.0, tuple(coeffs)))
    # (4) trip chaining
    for k in range(K):
        for f in range(1, F):
            for d in depots:
                coeffs = [(ycol(k, f - 1, depot_pos[d]), 1.0)]
                coeffs += [(xcol(k, f, a), -1.0) for a in arcs_out.get(d, [])]
                rows.append(Row(f"chain_{k}_{f}_{d}", "G", 0.0, tuple(coeffs)))
    # (5) used trips end at exactly one depot
    for k, f in trips:
        coeffs = [(zcol(k, f), 1.0)]
        coeffs += [(ycol(k, f, di), -1.0) for di in range(len(depots))]
        rows.append(Row(f"endexists_{k}_{f}", "E", 0.0, tuple(coeffs)))
    # (6) makespan including recharges
    for k in range(K):
        coeffs = []
        for f in range(F):
            coeffs += [(xcol(k, f, a), w) for a, w in weighted]
            if inst.recharge_time != 0.0:
                coeffs.append((zcol(k, f), inst.recharge_time))
        coeffs.append((beta_col, -1.0))
        rows.append(Row(f"makespan_{k}", "L", inst.recharge_time, tuple(coeffs)))
    # (7) per-trip capacity
    for k, f in trips:
        rows.append(Row(f"capacity_{k}_{f}", "L", inst.capacity,
                        tuple((xcol(k, f, a), w) for a, w in weighted)))
    # (8) depot in/out balance per trip
    for k, f in trips:
        rows.append(Row(f"depotbal_{k}_{f}", "E", 0.0,
                        tuple((xcol(k, f, a), v) for a, v in balance)))
    # (9) flow conservation at non-depot nodes
    for k, f in trips:
        for i in range(inst.graph.node_count):
            if i in depot_set:
                continue
            coeffs = [(xcol(k, f, a), 1.0) for a in arcs_out.get(i, [])]
            coeffs += [(xcol(k, f, a), -1.0) for a in arcs_in.get(i, [])]
            if coeffs:
                rows.append(Row(f"flow_{k}_{f}_{i}", "E", 0.0, tuple(coeffs)))
    # (10) required-edge coverage, by every copy of every orientation
    for r, e in enumerate(inst.required):
        serving = sorted({a for o in e.orientations() for a in copies[o]})
        rows.append(Row(f"cover_{r}", "G", 1.0,
                        tuple((xcol(k, f, a), 1.0) for k, f in trips for a in serving)))
    # (11) trip-usage gating
    for k, f in trips:
        coeffs = [(xcol(k, f, a), 1.0) for a in range(n_arcs)]
        coeffs.append((zcol(k, f), -float(2 * n_arcs + 1)))
        rows.append(Row(f"gate_{k}_{f}", "L", 0.0, tuple(coeffs)))
    # (12) subtour elimination, fully enumerated
    if subtour_mode == "full-enumeration":
        rows.extend(_subtour_rows(inst, arcs, copies, xcol, trips, subtour_cap))

    return MilpModel(name=inst.name or "mdrpprv", columns=columns, rows=rows,
                     num_trips=F, arcs=arcs)


def _subtour_rows(inst: Instance, arcs, copies, xcol, trips, cap: int) -> list[Row]:
    depot_set = set(inst.depots)
    free_nodes = [n for n in range(inst.graph.node_count) if n not in depot_set]
    if len(free_nodes) > cap:
        raise ModelSizeError(
            f"{len(free_nodes)} non-depot nodes exceed the subtour enumeration cap "
            f"of {cap}; raise the cap or use subtour_mode='none'")
    oriented = [o for e in inst.required for o in e.orientations()]
    # A trip's x columns are xcol(k, f, 0) + a, so each trip's (column,
    # coefficient) pairs are made once and shared by all its rows.  A row's
    # crossing arcs take 1 and its anchor arc pq -2; pq lies inside the
    # subset, so it never crosses and goes in at its sorted place.
    offsets = [xcol(k, f, 0) for k, f in trips]
    plus_one = [[(off + a, 1.0) for a in range(len(arcs))] for off in offsets]
    minus_two = [[(off + a, -2.0) for a in range(len(arcs))] for off in offsets]
    suffixes = [f"{k}_{f}" for k, f in trips]
    rows: list[Row] = []
    n_row = 0
    for size in range(2, len(free_nodes) + 1):
        for subset in itertools.combinations(free_nodes, size):
            s = set(subset)
            inside = [(p, q) for (p, q) in oriented if p in s and q in s]
            if not inside:
                continue
            crossing = [a for a, (i, j, _) in enumerate(arcs) if (i in s) != (j in s)]
            crossed = [tuple(map(one.__getitem__, crossing)) for one in plus_one]
            for anchor, (p, q) in enumerate(inside):
                for copy_no, pq_arc in enumerate(copies[(p, q)]):
                    cut = bisect.bisect(crossing, pq_arc)
                    prefix = f"subtour_{n_row}_{anchor}_{copy_no}_"
                    for suffix, pairs, two in zip(suffixes, crossed, minus_two):
                        rows.append(Row(prefix + suffix, "G", 0.0,
                                        pairs[:cut] + (two[pq_arc],) + pairs[cut:]))
            n_row += 1
    return rows


def _num(x: float) -> str:
    if abs(x) < 1e15 and x == int(x):
        return str(int(x))
    if x != x:
        raise ValueError(f"cannot write {x!r} into a model file")
    return repr(x)


class _Memo(dict):
    """fn(x) for each float x, computed once per writer call and keyed by value.

    Calling it passes any other type straight to fn: an int of 1e15 or more
    equals a float that `_num` prints differently.  -0.0 and 0.0 share a key,
    which is harmless: both print as `0` and take `+` in LP.  The writers'
    per-non-zero loops inline `__call__` to save a Python call per non-zero."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value

    def __call__(self, x):
        return self[x] if type(x) is float else self.fn(x)


def write_lp(model: MilpModel) -> str:
    """CPLEX-LP text with deterministic row and column order."""
    num = _Memo(_num)
    term = _Memo(lambda c: f"{'+' if c >= 0 else '-'} {num(abs(c))} ")
    names = [c.name for c in model.columns]
    out = [f"\\ {model.name}", "Minimize"]
    obj_terms = [f"{num(c.objective)} {c.name}" for c in model.columns if c.objective != 0.0]
    out.append(" obj: " + " + ".join(obj_terms))
    out.append("Subject To")
    op = {"E": "=", "L": "<=", "G": ">="}
    for row in model.rows:
        if row.coeffs:
            expr = " ".join([(term[c] if type(c) is float else term.fn(c)) + names[col]
                             for col, c in row.coeffs]).lstrip("+ ")
        else:
            expr = "0 " + names[0]
        out.append(f" {row.name}: {expr} {op[row.sense]} {num(row.rhs)}")
    out.append("Bounds")
    for c in model.columns:
        if c.integer:
            continue
        upper = "+inf" if c.upper == float("inf") else num(c.upper)
        out.append(f" {num(c.lower)} <= {c.name} <= {upper}")
    binaries = [c.name for c in model.columns if c.integer]
    if binaries:
        out.append("Binaries")
        for name in binaries:
            out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"


def write_mps(model: MilpModel) -> str:
    """Fixed-layout MPS text with deterministic ordering."""
    num = _Memo(_num)
    # a line's first coefficient is padded to 13 characters plus a space, so
    # that even a wider one stays apart from the row name after it
    first = _Memo(lambda c: f"{num(c):<13} ")
    lines = [f"NAME          {model.name[:60]}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for row in model.rows:
        lines.append(f" {row.sense}  {row.name}")
    lines.append("COLUMNS")
    # each column's padded row names and coefficients, alternating, COST first
    by_col = [[f"{'COST':<20} ", c.objective] if c.objective != 0.0 else []
              for c in model.columns]
    for row in model.rows:
        head = f"{row.name:<20} "
        for col, c in row.coeffs:
            cells = by_col[col]
            cells.append(head)
            cells.append(c)
    in_int = False
    marker = 0
    for c, cells in zip(model.columns, by_col):
        if c.integer != in_int:
            tag = "INTORG" if c.integer else "INTEND"
            lines.append(f"    MARKER{marker}                 'MARKER'                 '{tag}'")
            in_int = c.integer
            marker += 1
        head = f"    {c.name:<24}"
        quads = iter(cells)
        lines += [f"{head}{row_a}{first[a] if type(a) is float else first.fn(a)}"
                  f"{row_b}{num[b] if type(b) is float else num.fn(b)}"
                  for row_a, a, row_b, b in zip(quads, quads, quads, quads)]
        if len(cells) % 4:
            lines.append(head + cells[-2] + num(cells[-1]))
    if in_int:
        lines.append(f"    MARKER{marker}                 'MARKER'                 'INTEND'")
    lines.append("RHS")
    for row in model.rows:
        if row.rhs != 0.0:
            lines.append(f"    RHS                     {row.name:<20} {num(row.rhs)}")
    lines.append("BOUNDS")
    for c in model.columns:
        if c.integer:
            lines.append(f" BV BND                    {c.name}")
        else:
            if c.lower == float("-inf"):
                lines.append(f" MI BND                    {c.name}")
            elif c.lower != 0.0:
                lines.append(f" LO BND                    {c.name:<24} {num(c.lower)}")
            if c.upper != float("inf"):
                lines.append(f" UP BND                    {c.name:<24} {num(c.upper)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def check_assignment(model: MilpModel, assignment: dict[str, float],
                     tol: float = INT_TOL) -> list[str]:
    """Names of rows the assignment violates (missing variables read as 0)."""
    values = [assignment.get(c.name, 0.0) for c in model.columns]
    violated = []
    for row in model.rows:
        lhs = sum(values[col] * coeff for col, coeff in row.coeffs)
        ok = (
            abs(lhs - row.rhs) <= tol if row.sense == "E"
            else lhs <= row.rhs + tol if row.sense == "L"
            else lhs >= row.rhs - tol
        )
        if not ok:
            violated.append(row.name)
    return violated


def encode_solution(inst: Instance, sol: Solution) -> tuple[int, dict[str, float]]:
    """Express a feasible Solution as a variable assignment.

    Trips that pass through a depot mid-walk are split at each depot visit
    (the formulation's end-tracking rows admit exactly one depot entry per
    trip), so the returned trip count can exceed the solution's own.
    """
    arcs, names, copies = _arc_table(inst)
    depot_set = set(inst.depots)

    split_routes: list[list[tuple[int, ...]]] = []
    for route in sol.routes:
        segments: list[tuple[int, ...]] = []
        for trip in route.trips:
            seg = [trip.nodes[0]]
            for node in trip.nodes[1:]:
                seg.append(node)
                if node in depot_set:
                    if len(seg) > 1:
                        segments.append(tuple(seg))
                    seg = [node]
            if len(seg) > 1:
                raise EncodeError(
                    f"vehicle {route.vehicle}: trip does not end at a depot")
        split_routes.append(segments)

    num_trips = max((len(s) for s in split_routes), default=1) or 1
    assignment: dict[str, float] = {}
    beta = 0.0
    for k, segments in enumerate(split_routes):
        durations = []
        for f, seg in enumerate(segments):
            used: set[int] = set()
            d = 0.0
            for i, j in zip(seg, seg[1:]):
                if (i, j) not in copies:
                    raise EncodeError(f"walk uses non-arc ({i},{j})")
                w, a = min((arcs[b][2], b) for b in copies[(i, j)])
                if a in used:
                    raise EncodeError(
                        f"vehicle {k} trip {f}: arc ({i},{j}) traversed twice; "
                        "binary arc variables cannot express this walk")
                used.add(a)
                d += w
                assignment[f"x_{k}_{f}_{names[a]}"] = 1.0
            assignment[f"z_{k}_{f}"] = 1.0
            assignment[f"y_{k}_{f}_{seg[-1]}"] = 1.0
            durations.append(d)
        beta = max(beta, route_time(durations, inst.recharge_time))
    assignment["beta"] = beta
    return num_trips, assignment


def decode_solution(inst: Instance, num_trips: int, assignment: dict[str, float]) -> Solution:
    """Rebuild trips from an assignment by Eulerian walk extraction."""
    arcs, names, _ = _arc_table(inst)
    routes = []
    beta = assignment.get("beta", 0.0)
    for k in range(inst.vehicles):
        trips: list[Trip] = []
        pos = inst.start_depot(k)
        for f in range(num_trips):
            if assignment.get(f"z_{k}_{f}", 0.0) < 1 - INT_TOL:
                break
            chosen = [a for a, n in enumerate(names)
                      if assignment.get(f"x_{k}_{f}_{n}", 0.0) > 1 - INT_TOL]
            end = [d for d in sorted(inst.depots)
                   if assignment.get(f"y_{k}_{f}_{d}", 0.0) > 1 - INT_TOL]
            if len(end) != 1:
                raise DecodeError(f"vehicle {k} trip {f}: ambiguous end depot {end}")
            walk = _euler_walk(arcs, chosen, pos, end[0])
            if walk is None:
                raise DecodeError(
                    f"vehicle {k} trip {f}: arcs do not form a depot-to-depot walk")
            duration = sum(arcs[a][2] for a in chosen)
            trips.append(trip_from_walk(inst, walk, duration))
            pos = end[0]
        routes.append(Route(k, tuple(trips)))
    makespan = worst_route_time(routes, inst.recharge_time)
    if abs(makespan - beta) > INT_TOL and beta:
        raise DecodeError(f"decoded makespan {makespan} disagrees with beta {beta}")
    return Solution(tuple(routes), makespan, ())


def _euler_walk(arcs, chosen, start: int, end: int) -> tuple[int, ...] | None:
    if not chosen:
        return None
    out: dict[int, list[int]] = {}
    for a in sorted(chosen, key=lambda a: arcs[a][:2]):
        out.setdefault(arcs[a][0], []).append(a)
    for lst in out.values():
        lst.reverse()  # pop() yields smallest (i, j) first
    stack = [start]
    walk: list[int] = []
    used = 0
    while stack:
        v = stack[-1]
        if out.get(v):
            a = out[v].pop()
            stack.append(arcs[a][1])
            used += 1
        else:
            walk.append(stack.pop())
    walk.reverse()
    if used != len(chosen) or walk[0] != start or walk[-1] != end:
        return None
    return tuple(walk)


@dataclass(frozen=True)
class SolveResult:
    status: str  # 'optimal', 'infeasible' or 'resource-limit'
    assignment: dict[str, float] | None = None


def iterative_f_driver(inst: Instance, solve_callback, f_cap: int = 8,
                       subtour_mode: str = "full-enumeration",
                       subtour_cap: int = 16) -> tuple[int, dict[str, float]]:
    """Grow the trip count from 1 until the callback reports optimality.

    The instance is dummy-node preprocessed before model building.  A
    resource-limit report stops the driver immediately; exhausting f_cap
    raises TripCapExceeded.
    """
    prepped, _ = add_dummy_nodes(inst)
    for f in range(1, f_cap + 1):
        model = build_model(prepped, f, subtour_mode=subtour_mode, subtour_cap=subtour_cap)
        result = solve_callback(model)
        if result.status == "optimal":
            return f, result.assignment
        if result.status == "resource-limit":
            raise SolverResourceLimit(f"solver hit a resource limit at trip count {f}")
        if result.status != "infeasible":
            raise ValueError(f"unknown callback status {result.status!r}")
    raise TripCapExceeded(f"no feasible trip count up to cap {f_cap}")
