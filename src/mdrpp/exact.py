"""Exact min-max solver for tiny instances plus a brute-force cross-check.

`solve_exact` runs one depth-first branch and bound over vehicle trips, in
vehicle order.  A trip is a repositioning hop between depots or covers an
ordered, oriented subset of the required edges; the edges still uncovered
are a bit mask.  Each depot's list of capacity-feasible trips is built once,
on first use, and filtered once per uncovered mask to the trips whose edges
are all still uncovered, in list order.  A node tests each child's lower
bound before calling it: the child's route time, the worst finished route
time and each uncovered edge's cheapest single trip.  On the last vehicle, a
child that leaves edges uncovered needs one more trip after a recharge, so it
also needs a free trip slot and a route time that leaves room for that trip
(see `_ROUNDING` for its margin).  A leaf is accepted only when it beats the
incumbent by `EPS`, so sound pruning leaves the returned plan unchanged.
`enumerate_exhaustive` recomputes the optimum by plain enumeration and
exists only to cross-check the search.
Neither scales; both are ground truth for heuristic gaps and MILP checks.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .graph import one_to_all, shortest_path
from .instance import Instance, RequiredEdge
from .solution import EPS, Route, Solution, Trip, worst_route_time


class OracleSizeError(ValueError):
    pass


class OracleBudgetError(RuntimeError):
    """The time budget ran out before the search found any feasible plan."""


# ordered, oriented edge sequences one depot's trip list may enumerate: admits
# 14 undirected or 27 directed required edges at the default trip size of 3
MAX_TRIP_SEQUENCES = 20_000

# relative margin of the last-vehicle bound.  A trip that covers an edge costs
# at least that edge's cheapest single trip only by the triangle inequality
# over Dijkstra's float distances, and the bound sums in another order than
# the leaf's route time.  Each float addition errs by at most 2**-53 of its
# result, so 1e-12 covers thousands of them; a bound equal to an incumbent
# below 1000 is still pruned.
_ROUNDING = 1e-12

# (trip, mask) entries the search keeps in its fitting-trip lists before it
# empties them, about 150 bytes each.  On larger instances most masks are
# visited once: keeping every list grew by 70 MB a second on the seed-1,
# 20-node set-B instance
_FITTING_ENTRIES = 100_000


def _distance_matrix(inst: Instance) -> list[list[float]]:
    return [one_to_all(inst.graph, s)[0] for s in range(inst.graph.node_count)]


def _edge_weight(inst: Instance, tail: int, head: int) -> float:
    w = inst.graph.min_weight(tail, head)
    if w is None:
        return float("inf")
    return w


def _cheapest_single_trip(inst: Instance, dist, e: RequiredEdge) -> float:
    """Cheapest depot-to-depot trip covering e, ignoring vehicle positions."""
    best = float("inf")
    for tail, head in e.orientations():
        w = _edge_weight(inst, tail, head)
        for d1 in inst.depots:
            for d2 in inst.depots:
                c = dist[d1][tail] + w + dist[head][d2]
                if c < best:
                    best = c
    return best


class _MaskMax(dict):
    """The largest of `bounds[i]` over the bits i of a mask, computed once per
    mask; 0.0 for the empty mask."""

    def __init__(self, bounds: list[float]):
        super().__init__()
        self.bounds = bounds

    def __missing__(self, mask: int) -> float:
        value = self[mask] = max((b for i, b in enumerate(self.bounds) if mask >> i & 1),
                                 default=0.0)
        return value


@dataclass
class _TripPlan:
    legs: tuple[tuple[int, int], ...]  # oriented required edges, () = reposition
    end_depot: int
    duration: float


def _trip_options(inst: Instance, dist, depot: int, required: tuple[RequiredEdge, ...],
                  max_edges: int, deadline: float):
    """All capacity-feasible trips from `depot`, each with the bit mask of the
    required edges it covers: repositioning hops (mask 0) first, then covering
    trips over ordered subsets of `required`, by size, in lexicographic order.
    None once `deadline` (a `time.monotonic` reading) has passed."""
    options: list[tuple[_TripPlan, int]] = []
    cap = inst.capacity + EPS
    for d in inst.depots:
        if d != depot and dist[depot][d] <= cap:
            options.append((_TripPlan((), d, dist[depot][d]), 0))
    indices = range(len(required))
    for size in range(1, min(max_edges, len(required)) + 1):
        for combo in itertools.permutations(indices, size):
            if time.monotonic() > deadline:
                return None
            edges = [required[i] for i in combo]
            mask = sum(1 << i for i in combo)
            for orients in itertools.product(*[e.orientations() for e in edges]):
                run = 0.0
                pos = depot
                ok = True
                for tail, head in orients:
                    run += dist[pos][tail] + _edge_weight(inst, tail, head)
                    pos = head
                    if run > cap:
                        ok = False
                        break
                if not ok:
                    continue
                for d in inst.depots:
                    total = run + dist[pos][d]
                    if total <= cap:
                        options.append((_TripPlan(tuple(orients), d, total), mask))
    return options


def solve_exact(inst: Instance, f_cap: int = 3, time_budget: float = 60.0,
                max_edges_per_trip: int | None = None
                ) -> tuple[Solution, bool] | None:
    """Provably optimal min-max solution, or best incumbent at budget expiry.

    Trips cover at most `max_edges_per_trip` required edges (default
    min(|E_u|, 3)); raising it restores completeness at exponential cost.
    Returns None when no feasible assignment exists within f_cap trips, and
    raises OracleBudgetError when the budget runs out before any is found.
    Raises OracleSizeError when one depot's trip list would enumerate more
    than MAX_TRIP_SEQUENCES ordered, oriented edge sequences.
    """
    if f_cap < 1:
        raise OracleSizeError("f_cap must be positive")
    if not time_budget > 0:
        raise ValueError("time_budget must be positive")
    # parallel copies of a required edge are covered by one traversal
    required = tuple(dict.fromkeys(inst.required))
    if max_edges_per_trip is None:
        max_edges_per_trip = min(len(required), 3) or 1
    size = min(max_edges_per_trip, len(required))
    # subsets[s]: sum over s-edge subsets of the product of orientation counts
    subsets = [1] + [0] * size
    for e in required:
        for s in range(size, 0, -1):
            subsets[s] += subsets[s - 1] * len(e.orientations())
    sequences = sum(math.factorial(s) * subsets[s] for s in range(1, size + 1))
    if sequences > MAX_TRIP_SEQUENCES:
        raise OracleSizeError(
            f"{len(required)} required edges at {max_edges_per_trip} per trip give "
            f"{sequences} trip sequences per depot (cap {MAX_TRIP_SEQUENCES})")
    dist = _distance_matrix(inst)
    edge_bound = [_cheapest_single_trip(inst, dist, e) for e in required]
    deadline = time.monotonic() + time_budget
    options: dict[int, list[tuple[_TripPlan, int]]] = {}
    fitting: dict[tuple[int, int], list[tuple[int, float, float, int, int]]] = {}
    fitting_entries = 0
    rem_bound = _MaskMax(edge_bound)
    recharge = inst.recharge_time
    last = inst.vehicles - 1

    best_plan: list[list[_TripPlan]] | None = None
    best_value = float("inf")
    complete = True
    done: list[tuple[_TripPlan, ...]] = []  # trips of vehicles 0..k

    def search(k: int, depot: int, trips: tuple[_TripPlan, ...], spent: float,
               worst: float, remaining: int) -> None:
        """Vehicle k, at `depot` after `trips` of total duration `spent`, with
        `worst` the largest route time of vehicles 0..k-1, either stops and
        hands the required edges in the `remaining` mask to vehicle k + 1, or
        takes one more trip.  The caller has tested this node's bound."""
        nonlocal best_plan, best_value, complete, fitting_entries
        if time.monotonic() > deadline:
            complete = False
            return
        # summed left to right, as route_time adds
        t_here = spent + (len(trips) - 1) * recharge if trips else 0.0
        done.append(trips)
        if k < last:
            search(k + 1, inst.start_depot(k + 1), (), 0.0, max(worst, t_here), remaining)
        elif not remaining:
            # the bound test let this leaf in, so it beats the incumbent
            best_value = max(t_here, worst)
            best_plan = [list(p) for p in done]
        done.pop()
        n = len(trips)
        # past a leaf, any further trip only adds time
        if n >= f_cap or k == last and not remaining:
            return
        fits = fitting.get((depot, remaining))
        if fits is None:
            if depot not in options:
                built = _trip_options(inst, dist, depot, required, max_edges_per_trip, deadline)
                if built is None:
                    complete = False
                    return
                options[depot] = built
            # the trips that fit, in option order: the mask each leaves, that
            # mask's bound, the trip's duration, end depot and option index.
            # Numbers only, so the garbage collector stops tracking them:
            # holding each _TripPlan instead made collection take 2 s of a
            # 3 s budget on the instance named at _FITTING_ENTRIES
            fits = [(remaining ^ mask, rem_bound[remaining ^ mask], plan.duration,
                     plan.end_depot, i)
                    for i, (plan, mask) in enumerate(options[depot]) if mask & remaining == mask]
            if fitting_entries > _FITTING_ENTRIES:
                fitting.clear()
                fitting_entries = 0
            fitting[depot, remaining] = fits
            fitting_entries += len(fits)
        trip_list = options[depot]
        recharges = n * recharge
        last_vehicle = k == last
        cut = best_value - EPS
        for rest, rest_bound, duration, end, i in fits:
            ns = spent + duration
            t = ns + recharges  # the child's t_here
            # any remaining edge costs at least its cheapest covering trip,
            # whichever vehicle ends up taking it
            if t >= cut or worst >= cut or rest_bound >= cut:
                continue
            # the last vehicle still needs one more trip, after a recharge,
            # for the edges left; see _ROUNDING for the margin
            if last_vehicle and rest and (
                    n + 1 >= f_cap or (t + recharge + rest_bound) * (1.0 - _ROUNDING) >= cut):
                continue
            search(k, end, trips + (trip_list[i][0],), ns, worst, rest)
            if not complete:
                return
            cut = best_value - EPS

    search(0, inst.start_depot(0), (), 0.0, 0.0, (1 << len(required)) - 1)
    if best_plan is None:
        if not complete:
            raise OracleBudgetError(f"no feasible plan found within {time_budget} s")
        return None
    return _materialize(inst, best_plan), complete


def _materialize(inst: Instance, plans: list[list[_TripPlan]]) -> Solution:
    routes = []
    for k, trips in enumerate(plans):
        pos = inst.start_depot(k)
        out = []
        for plan in trips:
            nodes: tuple[int, ...] = (pos,)
            for tail, head in plan.legs:
                leg = shortest_path(inst.graph, nodes[-1], tail)
                nodes = nodes + leg.nodes[1:] + (head,)
            back = shortest_path(inst.graph, nodes[-1], plan.end_depot)
            nodes = nodes + back.nodes[1:]
            out.append(Trip(nodes, plan.duration))
            pos = plan.end_depot
        routes.append(Route(k, tuple(out)))
    return Solution(tuple(routes), worst_route_time(routes, inst.recharge_time), ())


def enumerate_exhaustive(inst: Instance, f_cap: int = 3,
                         max_edges_per_trip: int | None = None) -> float | None:
    """Brute-force optimum over every assignment/order/orientation/route shape.

    Guarded to |E_u| <= 5, K <= 2, 1 <= f_cap <= 3; returns None when infeasible.

    The enumeration stops at its best plan so far.  A node's route time so
    far, `spent + (trips - 1) * rt` with `spent` its trip durations added
    left to right from 0, is the sum `route_time` computes.  A node whose
    time is already at or above the bound is cut: the bound is the vehicle's
    least route time so far (over all its edge orders and orientations), and
    starts at the best makespan of the assignments before, which a vehicle
    must beat for its assignment to improve on it.  Durations and rt are
    non-negative and float addition is monotone, so no leaf below a cut node
    is below the bound, and the least value found is the same float as
    without cuts.
    """
    if f_cap < 1:
        raise OracleSizeError("f_cap must be positive")
    required = tuple(dict.fromkeys(inst.required))
    if len(required) > 5 or inst.vehicles > 2 or f_cap > 3:
        raise OracleSizeError("exhaustive enumeration guard exceeded "
                              "(|E_u| <= 5, K <= 2, f_cap <= 3)")
    if max_edges_per_trip is None:
        max_edges_per_trip = min(len(required), 3) or 1
    dist = _distance_matrix(inst)
    cap = inst.capacity + EPS
    depots = list(inst.depots)
    rt = inst.recharge_time

    def least_route(start: int, seq: tuple[tuple[int, int, float], ...], bound: float) -> float:
        """The least route time below `bound` covering the oriented legs `seq` in
        order within f_cap trips, hops allowed; `bound` when there is none."""
        least = bound

        def rec(i: int, depot: int, trips: int, spent: float):
            nonlocal least
            t = spent + (trips - 1) * rt
            if t >= least:
                return
            if i == len(seq):
                least = t
                return
            if trips == f_cap:
                return
            # repositioning hop
            for d in depots:
                if d != depot and dist[depot][d] <= cap:
                    rec(i, d, trips + 1, spent + dist[depot][d])
            # covering trip over the next j legs
            for j in range(1, min(max_edges_per_trip, len(seq) - i) + 1):
                run = 0.0
                pos = depot
                ok = True
                for tail, head, w in seq[i:i + j]:
                    run += dist[pos][tail] + w
                    pos = head
                    if run > cap:
                        ok = False
                        break
                if not ok:
                    break
                for d in depots:
                    total = run + dist[pos][d]
                    if total <= cap:
                        rec(i + j, d, trips + 1, spent + total)

        rec(0, start, 0, 0.0)
        return least

    best = float("inf")
    idx = range(len(required))
    for assign in itertools.product(range(inst.vehicles), repeat=len(required)):
        per_vehicle_best: list[float] = []
        for k in range(inst.vehicles):
            mine = [required[i] for i in idx if assign[i] == k]
            if not mine:
                per_vehicle_best.append(0.0)
                continue
            best_k = best
            for perm in itertools.permutations(mine):
                for orients in itertools.product(*[e.orientations() for e in perm]):
                    seq = tuple((tail, head, _edge_weight(inst, tail, head))
                                for tail, head in orients)
                    best_k = least_route(inst.start_depot(k), seq, best_k)
            if best_k >= best:
                break
            per_vehicle_best.append(best_k)
        else:
            # every vehicle beat `best`, so their worst does too
            best = max(per_vehicle_best)
    if best == float("inf"):
        return None
    return best
