"""Multi-depot adaptations of classic CARP construction heuristics.

All three reuse the multi-trip route semantics (`multitrip.FleetState`: trips
chain depot to depot, full recharge between trips) so results are comparable
with the multi-trip solver.  Each returns a complete `Solution` or the
Unsolved reason as a string, never an exception.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from typing import NamedTuple

from .graph import Arc, DijkstraRun, DistanceTables, WeightedGraph, path_from_parents
from .instance import Instance
from .multitrip import FleetState, initial_fleet_state
from .solution import EPS, Solution, Trip, covered_by_walk, trip_from_walk

CRITERIA = 5


def _splice(nodes: tuple[int, ...], artificial: dict[tuple[int, int], tuple[int, ...]]
            ) -> tuple[int, ...]:
    if not artificial:
        return nodes
    out = [nodes[0]]
    for a, b in zip(nodes, nodes[1:]):
        detour = artificial.get((a, b))
        if detour is not None:
            out.extend(detour[1:])
        else:
            out.append(b)
    return tuple(out)


class _Candidates(NamedTuple):
    """Every orientation of a required edge that the graph of some tables can
    serve, as (position, tail, head, w, to_depot_cost[head]) in (position,
    orientation) order, and the same candidates in the orders the leg picks
    walk."""

    items: list[tuple]
    # per node: (index in items, position, head, w, return cost), ascending index
    from_tail: list[list[tuple]]
    farthest_first: list[tuple]  # by (-return cost, index)
    nearest_first: list[tuple]  # by (return cost, index)


def _candidates(tables: DistanceTables, inst: Instance) -> _Candidates:
    items = []
    min_weight, to_depot = tables.graph.min_weight, tables.to_depot_cost
    for pos, e in enumerate(inst.required):
        for tail, head in e.orientations():
            w = min_weight(tail, head)
            if w is not None:
                items.append((pos, tail, head, w, to_depot[head]))
    from_tail: list[list[tuple]] = [[] for _ in range(tables.graph.node_count)]
    for idx, (pos, tail, head, w, ret) in enumerate(items):
        from_tail[tail].append((idx, pos, head, w, ret))
    # sorting is stable, so equal return costs stay in index order
    return _Candidates(items, from_tail, sorted(items, key=lambda c: -c[4]),
                       sorted(items, key=lambda c: c[4]))


def _pick_leg(cands: _Candidates, run: DijkstraRun, is_open: list[bool], used: float,
              limit: float, criterion: int) -> tuple[int, int, float] | None:
    """(tail, head, deadhead + w) of the open candidate with the least (key,
    index) whose trip back to a depot fits, or None; see `_build_trip` for
    the keys.

    A tail the run has not settled fails the capacity test, so criteria 0
    and 3 walk the settled tails, nearest first, and stop once a deadhead
    exceeds the best key: both keys are at least the deadhead.  The keys of
    criteria 1 and 2 are fixed per candidate, so the first fitting candidate
    in their order wins.
    """
    costs = run.costs
    if criterion == 1 or criterion == 2:
        for pos, tail, head, w, ret in (cands.farthest_first if criterion == 1
                                        else cands.nearest_first):
            if is_open[pos]:
                deadhead = costs[tail]
                if used + deadhead + w + ret <= limit:
                    return tail, head, deadhead + w
        return None
    best, best_key = None, math.inf
    if criterion == 4:
        for pos, tail, head, w, ret in cands.items:
            if is_open[pos]:
                deadhead = costs[tail]
                if used + deadhead + w + ret <= limit and -(deadhead + w) < best_key:
                    best, best_key = (tail, head, deadhead + w), -(deadhead + w)
        return best
    best_idx, from_tail = -1, cands.from_tail
    for tail in run.settled:
        deadhead = costs[tail]
        # the sum only grows with w and the return cost
        if deadhead > best_key or used + deadhead > limit:
            break
        for idx, pos, head, w, ret in from_tail[tail]:
            if is_open[pos] and used + deadhead + w + ret <= limit:
                key = deadhead if criterion == 0 else deadhead + w
                if key < best_key or key == best_key and idx < best_idx:
                    best, best_key, best_idx = (tail, head, deadhead + w), key, idx
    return best


def _build_trip(tables: DistanceTables, candidates: _Candidates, inst: Instance, start: int,
                is_open: list[bool], criterion: int, artificial) -> Trip | None:
    """One capacity-feasible trip from `start` greedily chaining open required
    edges; `is_open` (one flag per position in `inst.required`) is not changed.

    Criterion 0 picks the nearest edge, 1/2 the largest/smallest distance back
    to a depot, 3/4 the smallest/largest capacity used after serving.  Ties go
    to the first candidate, so by (position, orientation).
    """
    is_open = list(is_open)
    positions = inst.required_positions
    limit = inst.capacity + EPS
    cur = start
    used = 0.0
    legs = []
    while True:
        # a tail the run has not settled costs more than this bound, so it
        # fails the capacity test with its tentative cost as with its true
        # one; the tail picked is settled and its parents are final
        run = tables.run(cur, limit - used + EPS)
        best = _pick_leg(candidates, run, is_open, used, limit, criterion)
        if best is None:
            break
        tail, head, serve = best
        # the legs share their end nodes, so together they cover what the walk does
        for e in covered_by_walk(inst, path_from_parents(run.parents, cur, tail) + (head,)):
            for pos in positions[e]:
                is_open[pos] = False
        legs.append((tail, head))
        used += serve
        cur = head
    if not legs:
        return None
    # every tail is settled, so the trip advances no run and sums `used`
    walk, duration = tables.trip(start, legs)
    return trip_from_walk(inst, _splice(walk, artificial), duration)


def _scan_full(tables: DistanceTables, candidates, state: FleetState, criterion: int,
               artificial) -> None:
    """Run path scanning until no vehicle can add a covering trip.

    Mutates state; a vehicle that cannot add one is marked infeasible.
    """
    inst = state.inst
    budget = 10 * max(1, len(inst.required)) + len(state.vehicles)
    positions, is_open = inst.required_positions, state.is_open
    steps = 0
    while state.remaining and steps < budget:
        steps += 1
        k = state.next_vehicle()
        if k is None:
            break
        veh = state.vehicles[k]
        trip = _build_trip(tables, candidates, inst, veh.location, is_open, criterion,
                           artificial)
        # a leg over an artificial arc is spliced back into a real path, which
        # need not cross the edge it stood for
        if trip is None or not any(is_open[pos] for e in trip.covered for pos in positions[e]):
            veh.infeasible = True
            continue
        state.commit(k, trip)


def path_scanning(inst: Instance) -> Solution | str:
    """Run all five criteria; keep the lowest-makespan complete result, first on ties."""
    tables = DistanceTables(inst.graph, inst.start_depots)
    candidates = _candidates(tables, inst)
    best: Solution | None = None
    for criterion in range(CRITERIA):
        state = initial_fleet_state(inst)
        _scan_full(tables, candidates, state, criterion, {})
        if state.remaining:
            continue
        sol = state.solution()
        if best is None or sol.makespan < best.makespan:
            best = sol
    if best is None:
        return "no criterion covered every required edge"
    return best


def augment_merge(inst: Instance) -> Solution | str:
    """Augment: one depot round trip per required edge; merge: concatenate
    routes anchored at the same depot while a single trip stays feasible.

    Costs are read from forward runs, each advanced only as far as the cost
    tests need, so every sum is the one a complete run gives.
    """
    anchors = sorted(set(inst.start_depots))
    tables = DistanceTables(inst.graph, anchors)
    limit = inst.capacity + EPS
    min_weight = inst.graph.min_weight

    def chain_cost(depot: int, legs, bound: float) -> float:
        """Cost of the trip, or inf once a leg costs more than bound."""
        total = 0.0
        pos = depot
        for tail, head in legs:
            deadhead = tables.distance(pos, tail, bound)
            if deadhead == math.inf:
                return math.inf
            total += deadhead + min_weight(tail, head)
            pos = head
        return total + tables.distance(pos, depot, bound)

    # reach[tail]: the indices in anchors, ascending, of the anchors whose
    # capacity-bounded run settles tail; from any other anchor a trip
    # through tail costs more than the capacity
    runs = [tables.run(d, limit) for d in anchors]
    tails = {tail for e in inst.required for tail, _ in e.orientations()}
    reach: dict[int, list[int]] = {tail: [] for tail in tails}
    for a, run in enumerate(runs):
        for u in run.settled:
            if u in reach:
                reach[u].append(a)

    # (depot, legs, cost, creation number); a route never changes once made,
    # so a pair that failed to merge fails again and is remembered
    routes: list[tuple[int, list[tuple[int, int]], float, int]] = []
    created = itertools.count()
    failed: set[tuple[int, int]] = set()
    for e in inst.required:
        # the cheapest (cost, anchor, orientation): anchors nearest first by
        # the way out, each way back read only up to the best cost so far
        options = []
        for orient, (tail, head) in enumerate(e.orientations()):
            w = min_weight(tail, head)
            if w is not None:
                options.extend((runs[a].costs[tail] + w, a, orient, tail, head)
                               for a in reach[tail])
        options.sort()
        best = None
        for out, a, orient, tail, head in options:
            if best is not None and out > best[0]:
                break
            cost = out + tables.distance(head, anchors[a], limit if best is None else best[0])
            if cost <= limit and (best is None or (cost, a, orient) < best[:3]):
                best = (cost, a, orient, (tail, head))
        if best is None:
            return f"required edge ({e.frm},{e.to}) unreachable within capacity"
        routes.append((anchors[best[1]], [best[3]], best[0], next(created)))

    # Merge as a loop that re-sorted the routes by (-cost, depot, creation
    # number) and rescanned every pair after each merge would: take the first
    # untested pair that fits, its higher-ranked route's legs first.  Routes
    # of different depots never merge, and a route's rank among its depot's
    # routes does not depend on other depots, so each depot merges on its own
    # and only its routes are rescanned.
    def rank(route):
        return -route[2], route[3]

    def next_merge(ranked):
        for i, first in enumerate(ranked):
            for second in ranked[i + 1:]:
                pair = tuple(sorted((first[3], second[3])))
                if pair in failed:
                    continue
                joint = first[2] + second[2]
                bound = min(limit, joint)
                for legs in (first[1] + second[1], second[1] + first[1]):
                    cost = chain_cost(first[0], legs, bound)
                    if cost <= limit and cost < joint - EPS:
                        return first, second, (first[0], legs, cost)
                failed.add(pair)
        return None

    by_depot: dict[int, list] = {}
    for route in routes:
        by_depot.setdefault(route[0], []).append(route)
    for ranked in by_depot.values():
        ranked.sort(key=rank)
        while (merge := next_merge(ranked)) is not None:
            first, second, route = merge
            ranked.remove(first)
            ranked.remove(second)
            insort(ranked, (*route, next(created)), key=rank)

    state = initial_fleet_state(inst)
    # every anchor is some vehicle's start depot
    vehicles: dict[int, list[int]] = {}
    for k in range(inst.vehicles):
        vehicles.setdefault(inst.start_depot(k), []).append(k)

    routes = [route for ranked in by_depot.values() for route in ranked]
    for depot, legs, _, _ in sorted(routes, key=lambda r: (-r[2], r[0], r[1])):
        # every leg was read by a successful cost test, so the trip advances
        # no run and sums the route's cost
        trip = trip_from_walk(inst, *tables.trip(depot, legs, depot))
        state.commit(min((state.vehicles[k].available, k) for k in vehicles[depot])[1], trip)
    return state.solution()


def construct_strike(inst: Instance) -> Solution | str:
    """Alternate path-scanning passes with striking the traversed edges.

    When striking disconnects every start depot from the remaining required
    edges, artificial arcs rejoin them, each way weighted by its own
    shortest-path cost in the original graph; the emitted walks splice the
    real path back in.
    Frequently Unsolved by design.
    """
    node_count = inst.graph.node_count
    residual_arcs = list(inst.graph.arcs)
    original = DistanceTables(inst.graph, inst.start_depots)
    artificial: dict[tuple[int, int], tuple[int, ...]] = {}
    state = initial_fleet_state(inst)
    passes = 0
    max_passes = 10 * max(1, len(inst.required))
    while state.remaining:
        passes += 1
        if passes > max_passes:
            return "pass budget exhausted"
        # all five criteria scan the same residual graph
        residual = WeightedGraph(node_count, residual_arcs)
        tables = DistanceTables(residual, inst.start_depots)
        candidates = _candidates(tables, inst)
        best = None
        for criterion in range(CRITERIA):
            trial = state.copy()
            for v in trial.vehicles:
                v.infeasible = False
            _scan_full(tables, candidates, trial, criterion, artificial)
            progress = state.remaining - trial.remaining
            if progress == 0:
                continue
            key = (-progress, trial.solution().makespan, criterion)
            if best is None or key < best[0]:
                best = (key, trial)
        if best is None:
            if not _add_artificial_edges(inst, tables, original, residual_arcs, artificial,
                                         state.uncovered):
                return "no progress after striking"
            continue
        state = best[1]
        struck = _walk_arcs(state)
        residual_arcs = [a for a in residual_arcs
                         if (a.frm, a.to) not in struck and (a.to, a.frm) not in struck]
    return state.solution()


def _walk_arcs(state: FleetState) -> set[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    for v in state.vehicles:
        for trip in v.trips:
            pairs.update(zip(trip.nodes, trip.nodes[1:]))
    return pairs


def _add_artificial_edges(inst: Instance, tables: DistanceTables, original: DistanceTables,
                          residual_arcs, artificial, uncovered) -> bool:
    """Join each start depot cut off from every uncovered endpoint (over the
    residual graph of `tables`) to the nearest endpoint by an artificial edge.

    Each way is priced and walked in the original graph, by `original`: the
    endpoint is the cheapest one from the depot, the least node on ties.
    """
    endpoints = sorted({n for e in uncovered for n in (e.frm, e.to)})
    added = False
    for d in sorted(set(inst.start_depots)):
        costs = tables.run(d, math.inf).costs
        if any(costs[v] < math.inf for v in endpoints):
            continue
        costs = original.run(d, math.inf).costs
        cost, v = min((costs[v], v) for v in endpoints)
        if cost == math.inf or (d, v) in artificial:
            continue
        # the way back is its own path: on an asymmetric graph the reversed
        # path can cost more, or not exist
        for a, b in ((d, v), (v, d)):
            if original.distance(a, b) < math.inf:
                nodes, weight = original.trip(a, (), b)
                residual_arcs.append(Arc(a, b, weight))
                artificial[(a, b)] = nodes
        added = True
    return added
