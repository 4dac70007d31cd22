"""Multi-depot adaptations of classic CARP construction heuristics.

All three reuse the multi-trip route semantics (`multitrip.FleetState`: trips
chain depot to depot, full recharge between trips) so results are comparable
with the multi-trip solver.  Each returns a complete `Solution` or the
Unsolved reason as a string, never an exception.
"""

from __future__ import annotations

import itertools
import math

from .graph import (Arc, DistanceTables, WeightedGraph, _lex_dijkstra, path_from_parents,
                    shortest_path)
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


def _candidates(tables: DistanceTables, inst: Instance) -> list[tuple]:
    """(position, tail, head, w, to_depot_cost[head]) of every orientation of a
    required edge that the graph of `tables` can serve, in (position,
    orientation) order."""
    out = []
    min_weight, to_depot = tables.graph.min_weight, tables.to_depot_cost
    for pos, e in enumerate(inst.required):
        for tail, head in e.orientations():
            w = min_weight(tail, head)
            if w is not None:
                out.append((pos, tail, head, w, to_depot[head]))
    return out


def _build_trip(tables: DistanceTables, candidates, inst: Instance, start: int,
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
    walk: tuple[int, ...] = (start,)
    while True:
        # a tail the run has not settled costs more than this bound, so it
        # fails the capacity test below with its tentative cost as with its
        # true one; the tail picked is settled and its parents are final
        run = tables.run(cur, limit - used + EPS)
        costs = run.costs
        best, best_key = None, math.inf
        for pos, tail, head, w, ret in candidates:
            if not is_open[pos]:
                continue
            deadhead = costs[tail]
            if used + deadhead + w + ret > limit:
                continue
            if criterion == 0:
                key = deadhead
            elif criterion == 1:
                key = -ret
            elif criterion == 2:
                key = ret
            elif criterion == 3:
                key = deadhead + w
            else:
                key = -(deadhead + w)
            if key < best_key:
                best, best_key = (tail, head, deadhead + w), key
        if best is None:
            break
        tail, head, serve = best
        leg = path_from_parents(run.parents, cur, tail) + (head,)
        walk = walk + leg[1:]
        used += serve
        cur = head
        # the legs share their end nodes, so together they cover what the walk does
        for e in covered_by_walk(inst, leg):
            for pos in positions[e]:
                is_open[pos] = False
    if cur == start and len(walk) == 1:
        return None
    walk = walk + tables.return_walk(cur)[1:]
    duration = used + tables.to_depot_cost[cur]
    real = _splice(walk, artificial)
    return trip_from_walk(inst, real, duration)


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
    routes anchored at the same depot while a single trip stays feasible."""
    anchors = sorted(set(inst.start_depots))
    tables = DistanceTables(inst.graph, anchors)

    def chain_cost(depot: int, legs) -> float:
        total = 0.0
        pos = depot
        for tail, head in legs:
            w = inst.graph.min_weight(tail, head)
            if w is None:
                return float("inf")
            total += tables.row(pos)[0][tail] + w
            pos = head
        return total + tables.row(pos)[0][depot]

    # (depot, legs, cost, creation number); a route never changes once made,
    # so a pair that failed to merge fails again and is remembered
    routes: list[tuple[int, list[tuple[int, int]], float, int]] = []
    created = itertools.count()
    failed: set[tuple[int, int]] = set()
    for e in inst.required:
        best = None
        for d in anchors:
            for tail, head in e.orientations():
                w = inst.graph.min_weight(tail, head)
                if w is None:
                    continue
                back = tables.row(head)[0][d]
                cost = tables.row(d)[0][tail] + w + back
                if cost <= inst.capacity + EPS and (best is None or cost < best[0]):
                    best = (cost, d, (tail, head))
        if best is None:
            return f"required edge ({e.frm},{e.to}) unreachable within capacity"
        routes.append((best[1], [best[2]], best[0], next(created)))

    merged = True
    while merged:
        merged = False
        routes.sort(key=lambda r: (-r[2], r[0]))
        for i in range(len(routes)):
            for j in range(len(routes)):
                if i == j or routes[i][0] != routes[j][0]:
                    continue
                # both concatenations are tried either way round
                pair = tuple(sorted((routes[i][3], routes[j][3])))
                if pair in failed:
                    continue
                depot = routes[i][0]
                for legs in (routes[i][1] + routes[j][1], routes[j][1] + routes[i][1]):
                    cost = chain_cost(depot, legs)
                    if cost <= inst.capacity + EPS and cost < routes[i][2] + routes[j][2] - EPS:
                        keep = (depot, list(legs), cost, next(created))
                        routes = [r for idx, r in enumerate(routes) if idx not in (i, j)]
                        routes.append(keep)
                        merged = True
                        break
                if merged:
                    break
                failed.add(pair)
            if merged:
                break

    state = initial_fleet_state(inst)
    # every anchor is some vehicle's start depot
    by_depot: dict[int, list[int]] = {}
    for k in range(inst.vehicles):
        by_depot.setdefault(inst.start_depot(k), []).append(k)
    for depot, legs, cost, _ in sorted(routes, key=lambda r: (-r[2], r[0], r[1])):
        walk: tuple[int, ...] = (depot,)
        for tail, head in legs:
            walk = walk + path_from_parents(tables.row(walk[-1])[1], walk[-1], tail)[1:] + (head,)
        walk = walk + path_from_parents(tables.row(walk[-1])[1], walk[-1], depot)[1:]
        trip = trip_from_walk(inst, walk, cost)
        state.commit(min((state.vehicles[k].available, k) for k in by_depot[depot])[1], trip)
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
            if not _add_artificial_edges(inst, tables, residual_arcs, artificial,
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


def _add_artificial_edges(inst: Instance, tables: DistanceTables, residual_arcs, artificial,
                          uncovered) -> bool:
    """Join each start depot cut off from every uncovered endpoint (over the
    residual graph of `tables`) to the nearest endpoint by an artificial edge."""
    endpoints = sorted({n for e in uncovered for n in (e.frm, e.to)})
    added = False
    for d in sorted(set(inst.start_depots)):
        costs = tables.row(d)[0]
        if any(costs[v] < float("inf") for v in endpoints):
            continue
        # one search serves every endpoint: a search stopped at an endpoint
        # pops the same entries up to it, so its path is the same
        paths = _lex_dijkstra(inst.graph, d)
        best = None
        for v in endpoints:
            if v in paths and (best is None or paths[v][0] < best[0]):
                best = paths[v]
        if best is None or len(best[1]) < 2:
            continue
        cost, nodes = best
        v = nodes[-1]
        if (d, v) in artificial:
            continue
        residual_arcs.append(Arc(d, v, cost))
        artificial[(d, v)] = nodes
        # the way back is its own search: on an asymmetric graph the reversed
        # path can cost more, or not exist
        back = shortest_path(inst.graph, v, d)
        if back is not None:
            residual_arcs.append(Arc(v, d, back.cost))
            artificial[(v, d)] = back.nodes
        added = True
    return added
