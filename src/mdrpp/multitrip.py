"""Multi-trip constructive heuristic for the multi-depot postman fleet.

Vehicles repeatedly take the cheapest capacity-feasible trip that covers a
remaining required edge; a vehicle that cannot reach any edge in one trip is
repositioned, one depot hop at a time, strictly closer to its allocated target
edge.  Vehicles that can neither cover nor reposition are retired.  Required
edges crossed incidentally along the way are credited as covered.

`FleetState` is the route model every constructive solver shares: trips run
depot to depot and a vehicle fully recharges between trips.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .graph import DistanceTables, path_from_parents
from .instance import Instance, RequiredEdge
from .solution import EPS, Route, Solution, Trip, covered_by_walk, worst_route_time


@dataclass
class VehicleState:
    location: int
    available: float = 0.0
    infeasible: bool = False
    target: RequiredEdge | None = None
    trips: list[Trip] = field(default_factory=list)


class TripQueues:
    """Trips serving an uncovered edge from each source, cheapest first.

    Lives for one solve.  Each source's heap holds (duration, position in
    `inst.required`, orientation, tail, head) and grows with the source's
    Dijkstra run: a tail's trips are pushed once the run has settled the tail,
    so the run is advanced only until no unsettled tail can beat the top.
    Trips of covered edges are dropped when they reach the top.  The uncovered
    list is an order-preserving subsequence of `inst.required`, so the position
    breaks ties exactly as the index in that list does.
    """

    def __init__(self, inst: Instance, tables: DistanceTables):
        self.tables = tables
        self._required = inst.required
        self._limit = inst.capacity + EPS
        self._open = [True] * len(inst.required)
        self._from_tail: list[list[tuple[int, int, int, float]]] = [
            [] for _ in range(inst.graph.node_count)]
        min_weight = inst.graph.min_weight
        for pos, e in enumerate(inst.required):
            for orient, (tail, head) in enumerate(e.orientations()):
                self._from_tail[tail].append((pos, orient, head, min_weight(tail, head)))
        # per source: [Dijkstra run, heap, count of settled tails already pushed]
        self._sources: dict[int, list] = {}

    def close(self, edges) -> None:
        """Mark edges covered; their queued trips are skipped from now on."""
        for e in edges:
            # every copy of e has a trip with tail e.frm
            for pos, _, _, _ in self._from_tail[e.frm]:
                if self._required[pos] == e:
                    self._open[pos] = False

    def cheapest(self, src: int) -> tuple[float, int, int, int, int] | None:
        """Cheapest open trip from src within capacity, or None."""
        source = self._sources.get(src)
        if source is None:
            source = self._sources[src] = [self.tables.run(src, 0.0), [], 0]
        run, heap, pushed = source
        costs, settled, to_depot = run.costs, run.settled, self.tables.to_depot_cost
        is_open, from_tail, limit = self._open, self._from_tail, self._limit
        while True:
            for tail in settled[pushed:]:
                for pos, orient, head, w in from_tail[tail]:
                    if is_open[pos]:
                        duration = costs[tail] + w + to_depot[head]
                        if duration <= limit:
                            heapq.heappush(heap, (duration, pos, orient, tail, head))
            pushed = len(settled)
            while heap and not is_open[heap[0][1]]:
                heapq.heappop(heap)
            # an unsettled tail costs at least the frontier, and so does its trip
            frontier = run.frontier
            if heap:
                bound = heap[0][0]
                if frontier > bound:
                    break
            elif frontier > limit:
                break
            else:
                bound = frontier
            self.tables.run(src, bound)
        source[2] = pushed
        return heap[0] if heap else None


@dataclass
class FleetState:
    vehicles: list[VehicleState]
    uncovered: list[RequiredEdge]
    queues: TripQueues | None = None

    def next_vehicle(self, candidates=None) -> int | None:
        """Feasible vehicle with minimum availability time, ties by index.

        `candidates` (ascending vehicle indices) narrows the choice; the
        default is the whole fleet.
        """
        best = None
        for k in range(len(self.vehicles)) if candidates is None else candidates:
            v = self.vehicles[k]
            if v.infeasible:
                continue
            if best is None or v.available < self.vehicles[best].available:
                best = k
        return best

    def commit(self, k: int, trip: Trip, recharge_time: float) -> None:
        """Append trip to vehicle k's route and credit the edges it covers."""
        veh = self.vehicles[k]
        # two additions, not one: the rounding decides availability ties
        if veh.trips:
            veh.available += recharge_time
        veh.available += trip.duration
        veh.location = trip.nodes[-1]
        veh.trips.append(trip)
        if trip.covered:
            covered = set(trip.covered)
            self.uncovered = [e for e in self.uncovered if e not in covered]
            if self.queues is not None:
                self.queues.close(covered)
            for v in self.vehicles:
                if v.target in covered:
                    v.target = None

    def solution(self, recharge_time: float) -> Solution:
        routes = tuple(Route(k, tuple(v.trips)) for k, v in enumerate(self.vehicles))
        return Solution(routes, worst_route_time(routes, recharge_time),
                        tuple(self.uncovered))


def initial_fleet_state(inst: Instance) -> FleetState:
    vehicles = [VehicleState(location=inst.start_depot(k)) for k in range(inst.vehicles)]
    return FleetState(vehicles=vehicles, uncovered=list(inst.required))


def select_next_vehicle(state: FleetState) -> int | None:
    """Feasible vehicle with minimum availability time, ties by index."""
    return state.next_vehicle()


def _edge_distance(costs: list[float], e: RequiredEdge) -> float:
    return min(costs[e.frm], costs[e.to])


def closest_feasible_edge(inst: Instance, state: FleetState, k: int,
                          tables: DistanceTables | None = None
                          ) -> tuple[RequiredEdge, Trip] | None:
    """Cheapest single-trip coverage of a remaining required edge by vehicle k.

    A candidate trip is shortest path to the edge tail, the edge itself, then
    shortest path from the head to the nearest depot; both orientations are
    tried for undirected edges.  Ties break on (duration, edge index,
    orientation).  The state's own trip queues answer when it has them;
    otherwise one-off queues are built over `tables`.
    """
    queues = state.queues
    if queues is None:
        queues = TripQueues(inst, tables or DistanceTables(inst.graph, inst.depots))
        queues.close(set(inst.required).difference(state.uncovered))
    location = state.vehicles[k].location
    top = queues.cheapest(location)
    if top is None:
        return None
    duration, pos, _, tail, head = top
    nodes = path_from_parents(queues.tables.run(location).parents, location, tail)
    nodes = nodes + (head,) + queues.tables.return_walk(head)[1:]
    trip = Trip(nodes=nodes, duration=duration,
                covered=tuple(sorted(covered_by_walk(inst, nodes))))
    return inst.required[pos], trip


def closest_feasible_depot(inst: Instance, state: FleetState, k: int,
                           target: RequiredEdge,
                           tables: DistanceTables | None = None
                           ) -> tuple[int, Trip] | None:
    """Reachable depot strictly closer to the target edge, best first.

    Closeness is shortest-path distance to the nearer endpoint of the target;
    ties break on the smaller depot id.  Returns None when no reachable depot
    improves on the vehicle's current distance.
    """
    tables = tables or DistanceTables(inst.graph, inst.depots)
    veh = state.vehicles[k]
    costs, parents = tables.row(veh.location)
    current = _edge_distance(costs, target)
    best = None
    for d in sorted(set(inst.depots)):
        if d == veh.location:
            continue
        if costs[d] > inst.capacity + EPS:
            continue
        dist = _edge_distance(tables.row(d)[0], target)
        if dist >= current - EPS:
            continue
        key = (dist, d)
        if best is None or key < best[0]:
            best = (key, d)
    if best is None:
        return None
    depot = best[1]
    nodes = path_from_parents(parents, veh.location, depot)
    trip = Trip(nodes=nodes, duration=costs[depot],
                covered=tuple(sorted(covered_by_walk(inst, nodes))))
    return depot, trip


def solve_multitrip(inst: Instance) -> Solution:
    """Run the constructive heuristic; partial coverage yields a partial Solution."""
    tables = DistanceTables(inst.graph, inst.depots)
    state = initial_fleet_state(inst)
    state.queues = TripQueues(inst, tables)
    # termination is guaranteed by the strictly-closer depot rule; the guard
    # only turns a latent bug into a loud failure
    guard = 1000 + 50 * inst.vehicles * max(1, len(inst.required)) * (len(inst.depots) + 1)
    iterations = 0
    while state.uncovered:
        k = state.next_vehicle()
        if k is None:
            break
        iterations += 1
        if iterations > guard:
            raise RuntimeError("multi-trip heuristic failed to make progress")
        hit = closest_feasible_edge(inst, state, k, tables)
        if hit is not None:
            state.commit(k, hit[1], inst.recharge_time)
            continue
        veh = state.vehicles[k]
        if veh.target is None or veh.target not in state.uncovered:
            veh.target = _closest_uncovered(state, k, tables)
        move = closest_feasible_depot(inst, state, k, veh.target, tables)
        if move is None:
            veh.infeasible = True
            continue
        state.commit(k, move[1], inst.recharge_time)

    # a vehicle retired before its first trip still stands at its start
    # depot, which need not belong to the depot set
    depot_set = set(inst.depots)
    for k, veh in enumerate(state.vehicles):
        if veh.location not in depot_set:
            walk = tables.return_walk(veh.location)
            if len(walk) > 1:
                trip = Trip(nodes=walk, duration=tables.to_depot_cost[veh.location],
                            covered=tuple(sorted(covered_by_walk(inst, walk))))
                state.commit(k, trip, inst.recharge_time)

    return state.solution(inst.recharge_time)


def _closest_uncovered(state: FleetState, k: int, tables: DistanceTables) -> RequiredEdge:
    costs = tables.row(state.vehicles[k].location)[0]
    best = min(
        (_edge_distance(costs, e), idx)
        for idx, e in enumerate(state.uncovered)
    )
    return state.uncovered[best[1]]
