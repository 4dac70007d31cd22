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
import itertools
import math
from dataclasses import dataclass, field, replace

from .graph import DistanceTables
from .instance import Instance, RequiredEdge
from .solution import EPS, Route, Solution, Trip, trip_from_walk, worst_route_time


# relative bound on how far a reverse-run distance and the forward one can
# round apart.  Each sums a shortest path of at most `nodes` arcs, each
# addition off by at most 2**-53 of its result, so they differ by less than
# 2 * nodes * 2**-53 of the distance: under 1e-9 below four million nodes
_ROUNDING = 1e-9


@dataclass
class VehicleState:
    location: int
    available: float = 0.0
    infeasible: bool = False
    target: int | None = None  # position in inst.required
    trips: list[Trip] = field(default_factory=list)


class TripQueues:
    """Trips serving an uncovered edge from each source, cheapest first.

    Lives for one solve and reads that solve's open flags, one per position in
    `inst.required`.  Each source's heap holds (duration, position,
    orientation, tail, head) and grows with the source's Dijkstra run: a
    tail's trips are pushed once the run has settled the tail.  Trips of
    covered edges are dropped when they reach the top.  The uncovered list is
    the open positions in order, so the position breaks ties exactly as the
    index in that list does.

    A trip from an unsettled tail costs at least the frontier plus the trip's
    extra cost `w + to_depot_cost[head]`, so at least the frontier plus the
    slack, the smallest extra cost of any open trip.  The run is advanced
    only until that bound passes the top.
    """

    def __init__(self, inst: Instance, tables: DistanceTables, is_open: list[bool]):
        self.tables = tables
        self._open = is_open
        self._limit = inst.capacity + EPS
        self._from_tail: list[list[tuple[int, int, int, float]]] = [
            [] for _ in range(inst.graph.node_count)]
        # (extra cost, position) of every trip, ascending; edges only ever
        # close, so the cursor to the first open one only moves forward
        self._extra: list[tuple[float, int]] = []
        self._cursor = 0
        min_weight, to_depot = inst.graph.min_weight, tables.to_depot_cost
        for pos, e in enumerate(inst.required):
            for orient, (tail, head) in enumerate(e.orientations()):
                w = min_weight(tail, head)
                self._from_tail[tail].append((pos, orient, head, w))
                self._extra.append((w + to_depot[head], pos))
        self._extra.sort()
        # per source: [Dijkstra run, heap, count of settled tails already pushed]
        self._sources: dict[int, list] = {}

    def _slack(self) -> float:
        """Smallest extra cost of an open trip, or 0 when no trip is open."""
        extra, is_open, cursor = self._extra, self._open, self._cursor
        while cursor < len(extra) and not is_open[extra[cursor][1]]:
            cursor += 1
        self._cursor = cursor
        return extra[cursor][0] if cursor < len(extra) else 0.0

    def cheapest(self, src: int) -> tuple[float, int, int, int, int] | None:
        """Cheapest open trip from src within capacity, or None."""
        source = self._sources.get(src)
        if source is None:
            source = self._sources[src] = [self.tables.run(src, 0.0), [], 0]
        run, heap, pushed = source
        costs, settled, to_depot = run.costs, run.settled, self.tables.to_depot_cost
        is_open, from_tail, limit = self._open, self._from_tail, self._limit
        slack = self._slack()
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
            # frontier + slack rounds apart from a duration summed as
            # (costs[tail] + w) + to_depot_cost[head]; the EPS margin covers it
            frontier = run.frontier
            if heap:
                top = heap[0][0]
                if frontier + slack > top + EPS:
                    break
                bound = max(frontier, top - slack + EPS)
            elif frontier + slack > limit + EPS:
                break
            else:
                bound = frontier
            self.tables.run(src, bound)
        source[2] = pushed
        return heap[0] if heap else None


@dataclass
class FleetState:
    """Vehicles and coverage of a solution under construction.

    Coverage is one open flag per position in `inst.required`, so equal
    copies of an edge close together and each stays listed while open.

    The dispatch queue is a heap of (available, index) entries.  `commit`
    pushes a vehicle's new entry, and `next_vehicle` drops an entry once its
    vehicle has retired or its availability has moved on.  A vehicle retired
    here is revived on a `copy()`, whose queue is built from every vehicle.
    """

    inst: Instance
    vehicles: list[VehicleState]
    is_open: list[bool]
    remaining: int
    _queue: list[tuple[float, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._queue = [(v.available, k) for k, v in enumerate(self.vehicles)]
        heapq.heapify(self._queue)

    @property
    def uncovered(self) -> list[RequiredEdge]:
        """Open required edges, in `inst.required` order."""
        return [e for e, is_open in zip(self.inst.required, self.is_open) if is_open]

    def copy(self) -> FleetState:
        """Copy of the vehicles and the coverage."""
        vehicles = [replace(v, trips=list(v.trips)) for v in self.vehicles]
        return FleetState(self.inst, vehicles, list(self.is_open), self.remaining)

    def next_vehicle(self) -> int | None:
        """Feasible vehicle with minimum availability time, ties by index."""
        queue, vehicles = self._queue, self.vehicles
        while queue:
            available, k = queue[0]
            veh = vehicles[k]
            if not veh.infeasible and veh.available == available:
                return k
            heapq.heappop(queue)
        return None

    def commit(self, k: int, trip: Trip) -> None:
        """Append trip to vehicle k's route and credit the edges it covers."""
        veh = self.vehicles[k]
        # two additions, not one: the rounding decides availability ties
        if veh.trips:
            veh.available += self.inst.recharge_time
        veh.available += trip.duration
        veh.location = trip.nodes[-1]
        veh.trips.append(trip)
        heapq.heappush(self._queue, (veh.available, k))
        positions, is_open = self.inst.required_positions, self.is_open
        for e in trip.covered:
            for pos in positions[e]:
                if is_open[pos]:
                    is_open[pos] = False
                    self.remaining -= 1

    def solution(self) -> Solution:
        routes = tuple(Route(k, tuple(v.trips)) for k, v in enumerate(self.vehicles))
        return Solution(routes, worst_route_time(routes, self.inst.recharge_time),
                        tuple(self.uncovered))


def initial_fleet_state(inst: Instance) -> FleetState:
    vehicles = [VehicleState(location=inst.start_depot(k)) for k in range(inst.vehicles)]
    return FleetState(inst, vehicles, [True] * len(inst.required), len(inst.required))


def _edge_distance(tables: DistanceTables, src: int, e: RequiredEdge) -> float:
    """Cost from src to the nearer endpoint of e.

    The run from src is advanced only until the endpoint with the smaller
    tentative cost is settled: once that cost is final, the other endpoint
    is read only up to it, which settles nothing more.
    """
    costs = tables.run(src).costs
    first, second = (e.frm, e.to) if costs[e.frm] <= costs[e.to] else (e.to, e.frm)
    near = tables.distance(src, first)
    return min(near, tables.distance(src, second, near))


def closest_feasible_edge(state: FleetState, k: int, queues: TripQueues
                          ) -> tuple[RequiredEdge, Trip] | None:
    """Cheapest single-trip coverage of a remaining required edge by vehicle k.

    A candidate trip is shortest path to the edge tail, the edge itself, then
    shortest path from the head to the nearest depot; both orientations are
    tried for undirected edges.  Ties break on (duration, edge index,
    orientation).  `queues` must read the open flags of `state`.
    """
    location = state.vehicles[k].location
    top = queues.cheapest(location)
    if top is None:
        return None
    _, pos, _, tail, head = top
    # the run from location has settled tail, and the trip sums its duration
    # as the queue did
    return state.inst.required[pos], trip_from_walk(
        state.inst, *queues.tables.trip(location, [(tail, head)]))


def closest_feasible_depot(state: FleetState, k: int, target: RequiredEdge,
                           tables: DistanceTables) -> tuple[int, Trip] | None:
    """Reachable depot strictly closer to the target edge, best first.

    Closeness is shortest-path distance to the nearer endpoint of the target;
    ties break on the smaller depot id.  Returns None when no reachable depot
    improves on the vehicle's current distance.

    A reverse run from the target's endpoints selects the depots that might
    be strictly closer, nearest first.  Its sums round apart from forward
    ones, so the test and the key read each depot's forward distance, and
    the selection and the early stop keep a relative margin.
    """
    inst = state.inst
    veh = state.vehicles[k]
    limit = inst.capacity + EPS
    # every depot within reach is settled, with its walk; any other costs more
    run = tables.run(veh.location, limit)
    current = _edge_distance(tables, veh.location, target)
    reach = (current - EPS) * (1 + _ROUNDING)
    back = tables.reverse_run((target.frm, target.to), reach)
    depots = set(inst.depots)
    best = None
    for d in back.settled:
        nearest = back.costs[d]
        if nearest > reach or (best is not None and nearest > best[0] * (1 + _ROUNDING)):
            break
        if d not in depots or run.costs[d] > limit:
            continue
        # the vehicle's own depot is as close as current and fails the test
        dist = _edge_distance(tables, d, target)
        if dist < current - EPS and (best is None or (dist, d) < best):
            best = (dist, d)
    if best is None:
        return None
    depot = best[1]
    return depot, trip_from_walk(inst, *tables.trip(veh.location, (), depot))


def solve_multitrip(inst: Instance) -> Solution:
    """Run the constructive heuristic; partial coverage yields a partial Solution."""
    tables = DistanceTables(inst.graph, inst.depots)
    state = initial_fleet_state(inst)
    queues = TripQueues(inst, tables, state.is_open)
    # every covering trip closes an edge, and a vehicle's target changes only
    # when an edge closes; so between two closings each vehicle makes at most
    # |D| strictly-closer hops and one retirement.  More dispatches in a row
    # without a closing can only come from a bug, which the guard makes loud
    stall_limit = inst.vehicles * (len(inst.depots) + 1)
    remaining, stalled = state.remaining, 0
    while state.remaining:
        k = state.next_vehicle()
        if k is None:
            break
        if state.remaining < remaining:
            remaining, stalled = state.remaining, 0
        stalled += 1
        if stalled > stall_limit:
            raise RuntimeError("multi-trip heuristic failed to make progress")
        hit = closest_feasible_edge(state, k, queues)
        if hit is not None:
            state.commit(k, hit[1])
            continue
        veh = state.vehicles[k]
        if veh.target is None or not state.is_open[veh.target]:
            veh.target = _closest_uncovered(state, k, tables)
        move = closest_feasible_depot(state, k, inst.required[veh.target], tables)
        if move is None:
            veh.infeasible = True
            continue
        state.commit(k, move[1])
    return state.solution()


def _closest_uncovered(state: FleetState, k: int, tables: DistanceTables) -> int:
    """Position of the open edge nearest vehicle k, ties by position.

    The vehicle's run is advanced one cost level at a time until it settles
    an open endpoint.  Nodes are settled in cost order, so the first
    endpoint settled is a nearest one, and the advance that settled it
    settled every node of equal cost too.
    """
    first: dict[int, int] = {}  # open endpoint -> least open position at it
    for pos, (e, is_open) in enumerate(zip(state.inst.required, state.is_open)):
        if is_open:
            first.setdefault(e.frm, pos)
            first.setdefault(e.to, pos)
    src = state.vehicles[k].location
    run = tables.run(src)
    settled, seen = run.settled, 0
    while seen == len(settled) or settled[seen] not in first:
        if seen < len(settled):
            seen += 1
        elif run.frontier == math.inf:
            return min(first.values())  # no open edge is reachable
        else:
            tables.run(src, run.frontier)
    near = run.costs[settled[seen]]
    ties = itertools.takewhile(lambda u: run.costs[u] == near,
                               itertools.islice(settled, seen, None))
    return min(first[u] for u in ties if u in first)
