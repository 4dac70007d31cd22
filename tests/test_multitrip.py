"""Constructive multi-trip heuristic: fixtures, tie-breaks, subroutine oracles."""

import math

import pytest

from mdrpp import (
    Instance,
    RequiredEdge,
    WeightedGraph,
    check_feasibility,
    route_time,
    solve_multitrip,
)
from mdrpp.graph import DistanceTables, one_to_all, path_from_parents
from mdrpp import multitrip
from mdrpp.multitrip import (
    TripQueues,
    closest_feasible_depot,
    closest_feasible_edge,
    initial_fleet_state,
)
from mdrpp.solution import EPS, Trip, covered_by_walk, walk_cost

from conftest import (
    digest,
    grid_instance,
    integer_instance,
    reposition_instance,
    scaled_instance,
    tiny_corpus,
    trivial_instance,
    two_vehicle_instance,
)


def test_reposition_fixture_exact_trace():
    inst = reposition_instance()
    sol = solve_multitrip(inst)
    assert sol.complete
    assert sol.makespan == pytest.approx(11.6, abs=1e-9)
    trips = sol.routes[0].trips
    assert len(trips) == 2
    # repositioning trip to the closer depot, then the covering trip
    assert trips[0].nodes == (0, 1, 5)
    assert trips[0].duration == pytest.approx(3.8)
    assert covered_by_walk(inst, trips[0].nodes) == set()
    assert trips[1].nodes == (5, 1, 3, 5)
    assert trips[1].duration == pytest.approx(6.7)
    assert check_feasibility(inst, sol) == []


def test_reposition_fixture_direct_attempt_would_overflow():
    # covering the edge straight from the start depot costs 7.5 > capacity 7,
    # which is exactly why the heuristic must reposition first
    inst = reposition_instance()
    direct = walk_cost(inst, (0, 1, 3, 5))
    assert direct == pytest.approx(7.5)
    assert direct > inst.capacity


def test_two_vehicle_fixture_trace():
    inst = two_vehicle_instance()
    sol = solve_multitrip(inst)
    assert sol.complete
    assert sol.makespan == pytest.approx(18.8, abs=1e-9)
    v0, v1 = sol.routes
    assert [t.nodes for t in v0.trips] == [(0, 1, 4), (4, 7, 8, 4)]
    assert [t.nodes for t in v1.trips] == [(5, 6, 4)]
    assert route_time([t.duration for t in v0.trips], 9.0) == pytest.approx(18.8)
    assert route_time([t.duration for t in v1.trips], 9.0) == pytest.approx(5.4)
    assert check_feasibility(inst, sol) == []


def test_trivial_fixture_single_trip():
    inst = trivial_instance()
    sol = solve_multitrip(inst)
    assert sol.complete
    assert len(sol.routes[0].trips) == 1
    assert sol.makespan == pytest.approx(2.0)


def test_select_next_vehicle_tie_breaks():
    # availabilities are reached through commit, which the dispatch queue sees
    inst = two_vehicle_instance()
    state = initial_fleet_state(inst)
    state.commit(0, Trip(nodes=(0,), duration=5.0))
    state.commit(1, Trip(nodes=(5,), duration=3.2))
    assert state.next_vehicle() == 1
    state = initial_fleet_state(inst)
    state.commit(0, Trip(nodes=(0,), duration=4.0))
    state.commit(1, Trip(nodes=(5,), duration=4.0))
    assert state.next_vehicle() == 0      # index breaks the tie
    state.vehicles[0].infeasible = True
    assert state.next_vehicle() == 1
    state.vehicles[1].infeasible = True
    assert state.next_vehicle() is None


def test_vehicle_retired_on_a_state_is_dispatched_after_revival_on_its_copy():
    # construct_strike revives every vehicle on each trial copy of its fleet
    inst = two_vehicle_instance()
    state = initial_fleet_state(inst)
    state.commit(1, Trip(nodes=(5,), duration=2.0))
    state.vehicles[0].infeasible = True
    assert state.next_vehicle() == 1      # drops vehicle 0's entry
    trial = state.copy()
    trial.vehicles[0].infeasible = False
    assert trial.next_vehicle() == 0
    assert state.next_vehicle() == 1


def tables_for(inst):
    return DistanceTables(inst.graph, inst.depots)


def enumerate_best_trip(inst, location, edges=None):
    """Independent oracle: cheapest single trip from `location` covering one
    of `edges` (default: all required edges), as (duration, index in edges)."""
    costs, _ = one_to_all(inst.graph, location)
    best = None
    for idx, e in enumerate(inst.required if edges is None else edges):
        orients = [(e.frm, e.to)] if e.directed else [(e.frm, e.to), (e.to, e.frm)]
        for tail, head in orients:
            w = inst.graph.min_weight(tail, head)
            if w is None:
                continue
            back, _ = one_to_all(inst.graph, head)
            ret = min(back[d] for d in inst.depots)
            total = costs[tail] + w + ret
            if total <= inst.capacity + 1e-9:
                key = (total, idx)
                if best is None or key < best:
                    best = key
    return best


def test_closest_feasible_edge_matches_enumeration():
    checked = 0
    for inst in tiny_corpus(25):
        state = initial_fleet_state(inst)
        k = 0
        expected = enumerate_best_trip(inst, state.vehicles[k].location)
        got = closest_feasible_edge(state, k, TripQueues(inst, tables_for(inst), state.is_open))
        if expected is None:
            assert got is None
            continue
        edge, trip = got
        assert trip.duration == pytest.approx(expected[0], abs=1e-9)
        assert inst.required.index(edge) == expected[1]
        assert trip.nodes[0] == state.vehicles[k].location
        assert trip.nodes[-1] in inst.depots
        assert trip.duration <= inst.capacity + 1e-9
        assert walk_cost(inst, trip.nodes) == pytest.approx(trip.duration)
        checked += 1
    assert checked >= 10


def test_closest_feasible_edge_matches_enumeration_mid_solve():
    # one solve's tables and trip queues serve every call, so the queues see
    # covered edges dropped lazily and runs resumed after repositioning rows
    checked = 0
    for inst in tiny_corpus(60):
        tables = tables_for(inst)
        state = initial_fleet_state(inst)
        queues = TripQueues(inst, tables, state.is_open)
        while state.uncovered:
            k = state.next_vehicle()
            if k is None:
                break
            location = state.vehicles[k].location
            expected = enumerate_best_trip(inst, location, state.uncovered)
            got = closest_feasible_edge(state, k, queues)
            if got is None:
                assert expected is None
                move = closest_feasible_depot(state, k, state.uncovered[0], tables)
                if move is None:
                    state.vehicles[k].infeasible = True
                else:
                    state.commit(k, move[1])
                continue
            edge, trip = got
            assert trip.duration == pytest.approx(expected[0], abs=1e-9)
            assert edge == state.uncovered[expected[1]]
            assert trip.nodes[0] == location
            assert trip.nodes[-1] in inst.depots
            assert walk_cost(inst, trip.nodes) == pytest.approx(trip.duration)
            assert edge in (inst.required[pos] for pos in covered_by_walk(inst, trip.nodes))
            state.commit(k, trip)
            checked += 1
    assert checked >= 100


def test_closest_feasible_depot_properties():
    inst = reposition_instance()
    state = initial_fleet_state(inst)
    target = inst.required[0]
    tables = tables_for(inst)
    got = closest_feasible_depot(state, 0, target, tables)
    assert got is not None
    depot, trip = got
    assert depot == 5
    assert trip.nodes == (0, 1, 5)
    assert trip.duration == pytest.approx(3.8)
    # once at depot 5 no strictly closer depot remains
    state.vehicles[0].location = 5
    assert closest_feasible_depot(state, 0, target, tables) is None


def test_closest_feasible_depot_keeps_a_depot_whose_reverse_sum_rounds_up():
    # from depot 1 to node 5, the forward sum ((2.8 + 2.4) + 2.6) + 2.3 is
    # 10.099999999999998, strictly closer than the vehicle's 10.100000001 less
    # EPS (10.1); the reverse sum 2.3 + 2.6 + 2.4 + 2.8 is 10.100000000000001
    g = WeightedGraph(7, [
        (0, 1, 1.0), (1, 0, 1.0), (0, 5, 10.100000001), (5, 0, 50.0),
        (1, 2, 2.8), (2, 3, 2.4), (3, 4, 2.6), (4, 5, 2.3),
        (2, 1, 50.0), (3, 2, 50.0), (4, 3, 50.0), (5, 4, 50.0), (5, 6, 1.0), (6, 5, 1.0),
    ])
    inst = Instance(graph=g, depots=(0, 1), required=(RequiredEdge(5, 6),), vehicles=1,
                    capacity=5.0, recharge_time=1.0, start_depots=(0,))
    state = initial_fleet_state(inst)
    tables = tables_for(inst)
    assert tables.reverse_run((5, 6), math.inf).costs[1] == 10.100000000000001
    got = closest_feasible_depot(state, 0, inst.required[0], tables)
    assert got is not None
    assert got[0] == 1
    assert got[1].nodes == (0, 1)


def test_closest_feasible_depot_strictly_closer_enumeration():
    for inst in tiny_corpus(20):
        state = initial_fleet_state(inst)
        tables = tables_for(inst)
        veh = state.vehicles[0]
        costs, _ = one_to_all(inst.graph, veh.location)
        for target in inst.required:
            got = closest_feasible_depot(state, 0, target, tables)
            here = min(costs[target.frm], costs[target.to])
            if got is None:
                continue
            depot, trip = got
            dcosts, _ = one_to_all(inst.graph, depot)
            assert min(dcosts[target.frm], dcosts[target.to]) < here + 1e-9
            assert trip.duration <= inst.capacity + 1e-9
            assert costs[depot] == pytest.approx(trip.duration)


def test_solver_feasible_on_corpus():
    complete = 0
    for inst in tiny_corpus(40):
        sol = solve_multitrip(inst)
        if sol.complete:
            complete += 1
            assert check_feasibility(inst, sol) == []
        else:
            assert sol.uncovered
    assert complete >= 20


def test_solver_is_deterministic():
    for inst in tiny_corpus(6):
        a = solve_multitrip(inst)
        b = solve_multitrip(inst)
        assert a.makespan == b.makespan
        assert [t.nodes for r in a.routes for t in r.trips] == \
               [t.nodes for r in b.routes for t in r.trips]


def test_incidental_coverage_is_credited():
    # covering (0, 1) returns to the cheaper depot 2 via edge (1, 2), so the
    # single walk 0-1-2 must be credited with both required edges
    from conftest import undirected_graph
    from mdrpp import Instance

    g = undirected_graph(3, [(0, 1, 1.0), (1, 2, 0.9)])
    inst = Instance(graph=g, depots=(0, 2),
                    required=(RequiredEdge(0, 1), RequiredEdge(1, 2)),
                    vehicles=1, capacity=10.0, recharge_time=1.0, start_depots=(0,))
    sol = solve_multitrip(inst)
    assert sol.complete
    assert len(sol.routes[0].trips) == 1
    assert sol.routes[0].trips[0].nodes == (0, 1, 2)
    assert sol.makespan == pytest.approx(1.9)


def test_partial_result_when_vehicle_cannot_reach_edge():
    from conftest import undirected_graph
    from mdrpp import Instance, WeightedGraph

    # disconnected component holds the required edge
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(2, 3),),
                    vehicles=1, capacity=10.0, recharge_time=1.0, start_depots=(0,))
    sol = solve_multitrip(inst)
    assert not sol.complete
    assert sol.uncovered == (RequiredEdge(2, 3),)


def test_equal_required_edges_close_together_and_stay_listed():
    from mdrpp import Instance, WeightedGraph

    # (2, 3) lies on an island that no vehicle can reach
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
    dup, island = RequiredEdge(0, 1), RequiredEdge(2, 3)
    # an equal copy, and the same undirected edge listed the other way round
    for copy in (dup, RequiredEdge(1, 0)):
        inst = Instance(graph=g, depots=(0,), required=(dup, island, copy),
                        vehicles=1, capacity=10.0, recharge_time=1.0, start_depots=(0,))
        state = initial_fleet_state(inst)
        assert state.uncovered == [dup, island, copy]
        trial = state.copy()
        edge, trip = closest_feasible_edge(trial, 0, TripQueues(inst, tables_for(inst),
                                                                trial.is_open))
        assert edge == dup
        trial.commit(0, trip)
        assert trial.uncovered == [island]
        assert trial.remaining == 1
        # the copy's commit leaves the original untouched
        assert state.uncovered == [dup, island, copy]
        assert state.remaining == 3
        assert state.vehicles[0].trips == []

    inst = Instance(graph=g, depots=(0,), required=(island, dup, island),
                    vehicles=1, capacity=10.0, recharge_time=1.0, start_depots=(0,))
    sol = solve_multitrip(inst)
    assert sol.uncovered == (island, island)


def test_closest_feasible_edge_matches_enumeration_with_equal_durations():
    # durations are sums of integers, so they are exact and ties are decided
    # by the position in the uncovered list alone
    checked = ties = 0
    for seed in range(60):
        inst = integer_instance(seed)
        tables = tables_for(inst)
        state = initial_fleet_state(inst)
        queues = TripQueues(inst, tables, state.is_open)
        while state.remaining:
            k = state.next_vehicle()
            if k is None:
                break
            uncovered = state.uncovered
            expected = enumerate_best_trip(inst, state.vehicles[k].location, uncovered)
            got = closest_feasible_edge(state, k, queues)
            if got is None:
                assert expected is None
                move = closest_feasible_depot(state, k, uncovered[0], tables)
                if move is None:
                    state.vehicles[k].infeasible = True
                else:
                    state.commit(k, move[1])
                continue
            edge, trip = got
            assert trip.duration == expected[0]
            assert edge == uncovered[expected[1]]
            rest = uncovered[:expected[1]] + uncovered[expected[1] + 1:]
            runner_up = enumerate_best_trip(inst, state.vehicles[k].location, rest)
            ties += runner_up is not None and runner_up[0] == expected[0]
            state.commit(k, trip)
            checked += 1
    assert checked >= 100
    assert ties >= 20


def test_progress_guard_fires_within_the_stall_bound(monkeypatch):
    # a dispatch that closes no edge, over and over: the guard must stop the
    # solve after K·(|D|+1) such dispatches in a row, one call of slack
    calls = 0

    def covers_nothing(state, k, queues):
        nonlocal calls
        calls += 1
        location = state.vehicles[k].location
        return state.inst.required[0], Trip(nodes=(location,), duration=1.0)

    monkeypatch.setattr(multitrip, "closest_feasible_edge", covers_nothing)
    for inst in (reposition_instance(), two_vehicle_instance(), *tiny_corpus(5)):
        calls = 0
        with pytest.raises(RuntimeError, match="failed to make progress"):
            solve_multitrip(inst)
        assert calls <= inst.vehicles * (len(inst.depots) + 1) + 1


def test_repositioning_matches_full_rows_mid_solve(monkeypatch):
    # every repositioning call of a solve must give what the rule gives on
    # complete Dijkstra rows: the nearest open edge by (distance, position),
    # and the reachable, strictly closer depot by (distance, depot id)
    rows = {}

    def row(inst, src):
        # the entry holds inst, so no later instance can reuse its id
        if (id(inst), src) not in rows:
            rows[id(inst), src] = inst, one_to_all(inst.graph, src)
        return rows[id(inst), src][1]

    def nearest(costs, e):
        return min(costs[e.frm], costs[e.to])

    calls = {"edge": 0, "depot": 0, "moves": 0}
    edge_search, depot_search = multitrip._closest_uncovered, multitrip.closest_feasible_depot

    def checked_edge(state, k, tables):
        costs = row(state.inst, state.vehicles[k].location)[0]
        expected = min((nearest(costs, e), pos) for pos, e in enumerate(state.inst.required)
                       if state.is_open[pos])[1]
        got = edge_search(state, k, tables)
        assert got == expected
        calls["edge"] += 1
        return got

    def checked_depot(state, k, target, tables):
        inst, location = state.inst, state.vehicles[k].location
        costs, parents = row(inst, location)
        current = nearest(costs, target)
        best = None
        for d in sorted(set(inst.depots)):
            if d == location or costs[d] > inst.capacity + EPS:
                continue
            dist = nearest(row(inst, d)[0], target)
            if dist < current - EPS and (best is None or (dist, d) < best):
                best = (dist, d)
        got = depot_search(state, k, target, tables)
        calls["depot"] += 1
        if best is None:
            assert got is None
            return got
        depot = best[1]
        assert got[0] == depot
        assert got[1].nodes == path_from_parents(parents, location, depot)
        assert got[1].duration == costs[depot]
        calls["moves"] += 1
        return got

    monkeypatch.setattr(multitrip, "_closest_uncovered", checked_edge)
    monkeypatch.setattr(multitrip, "closest_feasible_depot", checked_depot)
    for inst in [integer_instance(seed) for seed in range(60)]:
        solve_multitrip(inst)
    small = dict(calls)
    solve_multitrip(scaled_instance(230, 440, 1, "A"))
    # calls made: 41 and 45 (7 moves) on the integer instances, 77 and 105
    # (32 moves) on the set-A instance
    assert small["edge"] >= 40 and small["depot"] >= 40 and small["moves"] >= 5
    assert calls["edge"] - small["edge"] >= 70 and calls["moves"] - small["moves"] >= 30


# digest of the mt output on seed-1 grids, by side
PINNED_GRID_MT = {15: "fab0fe4aacdfb255", 20: "dd9cdb6907e1722c", 30: "df4434a9856020be"}


@pytest.mark.parametrize("side", sorted(PINNED_GRID_MT))
def test_mt_output_is_pinned_on_grids(side):
    inst = grid_instance(side, 1)
    assert digest(inst, solve_multitrip(inst)) == PINNED_GRID_MT[side]
