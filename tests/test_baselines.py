"""Comparison heuristics: path scanning, augment-merge, construct-strike."""

import itertools
import math

import pytest

from mdrpp import (
    Instance,
    RequiredEdge,
    augment_merge,
    check_feasibility,
    construct_strike,
    path_scanning,
    solve_exact,
    solve_multitrip,
)
from mdrpp import baselines
from mdrpp.graph import DistanceTables, path_from_parents
from mdrpp.multitrip import initial_fleet_state
from mdrpp.solution import EPS, Trip, covered_by_walk, trip_from_walk

from conftest import (
    digest,
    grid_instance,
    integer_instance,
    scaled_instance,
    tiny_corpus,
    trivial_instance,
    two_vehicle_instance,
    undirected_graph,
)

ALL = (path_scanning, augment_merge, construct_strike)


@pytest.mark.parametrize("solver", ALL, ids=["ps", "am", "cs"])
def test_trivial_instance_solved(solver):
    inst = trivial_instance()
    sol = solver(inst)
    assert not isinstance(sol, str)
    assert check_feasibility(inst, sol) == []
    assert sol.makespan == pytest.approx(2.0)


@pytest.mark.parametrize("solver", ALL, ids=["ps", "am", "cs"])
def test_solved_outputs_are_feasible_on_corpus(solver):
    solved = 0
    for inst in tiny_corpus(40):
        out = solver(inst)
        if isinstance(out, str):
            assert out
        else:
            solved += 1
            assert check_feasibility(inst, out) == []
    assert solved >= 10


def test_heuristics_never_beat_the_oracle():
    for inst in tiny_corpus(30):
        sols = [out for out in (path_scanning(inst), augment_merge(inst),
                                construct_strike(inst)) if not isinstance(out, str)]
        if not sols:
            continue
        f_cap = max([3] + [len(r.trips) for s in sols for r in s.routes])
        out = solve_exact(inst, f_cap=f_cap, max_edges_per_trip=len(inst.required))
        assert out is not None
        for s in sols:
            assert s.makespan >= out[0].makespan - 1e-9


def test_path_scanning_keeps_the_best_criterion():
    # path_scanning returns the lowest-makespan complete result of the five
    # criteria, the lower criterion on ties, or the reason when none completes
    unsolved = ties = later = 0
    for inst in tiny_corpus(30):
        complete = []
        for criterion in range(baselines.CRITERIA):
            tables = DistanceTables(inst.graph, inst.start_depots)
            state = initial_fleet_state(inst)
            baselines._scan_full(tables, baselines._candidates(tables, inst), state,
                                 criterion, {})
            if not state.remaining:
                sol = state.solution()
                complete.append((sol.makespan, criterion, sol))
        got = path_scanning(inst)
        if not complete:
            assert got == "no criterion covered every required edge", inst.name
            unsolved += 1
            continue
        best = min(complete, key=lambda c: c[:2])
        assert got == best[2], inst.name
        ties += any(c[0] == best[0] and c[2] != best[2] for c in complete)
        later += best[1] > 0
    # 13 Unsolved, 9 equal makespans from different plans, 3 won by criterion > 0
    assert unsolved >= 10
    assert ties >= 5
    assert later >= 2


def test_path_scanning_cannot_reposition():
    # the two-vehicle fixture needs a repositioning move, which plain greedy
    # trip chaining lacks; the result must be Unsolved, not an exception
    out = path_scanning(two_vehicle_instance())
    assert isinstance(out, str) and out


def test_path_scanning_is_deterministic():
    for inst in tiny_corpus(8):
        assert path_scanning(inst) == path_scanning(inst)


def test_augment_merge_single_edge_round_trip():
    # augment alone suffices: one required edge, one vehicle
    g = undirected_graph(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(1, 2),),
                    vehicles=1, capacity=20.0, recharge_time=1.0, start_depots=(0,))
    sol = augment_merge(inst)
    # cheapest anchored round trip: 0-1-2 (5.0) back over 2-0 (4.0)
    assert sol.makespan == pytest.approx(9.0)


def test_augment_merge_merges_same_depot_routes():
    # two adjacent required edges from one depot merge into a single trip
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 5.0)])
    inst = Instance(graph=g, depots=(0,),
                    required=(RequiredEdge(0, 1), RequiredEdge(1, 2)),
                    vehicles=1, capacity=3.5, recharge_time=10.0, start_depots=(0,))
    sol = augment_merge(inst)
    # separate trips would cost 3 + 10 + 3; the merged tour 0-1-2-0 costs 3
    assert sol.makespan == pytest.approx(3.0)
    assert len(sol.routes[0].trips) == 1


def test_construct_strike_unsolved_is_reported_not_raised():
    found = next((out for out in map(construct_strike, tiny_corpus(60))
                  if isinstance(out, str)), None)
    assert found, "expected at least one Unsolved outcome"


def test_construct_strike_artificial_edges_are_spliced():
    # striking the only bridge forces an artificial edge; the emitted walk
    # must still be a real walk in the original graph
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    inst = Instance(graph=g, depots=(0,),
                    required=(RequiredEdge(1, 2), RequiredEdge(1, 3)),
                    vehicles=1, capacity=8.0, recharge_time=1.0, start_depots=(0,))
    out = construct_strike(inst)
    if not isinstance(out, str):
        assert check_feasibility(inst, out) == []


# digest of each solver's output on tiny_corpus(20)
PINNED_OUTPUTS = {
    "mt": """
        c7248ff6ba71d65d 7e3214752ba91c0a f04cfef827ba4e7a 4393c032ec4bd753
        c9909d0b98eb41ab a7a63a6b075c7629 b1cc285ed98649fe f119465811203862
        b580f5e19178aec2 ba217351384ee55d 48b3c1c219719c47 4949ae1e1d214922
        86c3744d90eb573d 65d3c25db8418eb1 f988e5e378052e2f f291d854a3e9907b
        93a3002cab20aec3 81d901706b89c447 5fa8cb1780bfce72 93b6cbce6d5780c9""",
    "ps": """
        0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94
        80c65adca8229f81 8dd0b649f73bd58b 0acf9e30079f6a94 51bb05d074e0fbba
        2650c9002d8b3b9b 11a3e7ab56e0b0ab 50abb9d529dd0928 643a99cc60a4f8b0
        a2144826a234fdc4 1fdbe8d59f5c006b 6933e17b937e8f83 0acf9e30079f6a94
        9afa42ac420de33d 28cb29e802a1724d 0acf9e30079f6a94 ee1269ec6960e2f6""",
    "am": """
        d3a7203d5934212c 53e36aaad7392fe1 4cbac93639e6a9c6 998ec13f7677f786
        687152c9d0a6a5b6 01b98291955035b8 11496865739e1646 2df7afcf774f5ab9
        f604902e5cc0e246 c66123076b4a437e f36dcadce9e593a9 c0cf528522a0a667
        7846d0e56d4587f2 3d2ecff333f72633 6933e17b937e8f83 a22b2894e695427e
        178888151aff0977 c69d03991fd83f4c 2d61daf286125a60 47d68a9a1a578041""",
    "cs": """
        ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c
        80c65adca8229f81 8dd0b649f73bd58b ee54ed324962cd3c 51bb05d074e0fbba
        2650c9002d8b3b9b 11a3e7ab56e0b0ab 50abb9d529dd0928 643a99cc60a4f8b0
        a2144826a234fdc4 1fdbe8d59f5c006b 6933e17b937e8f83 ee54ed324962cd3c
        9afa42ac420de33d 28cb29e802a1724d ee54ed324962cd3c ee1269ec6960e2f6""",
}


@pytest.mark.parametrize("alg", sorted(PINNED_OUTPUTS))
def test_outputs_are_pinned_on_corpus(alg):
    solver = {"mt": solve_multitrip, "ps": path_scanning, "am": augment_merge,
              "cs": construct_strike}[alg]
    got = [digest(inst, solver(inst)) for inst in tiny_corpus(20)]
    assert got == PINNED_OUTPUTS[alg].split()


# digest of the mt output on scaled instances: (nodes, edges, seed, set kind)
# -> digest.  The set-A instance repositions vehicles and ends with a partial
# solution.
PINNED_SCALED_MT = {
    (461, 879, 1, "B"): "9662dbe545d8045a",
    (230, 440, 1, "A"): "6adaefa70c7fd9e2",
    (922, 1758, 1, "B"): "bf78dd0b07ce9e27",
}


@pytest.mark.parametrize("spec", sorted(PINNED_SCALED_MT), ids=str)
def test_mt_output_is_pinned_on_scaled_instances(spec):
    inst = scaled_instance(*spec)
    assert digest(inst, solve_multitrip(inst)) == PINNED_SCALED_MT[spec]


def test_cs_output_is_pinned_where_trial_copies_revive_vehicles():
    # construct_strike revives retired vehicles on each criterion's copy of
    # the fleet.  No instance is known on which that decides the output:
    # deleting the revival changed none on tiny_corpus(10000),
    # integer_instance(0..9999), the mid-ladder recipe at seeds 0..299 and
    # the 230-node sets at seeds 1..40.  This instance stands in for one,
    # with its output pinned
    inst = tiny_corpus(1, offset=169)[0]
    assert inst.name == "C-n6-e8-s169"
    out = construct_strike(inst)
    assert out == "no progress after striking"
    assert digest(inst, out) == "ee54ed324962cd3c"


def test_cs_return_arc_is_its_own_shortest_path():
    # on these asymmetric set-C graphs the way back along an artificial arc
    # costs more than the way out, so a plan that priced it as the way out
    # would understate a trip past the capacity
    for seed in (169, 274, 414):
        inst = tiny_corpus(1, offset=seed)[0]
        out = construct_strike(inst)
        assert isinstance(out, str) or check_feasibility(inst, out) == []


# digest of the ps, am and cs outputs on the seed-1 230-node instances, by set
# kind.  On set A, every ps criterion leaves edges uncovered, am finds an edge
# out of reach and cs reports that striking made no progress.
PINNED_SCALED_BASELINES = {
    "A": {"ps": "0acf9e30079f6a94", "am": "9e27efbff22bb259", "cs": "ee54ed324962cd3c"},
    "B": {"ps": "360e04ef26cd9b95", "am": "268f2e4032d14b76", "cs": "360e04ef26cd9b95"},
    "C": {"ps": "b841eddc8d677d93", "am": "ad46f4949b2b2f59", "cs": "b841eddc8d677d93"},
}


@pytest.mark.parametrize("kind", sorted(PINNED_SCALED_BASELINES))
def test_baselines_output_is_pinned_on_scaled_instances(kind):
    inst = scaled_instance(230, 440, 1, kind)
    got = {alg: digest(inst, solver(inst))
           for alg, solver in (("ps", path_scanning), ("am", augment_merge),
                               ("cs", construct_strike))}
    assert got == PINNED_SCALED_BASELINES[kind]


# digest of the ps, am and cs outputs on seed-1 grids, by side: bounded runs
# stop shortest of full rows on these large-diameter graphs
PINNED_GRID_BASELINES = {
    15: {"ps": "9f1b069c91480368", "am": "e42b37eef87889e8", "cs": "9f1b069c91480368"},
    20: {"ps": "1ec75de7956989f3", "am": "9c3aae643c9ab537", "cs": "1ec75de7956989f3"},
    30: {"ps": "d97512c1d4d84357", "am": "8e28060986be0db0", "cs": "d97512c1d4d84357"},
}


@pytest.mark.parametrize("side", sorted(PINNED_GRID_BASELINES))
def test_baselines_output_is_pinned_on_grids(side):
    inst = grid_instance(side, 1)
    got = {alg: digest(inst, solver(inst))
           for alg, solver in (("ps", path_scanning), ("am", augment_merge),
                               ("cs", construct_strike))}
    assert got == PINNED_GRID_BASELINES[side]


def _reference_trip(tables, inst, start, uncovered, criterion, artificial, seen):
    """Brute-force trip builder: complete Dijkstra rows, coverage of the whole
    walk so far and a filtered list of uncovered edges.  Counts in `seen` the
    steps whose best key is shared by another candidate, and those whose leg
    and return fill the capacity exactly."""
    cur = start
    used = 0.0
    walk = (start,)
    while True:
        costs, parents = tables.row(cur)
        options = []
        for idx, e in enumerate(uncovered):
            for orient, (tail, head) in enumerate(e.orientations()):
                w = tables.graph.min_weight(tail, head)
                if w is None:
                    continue
                deadhead = costs[tail]
                ret = tables.to_depot_cost[head]
                total = used + deadhead + w + ret
                if total > inst.capacity + EPS:
                    continue
                key = (deadhead, -ret, ret, deadhead + w, -(deadhead + w))[criterion]
                options.append(((key, idx, orient), tail, head, deadhead + w, total))
        if not options:
            break
        best = min(options)
        seen["ties"] += sum(o[0][0] == best[0][0] for o in options) > 1
        seen["at_capacity"] += best[4] == inst.capacity
        _, tail, head, serve, _ = best
        walk = walk + path_from_parents(parents, cur, tail)[1:] + (head,)
        used += serve
        cur = head
        touched = covered_by_walk(inst, walk)
        uncovered = [e for e in uncovered if e not in touched]
    if cur == start and len(walk) == 1:
        return None
    walk = walk + tables.return_walk(cur)[1:]
    duration = used + tables.to_depot_cost[cur]
    real = baselines._splice(walk, artificial)
    return Trip(nodes=real, duration=duration,
                covered=tuple(sorted(covered_by_walk(inst, real))))


def test_build_trip_matches_brute_force_reference(monkeypatch):
    # every trip that ps and cs build, mid-solve and for all five criteria,
    # equals the brute-force one; the reference gets its own tables, so the
    # builder's capacity-bounded runs are resumed only by the builder
    build_trip = baselines._build_trip
    reference_tables = {}
    seen = {"trips": 0, "ties": 0, "at_capacity": 0}

    def checked(tables, candidates, inst, start, is_open, criterion, artificial):
        before = list(is_open)
        trip = build_trip(tables, candidates, inst, start, is_open, criterion, artificial)
        assert is_open == before
        if tables not in reference_tables:
            reference_tables[tables] = DistanceTables(tables.graph, inst.start_depots)
        uncovered = [e for e, flag in zip(inst.required, is_open) if flag]
        assert trip == _reference_trip(reference_tables[tables], inst, start, uncovered,
                                       criterion, artificial, seen)
        seen["trips"] += trip is not None
        return trip

    monkeypatch.setattr(baselines, "_build_trip", checked)
    for inst in [*tiny_corpus(60), *(integer_instance(seed) for seed in range(60))]:
        path_scanning(inst)
        construct_strike(inst)
    # 1942 trips, 1196 steps with an equal best key, 544 filling the capacity
    assert seen["trips"] >= 1500
    assert seen["ties"] >= 800
    assert seen["at_capacity"] >= 400


def _reference_augment_merge(inst, seen):
    """Augment-merge on complete Dijkstra rows: every anchor for every edge,
    and a merge loop that re-sorts the routes by (-cost, depot) and rescans
    every pair after each merge.  Counts in `seen` the merge rounds and those
    whose sorted routes share a (-cost, depot) key, where the sort's
    stability (so the creation order) decides."""
    anchors = sorted(set(inst.start_depots))
    tables = DistanceTables(inst.graph, anchors)
    limit = inst.capacity + EPS

    def chain_cost(depot, legs):
        total = 0.0
        pos = depot
        for tail, head in legs:
            total += tables.row(pos)[0][tail] + inst.graph.min_weight(tail, head)
            pos = head
        return total + tables.row(pos)[0][depot]

    routes = []
    for created, e in enumerate(inst.required):
        best = None
        for d in anchors:
            for tail, head in e.orientations():
                w = inst.graph.min_weight(tail, head)
                if w is None:
                    continue
                cost = tables.row(d)[0][tail] + w + tables.row(head)[0][d]
                if cost <= limit and (best is None or cost < best[0]):
                    best = (cost, d, (tail, head))
        if best is None:
            return f"required edge ({e.frm},{e.to}) unreachable within capacity"
        routes.append((best[1], [best[2]], best[0], created))
    created = len(routes)
    merged = True
    while merged:
        merged = False
        routes.sort(key=lambda r: (-r[2], r[0]))
        seen["rounds"] += 1
        seen["tied"] += len({(r[2], r[0]) for r in routes}) < len(routes)
        for i, j in itertools.permutations(range(len(routes)), 2):
            (depot, legs_i, cost_i, _), (other, legs_j, cost_j, _) = routes[i], routes[j]
            if depot != other:
                continue
            for legs in (legs_i + legs_j, legs_j + legs_i):
                cost = chain_cost(depot, legs)
                if cost <= limit and cost < cost_i + cost_j - EPS:
                    routes = [r for k, r in enumerate(routes) if k not in (i, j)]
                    routes.append((depot, legs, cost, created))
                    created += 1
                    merged = True
                    break
            if merged:
                break

    state = initial_fleet_state(inst)
    for depot, legs, cost, _ in sorted(routes, key=lambda r: (-r[2], r[0], r[1])):
        walk = (depot,)
        for tail, head in legs:
            walk = walk + path_from_parents(tables.row(walk[-1])[1], walk[-1], tail)[1:] + (head,)
        walk = walk + path_from_parents(tables.row(walk[-1])[1], walk[-1], depot)[1:]
        k = min((state.vehicles[k].available, k) for k in range(inst.vehicles)
                if inst.start_depot(k) == depot)[1]
        state.commit(k, trip_from_walk(inst, walk, cost))
    return state.solution()


def test_augment_merge_matches_full_row_reference():
    seen = {"rounds": 0, "tied": 0}
    corpus = [*tiny_corpus(60), *(integer_instance(seed) for seed in range(60)),
              scaled_instance(230, 440, 1, "B"), scaled_instance(230, 440, 1, "C")]
    for inst in corpus:
        assert augment_merge(inst) == _reference_augment_merge(inst, seen), inst.name
    # 308 merge rounds, 121 of them with routes that share a (-cost, depot) key
    assert seen["rounds"] >= 250
    assert seen["tied"] >= 100


def test_build_trip_keeps_a_trip_at_the_limit_up_to_rounding():
    # after serving (0,1) the last tail, node 3, lies one ulp past
    # limit - used, yet the trip passes the capacity test once summed; node 2
    # lies as far and node 3 is reached through it by a zero-weight edge, so
    # only the EPS margin of the run's bound gives node 3 its true cost
    used = 0.25
    limit = 1.0 + EPS
    far = math.nextafter(limit - used, math.inf)
    assert used + far <= limit
    g = undirected_graph(5, [(0, 1, used), (1, 2, far), (2, 3, 0.0), (1, 3, 1.5),
                             (3, 4, 0.0)])
    inst = Instance(graph=g, depots=(0, 4), required=(RequiredEdge(0, 1), RequiredEdge(3, 4)),
                    vehicles=2, capacity=1.0, recharge_time=1.0, start_depots=(0, 4))
    tables = DistanceTables(inst.graph, inst.start_depots)
    trip = baselines._build_trip(tables, baselines._candidates(tables, inst), inst, 0,
                                 [True, True], 0, {})
    assert trip.nodes == (0, 1, 2, 3, 4)
    assert trip.covered == tuple(sorted(inst.required))
