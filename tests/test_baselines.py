"""Comparison heuristics: path scanning, augment-merge, construct-strike."""

import hashlib

import pytest

from mdrpp import (
    GenSpec,
    Instance,
    RequiredEdge,
    augment_merge,
    check_feasibility,
    construct_strike,
    generate_instance,
    path_scanning,
    random_connected_graph,
    solve_exact,
    solve_multitrip,
    write_solution,
)

from conftest import (
    tiny_corpus,
    trivial_instance,
    two_vehicle_instance,
    undirected_graph,
)

ALL = (path_scanning, augment_merge, construct_strike)


@pytest.mark.parametrize("solver", ALL, ids=["ps", "am", "cs"])
def test_trivial_instance_solved(solver):
    inst = trivial_instance()
    res = solver(inst)
    assert res.solved
    assert check_feasibility(inst, res.outcome) == []
    assert res.outcome.makespan == pytest.approx(2.0)


@pytest.mark.parametrize("solver", ALL, ids=["ps", "am", "cs"])
def test_solved_outputs_are_feasible_on_corpus(solver):
    solved = 0
    for inst in tiny_corpus(40):
        res = solver(inst)
        if res.solved:
            solved += 1
            assert check_feasibility(inst, res.outcome) == []
        else:
            assert res.reason
    assert solved >= 10


def test_heuristics_never_beat_the_oracle():
    for inst in tiny_corpus(30):
        sols = [r.outcome for r in (path_scanning(inst), augment_merge(inst),
                                    construct_strike(inst)) if r.solved]
        if not sols:
            continue
        f_cap = max([3] + [len(r.trips) for s in sols for r in s.routes])
        out = solve_exact(inst, f_cap=f_cap, max_edges_per_trip=len(inst.required))
        assert out is not None
        for s in sols:
            assert s.makespan >= out[0].makespan - 1e-9


def test_path_scanning_reports_winning_criterion():
    res = path_scanning(trivial_instance())
    assert res.solved
    assert res.criterion_used in range(5)


def test_path_scanning_cannot_reposition():
    # the two-vehicle fixture needs a repositioning move, which plain greedy
    # trip chaining lacks; the result must be Unsolved, not an exception
    res = path_scanning(two_vehicle_instance())
    assert not res.solved
    assert res.reason


def test_path_scanning_is_deterministic():
    for inst in tiny_corpus(8):
        a, b = path_scanning(inst), path_scanning(inst)
        assert a.solved == b.solved
        if a.solved:
            assert a.outcome.makespan == b.outcome.makespan
            assert a.criterion_used == b.criterion_used


def test_augment_merge_single_edge_round_trip():
    # augment alone suffices: one required edge, one vehicle
    g = undirected_graph(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(1, 2),),
                    vehicles=1, capacity=20.0, recharge_time=1.0, start_depots=(0,))
    res = augment_merge(inst)
    assert res.solved
    # cheapest anchored round trip: 0-1-2 (5.0) back over 2-0 (4.0)
    assert res.outcome.makespan == pytest.approx(9.0)


def test_augment_merge_merges_same_depot_routes():
    # two adjacent required edges from one depot merge into a single trip
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 5.0)])
    inst = Instance(graph=g, depots=(0,),
                    required=(RequiredEdge(0, 1), RequiredEdge(1, 2)),
                    vehicles=1, capacity=3.5, recharge_time=10.0, start_depots=(0,))
    res = augment_merge(inst)
    assert res.solved
    # separate trips would cost 3 + 10 + 3; the merged tour 0-1-2-0 costs 3
    assert res.outcome.makespan == pytest.approx(3.0)
    assert len(res.outcome.routes[0].trips) == 1


def test_construct_strike_unsolved_is_reported_not_raised():
    found = None
    for inst in tiny_corpus(60):
        res = construct_strike(inst)
        if not res.solved:
            found = res
            break
    assert found is not None, "expected at least one Unsolved outcome"
    assert found.outcome is None
    assert isinstance(found.reason, str) and found.reason


def test_construct_strike_artificial_edges_are_spliced():
    # striking the only bridge forces an artificial edge; the emitted walk
    # must still be a real walk in the original graph
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    inst = Instance(graph=g, depots=(0,),
                    required=(RequiredEdge(1, 2), RequiredEdge(1, 3)),
                    vehicles=1, capacity=8.0, recharge_time=1.0, start_depots=(0,))
    res = construct_strike(inst)
    if res.solved:
        assert check_feasibility(inst, res.outcome) == []


# sha256 (first 16 hex digits) of each solver's output on tiny_corpus(20):
# the write_solution text, or the Unsolved reason
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
    got = []
    for inst in tiny_corpus(20):
        if alg == "mt":
            text = write_solution(inst, solve_multitrip(inst))
        else:
            res = {"ps": path_scanning, "am": augment_merge, "cs": construct_strike}[alg](inst)
            text = write_solution(inst, res.outcome) if res.solved else res.reason
        got.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert got == PINNED_OUTPUTS[alg].split()


# sha256 (first 16 hex digits) of the mt output on scaled instances, built as
# the benchmark builds them: (nodes, edges, seed, set kind) -> digest.  The
# set-A instance repositions vehicles and ends with a partial solution.
PINNED_SCALED_MT = {
    (461, 879, 1, "B"): "9662dbe545d8045a",
    (230, 440, 1, "A"): "6adaefa70c7fd9e2",
    (922, 1758, 1, "B"): "bf78dd0b07ce9e27",
}


@pytest.mark.parametrize("spec", sorted(PINNED_SCALED_MT), ids=str)
def test_mt_output_is_pinned_on_scaled_instances(spec):
    nodes, edges, seed, kind = spec
    base = random_connected_graph(nodes, edges, seed, integer_weights=False,
                                  min_weight=0.5, max_weight=3.0)
    inst = generate_instance(base, GenSpec(nodes, edges, seed, set_kind=kind))
    text = write_solution(inst, solve_multitrip(inst))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_SCALED_MT[spec]


def test_cs_output_is_pinned_where_trial_copies_revive_vehicles():
    # construct_strike revives retired vehicles on each criterion's copy of
    # the fleet; on this instance that decides the output
    inst = tiny_corpus(1, offset=169)[0]
    assert inst.name == "C-n6-e8-s169"
    res = construct_strike(inst)
    text = write_solution(inst, res.outcome) if res.solved else res.reason
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "4d07d9b209e274ea"
