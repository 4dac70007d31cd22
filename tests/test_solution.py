"""Route/solution arithmetic, feasibility audit, solution file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrpp import (
    FormatError,
    Instance,
    RequiredEdge,
    Route,
    Solution,
    Trip,
    check_feasibility,
    evaluate_solution,
    gap,
    parse_solution,
    route_time,
    walk_cost,
    write_solution,
    write_unsolved,
)
from mdrpp.solution import covered_by_walk

from conftest import trivial_instance, two_vehicle_instance, undirected_graph


def test_route_time_known_values():
    assert route_time([3.8, 6.7], 1.1) == pytest.approx(11.6, abs=1e-9)
    assert route_time([5.0], 9.0) == 5.0           # no recharge after last trip
    assert route_time([], 9.0) == 0.0
    assert route_time([1.0, 1.0, 1.0], 2.0) == pytest.approx(7.0)


def test_route_time_adds_left_to_right():
    # ten 0.1s added in order round to just below 1; a compensated sum gives 1.0
    assert route_time([0.1] * 10, 0.0) == 0.9999999999999999


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6),
       st.floats(min_value=0.0, max_value=50.0))
def test_route_time_is_sum_plus_boundary_recharges(durations, recharge):
    v = route_time(durations, recharge)
    expected = sum(durations) + max(0, len(durations) - 1) * recharge
    assert v == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_gap_known_values():
    assert gap(166.0, 141.0) == pytest.approx(17.7, abs=0.05)
    assert gap(64.0, 64.0) == 0.0
    assert gap(7.5, 5.0) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        gap(10.0, 0.0)


def make_solution(inst, walks_per_vehicle):
    routes = []
    for k, walks in enumerate(walks_per_vehicle):
        trips = []
        for walk in walks:
            cost = walk_cost(inst, walk)
            trips.append(Trip(nodes=tuple(walk), duration=cost,
                              covered=tuple(sorted(covered_by_walk(inst, walk)))))
        routes.append(Route(k, tuple(trips)))
    covered = {e for r in routes for t in r.trips for e in t.covered}
    uncovered = tuple(e for e in inst.required if e not in covered)
    makespan = max(
        (route_time([t.duration for t in r.trips], inst.recharge_time) for r in routes),
        default=0.0)
    return Solution(tuple(routes), makespan, uncovered)


def test_evaluate_solution_takes_worst_route():
    inst = two_vehicle_instance()
    sol = make_solution(inst, [[(0, 1, 4), (4, 7, 8, 4)], [(5, 6, 4)]])
    assert evaluate_solution(inst, sol) == pytest.approx(18.8)
    assert sol.complete


def test_walk_cost_and_coverage():
    inst = trivial_instance()
    assert walk_cost(inst, (0, 1, 0)) == pytest.approx(2.0)
    assert walk_cost(inst, (0, 2)) is None  # not an arc
    assert covered_by_walk(inst, (0, 1, 0)) == {RequiredEdge(0, 1)}
    assert covered_by_walk(inst, (0, 3, 2)) == set()


def test_directed_coverage_requires_stated_direction():
    g = undirected_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    inst = Instance(graph=g, depots=(0, 2), required=(RequiredEdge(1, 2, directed=True),),
                    vehicles=1, capacity=9.0, recharge_time=0.0, start_depots=(0,))
    assert covered_by_walk(inst, (0, 2, 1, 0)) == set()        # traversed 2->1
    assert covered_by_walk(inst, (0, 1, 2)) == {inst.required[0]}


def test_check_feasibility_clean_solution():
    inst = two_vehicle_instance()
    sol = make_solution(inst, [[(0, 1, 4), (4, 7, 8, 4)], [(5, 6, 4)]])
    assert check_feasibility(inst, sol) == []


def test_check_feasibility_findings():
    inst = two_vehicle_instance()

    clean = make_solution(inst, [[(0, 1, 4), (4, 7, 8, 4)], [(5, 6, 4)]])

    # trip not ending at a depot
    bad = make_solution(inst, [[(0, 1)], [(5, 6, 4)]])
    assert any("depot" in f for f in check_feasibility(inst, bad))

    # wrong start depot for vehicle 0
    bad = make_solution(inst, [[(4, 7, 8, 4)], [(5, 6, 4)]])
    assert any("start" in f for f in check_feasibility(inst, bad))

    # chaining discontinuity: second trip starts where the first did not end
    bad = make_solution(inst, [[(0, 1, 0), (4, 7, 8, 4)], [(5, 6, 4)]])
    assert any("previous trip ended" in f for f in check_feasibility(inst, bad))

    # tampered duration
    r0 = clean.routes[0]
    t0 = r0.trips[0]
    tampered = Solution(
        (Route(0, (Trip(t0.nodes, t0.duration + 1.0, t0.covered),) + r0.trips[1:]),
         clean.routes[1]),
        clean.makespan, ())
    assert any("duration" in f for f in check_feasibility(inst, tampered))

    # capacity violation
    over = make_solution(inst, [[(0, 1, 4, 7, 8, 4)], [(5, 6, 4)]])
    assert any("capacity" in f for f in check_feasibility(inst, over))

    # missing required edge
    partial = make_solution(inst, [[(0, 1, 4)], [(5, 6, 4)]])
    assert any("required" in f for f in check_feasibility(inst, partial))
    assert not partial.complete

    # unknown vehicle, a second route for vehicle 0, understated makespan
    inst = trivial_instance()
    sol = make_solution(inst, [[(0, 1, 0)]])
    assert sol.makespan == pytest.approx(2.0)
    assert check_feasibility(inst, sol) == []
    route = sol.routes[0]
    faulty = Solution((route, Route(7, route.trips), Route(0, route.trips)), 0.1, ())
    findings = check_feasibility(inst, faulty)
    assert any("vehicle 7 outside" in f for f in findings)
    assert any("second route for vehicle 0" in f for f in findings)
    assert any("stated makespan 0.1" in f for f in findings)
    assert len(findings) == 3

    # negative and non-finite durations are findings, not exceptions
    for duration in (-1.0, float("nan"), float("inf")):
        bad_trip = Trip(route.trips[0].nodes, duration)
        findings = check_feasibility(inst, Solution((Route(0, (bad_trip,)),), 2.0, ()))
        assert any("negative or not finite" in f for f in findings)


def test_solution_file_round_trip():
    inst = two_vehicle_instance()
    sol = make_solution(inst, [[(0, 1, 4), (4, 7, 8, 4)], [(5, 6, 4)]])
    text = write_solution(inst, sol)
    again = parse_solution(text)
    assert not isinstance(again, str)
    assert again.makespan == pytest.approx(sol.makespan)
    assert [t.nodes for r in again.routes for t in r.trips] == \
           [t.nodes for r in sol.routes for t in r.trips]
    assert check_feasibility(inst, again) == []

    # a partial solution keeps the direction of its uncovered edges
    g = undirected_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    directed = Instance(graph=g, depots=(0,),
                        required=(RequiredEdge(0, 1), RequiredEdge(2, 1, directed=True)),
                        vehicles=1, capacity=9.0, recharge_time=0.0, start_depots=(0,))
    sol = make_solution(directed, [[(0, 1, 0)]])
    assert sol.uncovered == (RequiredEdge(2, 1, directed=True),)
    again = parse_solution(write_solution(directed, sol))
    assert again.uncovered == sol.uncovered


def test_unsolved_file_round_trip():
    inst = trivial_instance()
    text = write_unsolved(inst, "no progress after striking")
    parsed = parse_solution(text)
    assert isinstance(parsed, str)
    assert "no progress" in parsed


def test_parse_solution_rejects_trailing_tokens():
    text = write_solution(trivial_instance(),
                          make_solution(trivial_instance(), [[(0, 1, 0)]]))
    text += "UNCOVERED 1 2 DIR\n"
    lines = text.splitlines()
    assert parse_solution(text).uncovered == (RequiredEdge(1, 2, directed=True),)
    for line, bad in [("ROUTE 0", "ROUTE 0 1"), ("UNCOVERED 1 2 DIR", "UNCOVERED 1 2 DIR 3"),
                      ("UNCOVERED 1 2 DIR", "UNCOVERED 1 2 DIRECTED"),
                      ("UNCOVERED 1 2 DIR", "UNCOVERED 1 2 3")]:
        with pytest.raises(FormatError) as err:
            parse_solution(text.replace(line, bad))
        assert err.value.line_no == lines.index(line) + 1, bad
    # a malformed value is a FormatError at its line too
    with pytest.raises(FormatError) as err:
        parse_solution(text.replace("ROUTE 0", "ROUTE x"))
    assert err.value.line_no == lines.index("ROUTE 0") + 1
