"""Shortest-path layer checked against Floyd-Warshall and brute-force walks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrpp import WeightedGraph, is_connected, shortest_path
from mdrpp.graph import Arc, DijkstraRun, DistanceTables, GraphError, one_to_all, path_from_parents

from conftest import reference_all_to_set, reversed_adjacency, undirected_graph

INF = float("inf")


def floyd_warshall(g: WeightedGraph):
    n = g.node_count
    dist = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for a in g.arcs:
        if a.weight < dist[a.frm][a.to]:
            dist[a.frm][a.to] = a.weight
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            for j in range(n):
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    return dist


def random_graph_strategy():
    return st.integers(min_value=0, max_value=10_000)


def build_random(seed: int) -> WeightedGraph:
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 8)
    arcs = []
    for i in range(1, n):
        j = rng.randrange(i)
        w = rng.randint(1, 9) / 2.0
        arcs.append((i, j, w))
        arcs.append((j, i, w))
    for _ in range(rng.randint(0, 6)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        w = rng.randint(1, 9) / 2.0
        arcs.append((i, j, w))
        arcs.append((j, i, w))
    return WeightedGraph(n, arcs)


@settings(max_examples=120, deadline=None)
@given(random_graph_strategy())
def test_shortest_path_matches_floyd_warshall(seed):
    g = build_random(seed)
    dist = floyd_warshall(g)
    for s in range(g.node_count):
        costs, _ = one_to_all(g, s)
        for t in range(g.node_count):
            assert costs[t] == pytest.approx(dist[s][t], abs=1e-9)
            res = shortest_path(g, s, t)
            if dist[s][t] == INF:
                assert res is None
            else:
                assert res.cost == pytest.approx(dist[s][t], abs=1e-9)


def test_shortest_path_matches_walk_enumeration():
    g = undirected_graph(5, [(0, 1, 2), (1, 2, 2), (2, 3, 1), (3, 4, 1),
                             (4, 0, 3), (1, 3, 2.5)])

    def enumerate_best(s, t):
        best = INF
        for length in range(1, 6):
            for mid in itertools.product(range(5), repeat=length - 1):
                nodes = (s,) + mid + (t,)
                cost = 0.0
                ok = True
                for i, j in zip(nodes, nodes[1:]):
                    w = g.min_weight(i, j)
                    if w is None:
                        ok = False
                        break
                    cost += w
                if ok:
                    best = min(best, cost)
        return best

    for s in range(5):
        for t in range(5):
            if s == t:
                continue
            assert shortest_path(g, s, t).cost == pytest.approx(enumerate_best(s, t))


def test_path_endpoints_and_cost_consistency():
    g = build_random(77)
    for s in range(g.node_count):
        for t in range(g.node_count):
            res = shortest_path(g, s, t)
            if res is None:
                continue
            assert res.nodes[0] == s and res.nodes[-1] == t
            total = sum(g.min_weight(i, j) for i, j in zip(res.nodes, res.nodes[1:]))
            assert total == pytest.approx(res.cost)


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy())
def test_symmetric_distance_and_triangle_inequality(seed):
    g = build_random(seed)
    dist = [one_to_all(g, s)[0] for s in range(g.node_count)]
    n = g.node_count
    for i in range(n):
        for j in range(n):
            assert dist[i][j] == pytest.approx(dist[j][i], abs=1e-9)
            for k in range(n):
                if dist[i][k] < INF and dist[k][j] < INF:
                    assert dist[i][j] <= dist[i][k] + dist[k][j] + 1e-9


def test_parallel_arcs_use_cheapest_copy():
    g = WeightedGraph(2, [(0, 1, 5.0), (1, 0, 5.0), (0, 1, 2.0), (1, 0, 2.0)])
    assert g.min_weight(0, 1) == 2.0
    assert shortest_path(g, 0, 1).cost == 2.0


def test_lexicographic_tie_break_is_deterministic():
    # two equal-cost routes from 0 to 3: 0-1-3 and 0-2-3; the smaller node
    # sequence must win every time
    g = undirected_graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    for _ in range(5):
        assert shortest_path(g, 0, 3).nodes == (0, 1, 3)


def test_to_depot_table_agrees_with_per_node_runs():
    g = build_random(123)
    depots = {0, g.node_count - 1}
    tables = DistanceTables(g, depots)
    cost = tables.to_depot_cost
    for s in range(g.node_count):
        assert cost[s] == pytest.approx(min(shortest_path(g, s, d).cost for d in depots),
                                        abs=1e-9)
        walk = tables.return_walk(s)
        assert walk[-1] in depots
        total = sum(g.min_weight(i, j) for i, j in zip(walk, walk[1:]))
        assert total == pytest.approx(cost[s], abs=1e-9)
    for targets in ((), (g.node_count,)):
        with pytest.raises(GraphError):
            DistanceTables(g, targets)


@pytest.mark.parametrize("seed", range(40))
def test_resumed_run_matches_one_to_all(seed):
    # integer weights, some of them zero, so that equal costs are common
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    arcs = []
    for _ in range(rng.randint(n, 4 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, float(rng.choice((0, 1, 1, 2, 3)))))
    g = WeightedGraph(n, arcs)
    src = rng.randrange(n)
    costs, parents = one_to_all(g, src)
    tables = DistanceTables(g, [src])
    bounds = sorted(rng.randint(0, 8) for _ in range(4))
    for bound in bounds:
        run = tables.run(src, bound)
        within = {v for v in range(n) if costs[v] <= bound}
        assert set(run.settled) == within
        assert run.frontier == min((costs[v] for v in range(n) if v not in within), default=INF)
        for v in within:
            assert (run.costs[v], run.parents[v]) == (costs[v], parents[v])
    run = tables.run(src, INF)
    assert (run.costs, run.parents) == (costs, parents)
    # the to-target run, and a reverse multi-source run advanced in the
    # same steps, match the one-shot reference loop
    targets = rng.sample(range(n), rng.randint(1, min(4, n)))
    cost, succ = reference_all_to_set(g, targets)
    run = tables.reverse_run(targets, INF)
    assert (run.costs, run.parents) == (cost, succ)
    run = DijkstraRun(reversed_adjacency(g), targets)
    for bound in bounds:
        run._advance(bound)
        assert set(run.settled) == {v for v in range(n) if cost[v] <= bound}
        assert run.frontier == min((c for c in cost if c > bound), default=INF)
    run._advance(INF)
    assert (run.costs, run.parents) == (cost, succ)


@pytest.mark.parametrize("seed", range(20))
def test_reverse_run_matches_all_to_set_at_every_bound(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    arcs = []
    for _ in range(rng.randint(n, 4 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, float(rng.choice((0, 1, 1, 2, 3)))))
    g = WeightedGraph(n, arcs)
    depots = rng.sample(range(n), rng.randint(1, min(3, n)))
    tables = DistanceTables(g, depots)
    assert (tables.to_depot_cost, tables.to_depot_succ) == reference_all_to_set(g, depots)
    targets = tuple(rng.sample(range(n), min(2, n)))
    cost, succ = reference_all_to_set(g, targets)
    for bound in sorted(rng.randint(0, 8) for _ in range(4)):
        run = tables.reverse_run(targets, bound)
        assert set(run.settled) == {v for v in range(n) if cost[v] <= bound}
        for v in run.settled:
            assert (run.costs[v], run.parents[v]) == (cost[v], succ[v])
        # an unsettled node costs more than the bound, tentative or not
        assert all(run.costs[v] > bound for v in range(n) if cost[v] > bound)
    # one run per target tuple, resumed by every caller
    assert tables.reverse_run(targets) is run
    assert (tables.reverse_run(targets, INF).costs, run.parents) == (cost, succ)
    with pytest.raises(GraphError):
        tables.reverse_run(())


def test_distance_matches_one_to_all_and_stops_at_its_level():
    # 1 -> 2 weighs 0, so they share a cost level; nothing reaches node 5
    g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 0.0), (2, 0, 2.0), (1, 3, 2.0), (2, 3, 2.0),
                          (3, 4, 1.5), (4, 1, 1.0), (5, 0, 1.0)])
    rows = [one_to_all(g, src) for src in range(6)]
    for src, dst in itertools.product(range(6), repeat=2):
        cost, parents = rows[src]
        for bound in (0.0, 1.0, 2.5, 3.0, 4.5, INF):
            tables = DistanceTables(g, [0])
            got = tables.distance(src, dst, bound)
            run = tables.run(src)
            if cost[dst] < INF and cost[dst] <= bound:
                assert got == cost[dst]
                assert path_from_parents(run.parents, src, dst) == \
                    path_from_parents(parents, src, dst)
                level = cost[dst]
            else:
                assert got == INF
                level = bound
            # nothing past dst's cost level, or past the bound, is settled
            assert all(run.costs[u] <= level for u in run.settled)
            assert tables.distance(src, dst, bound) == got
    # one run per source, resumed by each read, far targets first
    tables = DistanceTables(g, [0])
    for dst in (4, 0, 5, 3, 1):
        assert tables.distance(2, dst) == rows[2][0][dst]
    assert tables.run(2).costs == rows[2][0]


def test_is_connected():
    assert is_connected(undirected_graph(3, [(0, 1, 1), (1, 2, 1)]))
    assert not is_connected(WeightedGraph(3, [(0, 1, 1.0), (1, 0, 1.0)]))


def test_graph_validation_errors():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 0, 1.0)])        # self loop
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, -1.0), (1, 0, -1.0)])  # negative weight
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, weight), (1, 0, 1.0)])  # non-finite weight


def test_arcs_are_converted_unless_already_exact():
    exact = Arc(0, 1, 2.0)
    g = WeightedGraph(3, [exact, (1, 2, 3), Arc(True, 2, 1)])
    assert g.arcs[0] is exact
    assert g.arcs[1:] == (Arc(1, 2, 3.0), Arc(1, 2, 1.0))
    assert all(type(a) is Arc and [type(x) for x in a] == [int, int, float] for a in g.arcs)
    # converted before the checks: True is node 1, so this is a self-loop at 1
    with pytest.raises(GraphError, match="self-loop at node 1 "):
        WeightedGraph(2, [Arc(True, 1, 1)])
