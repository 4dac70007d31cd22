"""Shared fixtures: hand-built instances, a seeded tiny-instance corpus,
seeded integer-weight instances, seeded grids, a reference to-target table
and a digest of solver outputs."""

import hashlib
import heapq
import math
import random

import pytest

from mdrpp import (
    GenSpec,
    Instance,
    RequiredEdge,
    WeightedGraph,
    generate_instance,
    random_connected_graph,
    write_solution,
)


def undirected_graph(node_count: int, edges) -> WeightedGraph:
    arcs = []
    for i, j, w in edges:
        arcs.append((i, j, float(w)))
        arcs.append((j, i, float(w)))
    return WeightedGraph(node_count, arcs)


def reposition_instance() -> Instance:
    """One vehicle, one required edge out of direct reach: covering it from the
    start depot costs 7.5 > capacity 7, so the vehicle must first move to the
    second depot (trip 3.8) and cover the edge from there (trip 6.7)."""
    g = undirected_graph(8, [
        (0, 1, 2.3), (1, 5, 1.5), (1, 3, 3.0), (3, 5, 2.2),
        (0, 2, 4.0), (2, 4, 4.0), (4, 6, 4.0), (6, 7, 4.0),
        (7, 3, 4.0), (2, 6, 4.0), (4, 7, 4.0), (0, 7, 4.0),
    ])
    return Instance(
        graph=g, depots=(0, 5), required=(RequiredEdge(1, 3),),
        vehicles=1, capacity=7.0, recharge_time=1.1, start_depots=(0,),
        name="reposition-8")


def two_vehicle_instance() -> Instance:
    """Nine nodes, three depots, two vehicles, one required edge (7, 8).
    Both vehicles must reposition; the known optimum makespan is 18.8."""
    g = undirected_graph(9, [
        (4, 7, 2.0), (7, 8, 1.4), (8, 4, 2.0), (0, 1, 2.2), (1, 4, 2.2),
        (5, 6, 2.7), (6, 4, 2.7), (0, 2, 3.0), (2, 3, 3.0), (3, 8, 3.0),
        (1, 5, 4.0), (5, 7, 3.5), (2, 6, 2.0),
    ])
    return Instance(
        graph=g, depots=(0, 4, 5), required=(RequiredEdge(7, 8),),
        vehicles=2, capacity=6.0, recharge_time=9.0, start_depots=(0, 5),
        name="two-vehicle-9")


def trivial_instance() -> Instance:
    """One required edge adjacent to the start depot; solvable in one trip."""
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    return Instance(
        graph=g, depots=(0, 2), required=(RequiredEdge(0, 1),),
        vehicles=1, capacity=5.0, recharge_time=0.5, start_depots=(0,),
        name="trivial-4")


def tiny_corpus(count: int = 60, offset: int = 0):
    """Seeded instances with at most 8 nodes, 12 edges, 4 required edges and
    2 vehicles.  A loose capacity override keeps most of them solvable; every
    third instance keeps the tight default, and every fifth is a wind set."""
    out = []
    for pos in range(count):
        seed = offset + pos
        n = 5 + seed % 4
        m = min(n + 1 + seed % 4, n * (n - 1) // 2, 12)
        base = random_connected_graph(n, m, seed, integer_weights=False,
                                      min_weight=1.0, max_weight=4.0)
        if seed % 5 == 4:
            spec = GenSpec(n, m, seed, set_kind="C", capacity_minutes=14.0)
        elif seed % 3 == 0:
            spec = GenSpec(n, m, seed, set_kind="A")
        else:
            spec = GenSpec(n, m, seed, set_kind="A", max_edge_weight=6.0)
        out.append(generate_instance(base, spec))
    return out


def integer_instance(seed: int) -> Instance:
    """Seeded instance with integer weights, some of them zero, and an integer
    capacity, so that equal trip durations and trips of exactly the capacity
    are common."""
    rng = random.Random(seed)
    n = rng.randint(5, 14)
    g = random_connected_graph(n, rng.randint(n, 2 * n), seed, min_weight=0, max_weight=3)
    pairs = sorted({(a.frm, a.to) for a in g.arcs})
    required = []
    for _ in range(rng.randint(2, 8)):
        frm, to = rng.choice(pairs)
        required.append(RequiredEdge(frm, to, directed=rng.random() < 0.3))
    depots = tuple(sorted(rng.sample(range(n), rng.randint(1, 3))))
    vehicles = rng.randint(1, 3)
    return Instance(graph=g, depots=depots, required=tuple(required), vehicles=vehicles,
                    capacity=float(rng.randint(3, 9)), recharge_time=1.0,
                    start_depots=tuple(rng.choice(depots) for _ in range(vehicles)))


def scaled_instance(nodes: int, edges: int, seed: int, kind: str) -> Instance:
    """Scaled instance built as the benchmark builds it."""
    base = random_connected_graph(nodes, edges, seed, integer_weights=False,
                                  min_weight=0.5, max_weight=3.0)
    return generate_instance(base, GenSpec(nodes, edges, seed, set_kind=kind))


def grid_instance(side: int, seed: int) -> Instance:
    """Seeded set-B instance on a side x side grid, node r*side + c: road
    maps have this planar, large-diameter shape.  Weights are uniform in
    [0.5, 3.0], rounded to 3 decimals, drawn in row-major node order, the
    right edge before the down edge."""
    rng = random.Random(seed)
    edges = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                edges.append((u, u + 1, round(rng.uniform(0.5, 3.0), 3)))
            if r + 1 < side:
                edges.append((u, u + side, round(rng.uniform(0.5, 3.0), 3)))
    return generate_instance(undirected_graph(side * side, edges),
                             GenSpec(side * side, len(edges), seed, set_kind="B"))


def reversed_adjacency(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    radj = [[] for _ in range(g.node_count)]
    for u in range(g.node_count):
        for v, w in g.neighbors(u):
            radj[v].append((u, w))
    return radj


def reference_all_to_set(g: WeightedGraph, targets) -> tuple[list[float], list[int]]:
    """(cost, successor) toward the nearest target: the one-shot
    multi-source loop over reversed arcs that the to-depot table ran before
    it became a `DijkstraRun`."""
    targets = sorted(set(targets))
    radj = reversed_adjacency(g)
    cost = [math.inf] * g.node_count
    succ = [-1] * g.node_count
    heap = []
    for t in targets:
        cost[t] = 0.0
        heap.append((0.0, t))
    heapq.heapify(heap)
    while heap:
        c, v = heapq.heappop(heap)
        if c > cost[v]:
            continue
        for u, w in radj[v]:
            nc = c + w
            if nc < cost[u]:
                cost[u] = nc
                succ[u] = v
                heapq.heappush(heap, (nc, u))
    return cost, succ


def digest(inst, result) -> str:
    """sha256 (first 16 hex digits) of a solver's output: the write_solution
    text of a Solution, or the Unsolved reason."""
    text = result if isinstance(result, str) else write_solution(inst, result)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="session")
def corpus():
    return tiny_corpus()
