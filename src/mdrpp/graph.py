"""Directed weighted multigraph with deterministic shortest-path queries.

Undirected edges are stored as two opposite arcs.  All queries are pure
functions over immutable graphs, so values can be shared freely between
threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple


class GraphError(ValueError):
    pass


class Arc(NamedTuple):
    frm: int
    to: int
    weight: float


@dataclass(frozen=True)
class PathResult:
    cost: float
    nodes: tuple[int, ...]


def _as_arc(item) -> Arc:
    # the parser's arcs already have these exact types and are kept as they are
    if (type(item) is Arc and type(item.frm) is int and type(item.to) is int
            and type(item.weight) is float):
        return item
    frm, to, weight = item
    return Arc(int(frm), int(to), float(weight))


class WeightedGraph:
    """Immutable multigraph; parallel arcs are kept, self-loops rejected."""

    __slots__ = ("node_count", "arcs", "_adj", "_min_weight")

    def __init__(self, node_count: int, arcs):
        node_count = int(node_count)
        if node_count <= 0:
            raise GraphError("node_count must be positive")
        arcs = tuple(_as_arc(a) for a in arcs)
        for frm, to, w in arcs:
            if not (0 <= frm < node_count and 0 <= to < node_count):
                raise GraphError(f"arc ({frm},{to}) references unknown node")
            if frm == to:
                raise GraphError(f"self-loop at node {frm} rejected")
            if not 0 <= w < math.inf:
                raise GraphError(f"weight {w} on arc ({frm},{to}) is negative or not finite")
        self.node_count = node_count
        self.arcs = arcs
        # shortest-path relaxation only ever needs the cheapest parallel arc
        min_w: dict[tuple[int, int], float] = {}
        for frm, to, w in arcs:
            key = (frm, to)
            if key not in min_w or w < min_w[key]:
                min_w[key] = w
        self._min_weight = min_w
        adj: list[list[tuple[int, float]]] = [[] for _ in range(node_count)]
        for (frm, to), w in sorted(min_w.items()):
            adj[frm].append((to, w))
        self._adj = adj

    def neighbors(self, node: int) -> list[tuple[int, float]]:
        return self._adj[node]

    def min_weight(self, frm: int, to: int) -> float | None:
        return self._min_weight.get((frm, to))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.node_count == other.node_count and sorted(self.arcs) == sorted(other.arcs)

    def __hash__(self) -> int:
        return hash((self.node_count, tuple(sorted(self.arcs))))

    def __repr__(self) -> str:
        return f"WeightedGraph(nodes={self.node_count}, arcs={len(self.arcs)})"


def _check_node(node_count: int, node: int) -> None:
    if not (0 <= node < node_count):
        raise GraphError(f"node {node} out of range [0, {node_count})")


def _lex_dijkstra(g: WeightedGraph, src: int, stop_at: int | None = None):
    """Dijkstra settling nodes in (cost, node-sequence) order.

    Heap entries carry the full path tuple, so equal-cost ties resolve to the
    lexicographically smallest node sequence.
    """
    best: dict[int, tuple[float, tuple[int, ...]]] = {}
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    while heap:
        cost, path = heapq.heappop(heap)
        u = path[-1]
        if u in best:
            continue
        best[u] = (cost, path)
        if u == stop_at:
            break
        for v, w in g.neighbors(u):
            if v not in best:
                heapq.heappush(heap, (cost + w, path + (v,)))
    return best


def shortest_path(g: WeightedGraph, src: int, dst: int) -> PathResult | None:
    """Minimum-cost walk from src to dst, or None if unreachable."""
    _check_node(g.node_count, src)
    _check_node(g.node_count, dst)
    best = _lex_dijkstra(g, src, stop_at=dst)
    if dst not in best:
        return None
    cost, path = best[dst]
    return PathResult(cost, path)


def is_connected(g: WeightedGraph) -> bool:
    """True iff every node is reachable from node 0 along stored arcs."""
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v, _ in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.node_count


class DijkstraRun:
    """State of one Dijkstra run from a set of sources that can be stopped and
    resumed.

    Every source starts at cost 0 and has parent -1.  Over reversed arcs the
    parents are next hops toward the nearest source.  `settled` lists the
    nodes in the order they were settled; their `costs` and `parents` entries
    are final.  Between advances the heap top is never stale, so `frontier`
    is the cost of the next node to settle.
    """

    __slots__ = ("adj", "costs", "parents", "heap", "settled")

    def __init__(self, adj: list[list[tuple[int, float]]], sources):
        self.adj = adj
        self.costs = [math.inf] * len(adj)
        self.parents = [-1] * len(adj)
        # equal costs pop by node id, so the sources in ascending order form a valid heap
        self.heap: list[tuple[float, int]] = []
        for s in sorted(set(sources)):
            _check_node(len(adj), s)
            self.costs[s] = 0.0
            self.heap.append((0.0, s))
        self.settled: list[int] = []

    @property
    def frontier(self) -> float:
        return self.heap[0][0] if self.heap else math.inf

    def _advance(self, bound: float, stop: int = -1) -> None:
        """Settle every node whose cost is at most bound, or, once `stop` is
        settled, at most its cost.

        A run advanced in steps performs the same heap operations in the same
        order as one run to infinity, so its final costs and parents match.
        Every advance settles whole cost levels, so a node is settled exactly
        when its cost is below the frontier.
        """
        cost, parent, heap, settled = self.costs, self.parents, self.heap, self.settled
        adj = self.adj
        while heap and heap[0][0] <= bound:
            c, u = heapq.heappop(heap)
            if c > cost[u]:
                continue
            settled.append(u)
            if u == stop:
                bound = c
            for v, w in adj[u]:
                nc = c + w
                if nc < cost[v]:
                    cost[v] = nc
                    parent[v] = u
                    heapq.heappush(heap, (nc, v))
        while heap and heap[0][0] > cost[heap[0][1]]:
            heapq.heappop(heap)


def one_to_all(g: WeightedGraph, src: int) -> tuple[list[float], list[int]]:
    """Plain Dijkstra: (costs, parents) arrays; parent -1 where unreached."""
    run = DijkstraRun(g._adj, [src])
    run._advance(math.inf)
    return run.costs, run.parents


def path_from_parents(parents: list[int], src: int, dst: int) -> tuple[int, ...]:
    nodes = [dst]
    while nodes[-1] != src:
        p = parents[nodes[-1]]
        if p < 0:
            raise GraphError(f"node {dst} not reached from {src}")
        nodes.append(p)
    nodes.reverse()
    return tuple(nodes)


def _reversed_adjacency(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    # ascending u, one arc per (u, v): every reversed list comes out sorted
    radj: list[list[tuple[int, float]]] = [[] for _ in range(g.node_count)]
    for u in range(g.node_count):
        for v, w in g.neighbors(u):
            radj[v].append((u, w))
    return radj


class DistanceTables:
    """Shortest-path tables over one graph, shared by the solvers.

    Holds the cost to the nearest of `depots` and the next hop toward it,
    one resumable Dijkstra run per source and one resumable reverse run per
    target tuple, each started the first time it is asked for and advanced
    only as far as a caller needs.  The reverse runs share one reversed
    adjacency.  `trip` turns a solver's legs into a walk and its duration.
    """

    def __init__(self, graph: WeightedGraph, depots):
        self.graph = graph
        self._radj = _reversed_adjacency(graph)
        self._runs: dict[int, DijkstraRun] = {}
        self._reverse_runs: dict[tuple[int, ...], DijkstraRun] = {}
        to_depot = self.reverse_run(depots, math.inf)
        self.to_depot_cost, self.to_depot_succ = to_depot.costs, to_depot.parents

    def run(self, src: int, bound: float = -math.inf) -> DijkstraRun:
        """Run from src, advanced until every node within bound is settled."""
        run = self._runs.get(src)
        if run is None:
            run = self._runs[src] = DijkstraRun(self.graph._adj, [src])
        run._advance(bound)
        return run

    def reverse_run(self, targets, bound: float = -math.inf) -> DijkstraRun:
        """Run over reversed arcs from the targets, advanced until every node
        within bound of them is settled.  Its costs are to the nearest target
        and its parents are next hops toward it."""
        targets = tuple(targets)
        run = self._reverse_runs.get(targets)
        if run is None:
            if not targets:
                raise GraphError("targets must be nonempty")
            run = self._reverse_runs[targets] = DijkstraRun(self._radj, targets)
        run._advance(bound)
        return run

    def distance(self, src: int, dst: int, bound: float = math.inf) -> float:
        """Cost from src to dst when it is at most bound, else inf.

        The run from src is advanced only until dst is settled, with the
        other nodes of its cost, or its frontier passes bound.  A finite cost
        is the one a complete run gives, and the parents toward dst are final.
        """
        run = self.run(src)
        costs = run.costs
        if costs[dst] >= run.frontier:
            run._advance(bound, dst)
        cost = costs[dst]
        return cost if cost <= bound else math.inf

    def trip(self, start: int, legs, end: int | None = None) -> tuple[tuple[int, ...], float]:
        """Walk and duration of a trip from start over the oriented required
        arcs `legs`, (tail, head) each, in order, then to end, or to the
        nearest depot when end is None.

        Every path is a cheapest one, read from the parents of the run from
        where it starts.  `distance` advances that run only until the path's
        end is settled, so a caller whose runs have settled every tail and
        the end gets its trip without advancing any.  The duration sums
        `acc += deadhead + w` per leg, then `acc + back`, in the order the
        solvers test the capacity.
        """
        walk, acc, pos = [start], 0.0, start
        min_weight = self.graph.min_weight
        for tail, head in legs:
            acc += self.distance(pos, tail) + min_weight(tail, head)
            walk += path_from_parents(self._runs[pos].parents, pos, tail)[1:]
            walk.append(head)
            pos = head
        if end is None:
            walk += self.return_walk(pos)[1:]
            return tuple(walk), acc + self.to_depot_cost[pos]
        back = self.distance(pos, end)
        walk += path_from_parents(self._runs[pos].parents, pos, end)[1:]
        return tuple(walk), acc + back

    def return_walk(self, node: int) -> tuple[int, ...]:
        """Cheapest walk from node to the nearest depot."""
        succ, nodes = self.to_depot_succ, [node]
        while succ[nodes[-1]] != -1:
            nodes.append(succ[nodes[-1]])
        return tuple(nodes)
