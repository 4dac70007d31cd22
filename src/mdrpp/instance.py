"""Instance model, text formats, random generation and MILP preprocessing."""

from __future__ import annotations

import functools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass

from .graph import Arc, WeightedGraph, is_connected


class InstanceError(ValueError):
    """Semantic problem in instance data."""


class FormatError(ValueError):
    """Syntax problem in an instance document."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, order=True)
class RequiredEdge:
    frm: int
    to: int
    directed: bool = False

    def orientations(self) -> list[tuple[int, int]]:
        """(tail, head) pairs that serve the edge; the index is a tie-break key."""
        if self.directed:
            return [(self.frm, self.to)]
        return [(self.frm, self.to), (self.to, self.frm)]


@dataclass(frozen=True)
class Instance:
    graph: WeightedGraph
    depots: tuple[int, ...]
    required: tuple[RequiredEdge, ...]
    vehicles: int
    capacity: float
    recharge_time: float
    start_depots: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        g = self.graph
        if not self.depots:
            raise InstanceError("at least one depot is required")
        for d in self.depots:
            if not (0 <= d < g.node_count):
                raise InstanceError(f"depot {d} is not a node")
        depot_set = set(self.depots)
        if len(depot_set) != len(self.depots):
            raise InstanceError("duplicate depot ids")
        if self.vehicles < 1:
            raise InstanceError("vehicle count must be positive")
        if not 0 < self.capacity < math.inf:
            raise InstanceError("capacity must be positive and finite")
        if not 0 <= self.recharge_time < math.inf:
            raise InstanceError("recharge time must be nonnegative and finite")
        if len(self.start_depots) != self.vehicles:
            raise InstanceError("one start depot per vehicle is required")
        for b in self.start_depots:
            if b not in depot_set:
                raise InstanceError(f"start depot {b} is not a depot")
        for e in self.required:
            if g.min_weight(e.frm, e.to) is None:
                raise InstanceError(f"required edge ({e.frm},{e.to}) has no matching arc")
            if not e.directed and g.min_weight(e.to, e.frm) is None:
                raise InstanceError(
                    f"undirected required edge ({e.frm},{e.to}) lacks the reverse arc")

    def start_depot(self, k: int) -> int:
        return self.start_depots[k]

    @functools.cached_property
    def served_by_arc(self) -> dict[tuple[int, int], list[int]]:
        """Positions in `required` of the edges that traversing each (tail,
        head) arc serves; equal copies of an edge are served together."""
        served: dict[tuple[int, int], list[int]] = {}
        for pos, e in enumerate(self.required):
            for arc in e.orientations():
                served.setdefault(arc, []).append(pos)
        return served


@dataclass(frozen=True)
class GenSpec:
    node_count: int
    edge_count: int
    seed: int
    set_kind: str = "A"
    max_edge_weight: float | None = None
    capacity_minutes: float = 31.0
    wind_ratio: float = 0.3

    def __post_init__(self):
        if self.set_kind not in ("A", "B", "C"):
            raise InstanceError(f"unknown set kind {self.set_kind!r}")
        if not (0 <= self.wind_ratio < 1):
            raise InstanceError("wind_ratio must lie in [0, 1)")


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: content-equal instances serialize identically."""
    lines = ["MDRPPRV 1"]
    if inst.name:
        lines.append(f"NAME {inst.name}")
    lines.append(f"NODES {inst.graph.node_count}")
    lines.append("DEPOTS " + " ".join(str(d) for d in sorted(inst.depots)))
    lines.append(f"VEHICLES {inst.vehicles}")
    lines.append(f"CAPACITY {_fmt(inst.capacity)}")
    lines.append(f"RECHARGE {_fmt(inst.recharge_time)}")
    lines.append("START " + " ".join(str(b) for b in inst.start_depots))
    for frm, to, w in sorted(inst.graph.arcs):
        lines.append(f"ARC {frm} {to} {_fmt(w)}")
    for e in sorted(_canonical_required(inst.required)):
        suffix = " DIR" if e.directed else ""
        lines.append(f"REQ {e.frm} {e.to}{suffix}")
    return "\n".join(lines) + "\n"


def _canonical_required(required) -> tuple[RequiredEdge, ...]:
    out = []
    for e in required:
        if e.directed or e.frm < e.to:
            out.append(e)
        else:
            out.append(RequiredEdge(e.to, e.frm, False))
    return tuple(out)


# values of each fixed-length directive; NAME, DEPOTS and START take any number
_VALUE_COUNTS = {"NODES": 1, "VEHICLES": 1, "CAPACITY": 1, "RECHARGE": 1, "ARC": 3}
_REPEATABLE = frozenset({"ARC", "REQ"})  # every other directive appears at most once


def _required_edge(tokens: list[str], line_no: int) -> RequiredEdge:
    """The edge of a REQ or UNCOVERED line: two end nodes, then DIR when directed."""
    if len(tokens) > 4 or len(tokens) == 4 and tokens[3].upper() != "DIR":
        raise FormatError(line_no, f"{tokens[0]} takes two nodes and an optional DIR, "
                                   f"not {' '.join(tokens[1:])!r}")
    return RequiredEdge(int(tokens[1]), int(tokens[2]), len(tokens) == 4)


def parse_instance(text: str) -> Instance:
    node_count = None
    depots: list[int] = []
    vehicles = None
    capacity = None
    recharge = 0.0
    start: list[int] = []
    arcs: list[Arc] = []
    required: list[RequiredEdge] = []
    name = ""
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].upper()
        if not seen:
            if tokens != ["MDRPPRV", "1"]:
                raise FormatError(line_no, f"expected the header 'MDRPPRV 1', not {line!r}")
            seen.add(kind)
            continue
        if kind not in _REPEATABLE:
            if kind in seen:
                raise FormatError(line_no, f"duplicate {kind} line")
            seen.add(kind)
        count = _VALUE_COUNTS.get(kind)
        if count is not None and len(tokens) > count + 1:
            raise FormatError(line_no, f"{kind} takes {count} value(s), not {len(tokens) - 1}")
        try:
            # most lines are arcs and required edges, so they are tested first
            if kind == "ARC":
                weight = float(tokens[3])
                if not 0 <= weight < math.inf:
                    raise FormatError(line_no, f"ARC weight {weight} is negative or not finite")
                arcs.append(Arc(int(tokens[1]), int(tokens[2]), weight))
            elif kind == "REQ":
                required.append(_required_edge(tokens, line_no))
            elif kind == "NAME":
                name = " ".join(tokens[1:])
            elif kind == "NODES":
                node_count = int(tokens[1])
            elif kind == "DEPOTS":
                depots = [int(t) for t in tokens[1:]]
            elif kind == "VEHICLES":
                vehicles = int(tokens[1])
            elif kind == "CAPACITY":
                capacity = float(tokens[1])
            elif kind == "RECHARGE":
                recharge = float(tokens[1])
            elif kind == "START":
                start = [int(t) for t in tokens[1:]]
            else:
                raise FormatError(line_no, f"unknown directive {tokens[0]!r}")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise FormatError(line_no, f"malformed {kind} line: {exc}") from exc
    if not seen:
        raise FormatError(1, "missing MDRPPRV header")
    if node_count is None:
        raise FormatError(1, "missing NODES line")
    if vehicles is None or capacity is None or not depots or not start:
        raise FormatError(1, "missing one of DEPOTS/VEHICLES/CAPACITY/START")
    return Instance(
        graph=WeightedGraph(node_count, arcs),
        depots=tuple(sorted(depots)),
        required=tuple(sorted(_canonical_required(required))),
        vehicles=vehicles,
        capacity=capacity,
        recharge_time=recharge,
        start_depots=tuple(start),
        name=name,
    )


_CARP_EDGE_RE = re.compile(
    r"\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*(?:coste|cost)\s+(-?[\d.]+)", re.IGNORECASE)
_CARP_COUNT_RE = re.compile(
    r"(VERTICES|NODES|ARISTAS|EDGES)\s*:?\s*(\d+)", re.IGNORECASE)


def parse_carp_benchmark(text: str) -> tuple[WeightedGraph, list[tuple[int, int, float]]]:
    """Parse the classic gdb-style CARP layout (1-based nodes, one edge/line).

    Returns the undirected graph plus the edge list in file order so that
    required-edge sampling is reproducible.
    """
    node_count = None
    edge_count = None
    edges: list[tuple[int, int, float]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _CARP_EDGE_RE.search(line)
        if m:
            i, j, c = int(m.group(1)), int(m.group(2)), float(m.group(3))
            if not 0 <= c < math.inf:
                raise FormatError(line_no, f"edge cost {c} is negative or not finite")
            edges.append((i - 1, j - 1, c))
            continue
        m = _CARP_COUNT_RE.search(line)
        if m:
            label = m.group(1).upper()
            if label in ("VERTICES", "NODES"):
                node_count = int(m.group(2))
            else:
                edge_count = int(m.group(2))
            continue
        tokens = line.split()
        if len(tokens) == 3:
            try:
                i, j, c = int(tokens[0]), int(tokens[1]), float(tokens[2])
            except ValueError:
                continue
            if not 0 <= c < math.inf:
                raise FormatError(line_no, f"edge cost {c} is negative or not finite")
            edges.append((i - 1, j - 1, c))
    if node_count is None:
        raise FormatError(1, "missing node count header")
    if edge_count is not None and edge_count != len(edges):
        raise FormatError(1, f"header says {edge_count} edges, found {len(edges)}")
    arcs = []
    for i, j, c in edges:
        arcs.append(Arc(i, j, c))
        arcs.append(Arc(j, i, c))
    return WeightedGraph(node_count, arcs), edges


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def random_connected_graph(node_count: int, edge_count: int, seed: int,
                           min_weight: float = 1.0, max_weight: float = 10.0,
                           integer_weights: bool = True) -> WeightedGraph:
    """Seeded random connected undirected multigraph."""
    if node_count < 2:
        raise InstanceError("a random graph needs at least two nodes")
    if edge_count < node_count - 1:
        raise InstanceError("edge_count too small for a connected graph")
    rng = random.Random(seed)

    def draw_weight() -> float:
        if integer_weights:
            return float(rng.randint(int(min_weight), int(max_weight)))
        return round(rng.uniform(min_weight, max_weight), 3)

    simple_cap = node_count * (node_count - 1) // 2
    edges: list[tuple[int, int, float]] = []
    pairs: set[tuple[int, int]] = set()
    order = list(range(node_count))
    rng.shuffle(order)
    for idx in range(1, node_count):
        other = order[rng.randrange(idx)]
        pair = (min(order[idx], other), max(order[idx], other))
        pairs.add(pair)
        edges.append((*pair, draw_weight()))
    while len(edges) < edge_count:
        i = rng.randrange(node_count)
        j = rng.randrange(node_count)
        if i == j:
            continue
        pair = (min(i, j), max(i, j))
        # parallel edges only once the simple graph is saturated
        if pair in pairs and len(pairs) < simple_cap:
            continue
        pairs.add(pair)
        edges.append((*pair, draw_weight()))
    arcs = []
    for i, j, w in edges:
        arcs.append(Arc(i, j, w))
        arcs.append(Arc(j, i, w))
    return WeightedGraph(node_count, arcs)


def undirected_edges(g: WeightedGraph) -> list[tuple[int, int, float]]:
    """Undirected edge list of a graph whose every arc has a mirror of equal
    weight, sorted, one per arc pair."""
    if Counter(g.arcs) != Counter((a.to, a.frm, a.weight) for a in g.arcs):
        raise InstanceError("undirected edge list requires a symmetric graph")
    return sorted((a.frm, a.to, a.weight) for a in g.arcs if a.frm < a.to)


def generate_instance(base: WeightedGraph, spec: GenSpec) -> Instance:
    """Seeded conversion of a connected undirected base graph to an instance.

    Counts follow fixed conventions: round-half-up for depots (|N|/5, min 2)
    and required edges (|E|/3, min 1), floor for vehicles (|E_u|/2, min 1).
    """
    edges = undirected_edges(base)
    if not is_connected(base):
        raise InstanceError("base graph must be connected")
    if spec.node_count != base.node_count or spec.edge_count != len(edges):
        raise InstanceError(
            f"spec sizes ({spec.node_count} nodes, {spec.edge_count} edges) do not "
            f"match base ({base.node_count} nodes, {len(edges)} edges)")
    rng = random.Random(spec.seed)
    n_depots = max(2, _round_half_up(base.node_count / 5))
    n_required = max(1, _round_half_up(len(edges) / 3))
    depots = tuple(sorted(rng.sample(range(base.node_count), n_depots)))
    # sample endpoint pairs, not edge slots, so parallel edges cannot yield
    # duplicate required edges
    pairs = sorted({(i, j) for i, j, _ in edges})
    pair_pos = {p: idx for idx, p in enumerate(pairs)}
    chosen = rng.sample(pairs, min(n_required, len(pairs)))
    required_idx = sorted(pair_pos[p] for p in chosen)
    vehicles = max(1, n_required // 2)
    start = tuple(depots[k % len(depots)] for k in range(vehicles))

    if spec.set_kind == "A":
        max_w = spec.max_edge_weight
        if max_w is None:
            max_w = max(w for _, _, w in edges)
        capacity = 2.0 * max_w
    else:
        capacity = float(spec.capacity_minutes)

    graph = base
    if spec.set_kind == "C":
        arcs = []
        for i, j, w in edges:
            factor = rng.uniform(0.0, spec.wind_ratio)
            with_wind = w / (1.0 + factor)
            against_wind = w / (1.0 - factor) if factor < 1 else w
            if rng.random() < 0.5:
                arcs.append(Arc(i, j, round(with_wind, 6)))
                arcs.append(Arc(j, i, round(against_wind, 6)))
            else:
                arcs.append(Arc(i, j, round(against_wind, 6)))
                arcs.append(Arc(j, i, round(with_wind, 6)))
        graph = WeightedGraph(base.node_count, arcs)
        required = []
        for idx in required_idx:
            i, j = pairs[idx]
            if rng.random() < 0.5:
                required.append(RequiredEdge(i, j, directed=True))
            else:
                required.append(RequiredEdge(j, i, directed=True))
        required = tuple(sorted(required))
    else:
        required = tuple(sorted(RequiredEdge(*pairs[idx]) for idx in required_idx))

    return Instance(
        graph=graph,
        depots=depots,
        required=required,
        vehicles=vehicles,
        capacity=capacity,
        recharge_time=round(capacity / 10.0, 6),
        start_depots=start,
        name=f"{spec.set_kind}-n{spec.node_count}-e{spec.edge_count}-s{spec.seed}",
    )


def add_dummy_nodes(inst: Instance) -> tuple[Instance, dict[RequiredEdge, RequiredEdge]]:
    """Re-target depot-incident required edges onto zero-cost dummy nodes.

    Every depot endpoint of a required edge gets a fresh node linked to the
    depot by a zero-weight edge; the required edge moves to the dummy with its
    original weights.  The remap table maps each rewritten edge back to the
    original.  Optimal objective values are unchanged.
    """
    depot_set = set(inst.depots)
    arcs = list(inst.graph.arcs)
    next_node = inst.graph.node_count
    new_required: list[RequiredEdge] = []
    remap: dict[RequiredEdge, RequiredEdge] = {}

    for e in inst.required:
        frm, to = e.frm, e.to
        if frm not in depot_set and to not in depot_set:
            new_required.append(e)
            continue
        w_fwd = inst.graph.min_weight(frm, to)
        w_bwd = inst.graph.min_weight(to, frm)
        nfrm, nto = frm, to
        if frm in depot_set:
            dummy = next_node
            next_node += 1
            arcs.append(Arc(frm, dummy, 0.0))
            arcs.append(Arc(dummy, frm, 0.0))
            nfrm = dummy
        if to in depot_set:
            dummy = next_node
            next_node += 1
            arcs.append(Arc(to, dummy, 0.0))
            arcs.append(Arc(dummy, to, 0.0))
            nto = dummy
        arcs.append(Arc(nfrm, nto, w_fwd))
        if w_bwd is not None:
            arcs.append(Arc(nto, nfrm, w_bwd))
        moved = RequiredEdge(nfrm, nto, e.directed)
        new_required.append(moved)
        remap[moved] = e

    if not remap:
        return inst, {}
    modified = Instance(
        graph=WeightedGraph(next_node, arcs),
        depots=inst.depots,
        required=tuple(new_required),
        vehicles=inst.vehicles,
        capacity=inst.capacity,
        recharge_time=inst.recharge_time,
        start_depots=inst.start_depots,
        name=inst.name,
    )
    return modified, remap


def validate_instance(inst: Instance) -> list[str]:
    """Non-raising structural audit; feasibility is left to the solvers."""
    findings: list[str] = []
    if not is_connected(inst.graph):
        findings.append("graph is disconnected")
    seen = set()
    for e in inst.required:
        key = (e.frm, e.to, e.directed) if e.directed else (min(e.frm, e.to), max(e.frm, e.to), False)
        if key in seen:
            findings.append(f"duplicate required edge ({e.frm},{e.to})")
        seen.add(key)
    return findings
