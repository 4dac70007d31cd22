"""Solution representation, objective evaluation, feasibility audit, file I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import FormatError, Instance, RequiredEdge, _required_edge

EPS = 1e-9
DURATION_TOL = 1e-6


@dataclass(frozen=True)
class Trip:
    nodes: tuple[int, ...]
    duration: float


@dataclass(frozen=True)
class Route:
    vehicle: int
    trips: tuple[Trip, ...]


@dataclass(frozen=True)
class Solution:
    routes: tuple[Route, ...]
    makespan: float
    uncovered: tuple[RequiredEdge, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.uncovered


def route_time(durations, recharge_time: float) -> float:
    """Total trip time, added left to right from 0, plus one recharge per trip
    boundary.  The order is fixed here, not left to `sum`, which adds floats
    with compensation from Python 3.12 on."""
    durations = list(durations)
    if any(d < 0 for d in durations):
        raise ValueError("trip durations must be nonnegative")
    if not durations:
        return 0.0
    total = 0
    for d in durations:
        total += d
    return total + (len(durations) - 1) * recharge_time


def worst_route_time(routes, recharge_time: float) -> float:
    """Makespan: worst route time over the routes, in route order; 0.0 without routes."""
    return max((route_time((t.duration for t in r.trips), recharge_time) for r in routes),
               default=0.0)


def evaluate_solution(inst: Instance, sol: Solution) -> float:
    """Makespan: worst route time across the fleet."""
    return worst_route_time(sol.routes, inst.recharge_time)


def gap(m_heuristic: float, m_optimal: float) -> float:
    """Percentage excess of a heuristic makespan over the optimum."""
    if not (math.isfinite(m_heuristic) and math.isfinite(m_optimal)):
        raise ValueError("makespans must be finite")
    if m_optimal <= 0:
        raise ValueError("optimal makespan must be positive")
    return (m_heuristic - m_optimal) / m_optimal * 100.0


def walk_cost(inst: Instance, nodes) -> float | None:
    """Cost of a node walk using the cheapest parallel arc, None on a non-arc."""
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        w = inst.graph.min_weight(a, b)
        if w is None:
            return None
        total += w
    return total


def covered_by_walk(inst: Instance, nodes) -> set[int]:
    """Positions in `inst.required` of the edges a walk traverses
    (direction-sensitive when directed)."""
    served = inst.served_by_arc
    out = set()
    for pair in set(zip(nodes, nodes[1:])):
        if pair in served:
            out.update(served[pair])
    return out


def check_feasibility(inst: Instance, sol: Solution) -> list[str]:
    """Constraint audit; an empty report means feasible and complete."""
    findings: list[str] = []
    depot_set = set(inst.depots)
    covered: set[int] = set()
    seen: set[int] = set()
    durations_ok = True
    for route in sol.routes:
        k = route.vehicle
        known = 0 <= k < inst.vehicles
        if not known:
            findings.append(f"route for vehicle {k} outside 0..{inst.vehicles - 1}")
        elif k in seen:
            findings.append(f"second route for vehicle {k}")
        seen.add(k)
        prev_end = None
        for f, trip in enumerate(route.trips):
            tag = f"vehicle {k} trip {f}"
            if not 0 <= trip.duration < math.inf:
                findings.append(f"{tag}: duration {trip.duration} is negative or not finite")
                durations_ok = False
            if not trip.nodes:
                findings.append(f"{tag}: empty node walk")
                continue
            if trip.nodes[0] not in depot_set:
                findings.append(f"{tag}: starts at non-depot node {trip.nodes[0]}")
            if trip.nodes[-1] not in depot_set:
                findings.append(f"{tag}: ends at non-depot node {trip.nodes[-1]}")
            if f == 0:
                if known and trip.nodes[0] != inst.start_depot(k):
                    findings.append(
                        f"{tag}: starts at {trip.nodes[0]}, vehicle based at "
                        f"{inst.start_depot(k)}")
            elif prev_end is not None and trip.nodes[0] != prev_end:
                findings.append(
                    f"{tag}: starts at {trip.nodes[0]} but previous trip ended at {prev_end}")
            prev_end = trip.nodes[-1]
            cost = walk_cost(inst, trip.nodes)
            if cost is None:
                findings.append(f"{tag}: walk uses a non-arc")
                continue
            if abs(cost - trip.duration) > DURATION_TOL:
                findings.append(
                    f"{tag}: stated duration {trip.duration} differs from walk cost {cost}")
            if trip.duration > inst.capacity + EPS:
                findings.append(
                    f"{tag}: duration {trip.duration} exceeds capacity {inst.capacity}")
            covered |= covered_by_walk(inst, trip.nodes)
    for pos, e in enumerate(inst.required):
        if pos not in covered:
            findings.append(f"required edge ({e.frm},{e.to}) not covered")
    # route_time raises on a negative duration, so only sound routes are summed
    if durations_ok:
        value = evaluate_solution(inst, sol)
        if not abs(sol.makespan - value) <= DURATION_TOL:
            findings.append(f"stated makespan {sol.makespan} differs from evaluated {value}")
    return findings


def write_solution(inst: Instance, sol: Solution) -> str:
    lines = [f"SOLUTION {inst.name or 'unnamed'} {repr(float(sol.makespan))}"]
    for route in sol.routes:
        lines.append(f"ROUTE {route.vehicle}")
        for trip in route.trips:
            nodes = " ".join(str(n) for n in trip.nodes)
            lines.append(f"TRIP {repr(float(trip.duration))} {nodes}")
    for e in sol.uncovered:
        suffix = " DIR" if e.directed else ""
        lines.append(f"UNCOVERED {e.frm} {e.to}{suffix}")
    return "\n".join(lines) + "\n"


def write_unsolved(inst: Instance, reason: str) -> str:
    return f"UNSOLVED {reason}\n"


def parse_solution(text: str) -> Solution | str:
    """Parse a solution file; returns the Unsolved reason string when present."""
    routes: list[Route] = []
    cur_vehicle = None
    cur_trips: list[Trip] = []
    makespan = 0.0
    uncovered: list[RequiredEdge] = []

    def flush():
        if cur_vehicle is not None:
            routes.append(Route(cur_vehicle, tuple(cur_trips)))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].upper()
        try:
            if kind == "UNSOLVED":
                return " ".join(tokens[1:]) or "unspecified"
            if kind == "SOLUTION":
                makespan = float(tokens[-1])
            elif kind == "ROUTE":
                if len(tokens) > 2:
                    raise FormatError(line_no, f"ROUTE takes 1 value, not {len(tokens) - 1}")
                flush()
                cur_vehicle = int(tokens[1])
                cur_trips = []
            elif kind == "TRIP":
                duration = float(tokens[1])
                nodes = tuple(int(t) for t in tokens[2:])
                cur_trips.append(Trip(nodes, duration))
            elif kind == "UNCOVERED":
                uncovered.append(_required_edge(tokens, line_no))
            else:
                raise FormatError(line_no, f"unknown directive {tokens[0]!r}")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise FormatError(line_no, str(exc)) from exc
    flush()
    return Solution(tuple(routes), makespan, tuple(uncovered))
