"""Machine-speed probes for normalising wall times on a shared host.

Between operations, fixed pure-Python kernels run briefly, one for each
kind of work the library does:

- `graph`: a heap Dijkstra over a seeded random graph, like the solvers;
- `text`: number formatting into fixed-width lines, like the MILP writers;
- `perm`: a permutation search over small tuples, like the exact oracle.

The median of a kernel's times around a moment tracks how fast the host ran
that kind of work then; the speed drifts by tens of percent within seconds.
An operation's wall time multiplied by `REFERENCE_S[kernel] / median`, over
the probes just before and after it, is its time at a fixed reference
speed.
The kernels are the benchmark's own code, and the garbage collector is off
while they are timed, so the heap the library keeps alive in the same
process does not slow them; a library change can reach the factor only
through the host's caches.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import random
import statistics
import time

# kernel time that defines the reference speed, per kernel
REFERENCE_S = {"graph": 0.0016, "text": 0.0016, "perm": 0.002}
INTERVAL_S = 0.25  # minimum spacing between two probes
HALF_WINDOW = 4  # probes on each side of an operation in its median
WARMUP = 5  # untimed runs that warm the interpreter before the first probe
NODES, EDGES, VALUES = 900, 3600, 600  # size of the kernels' fixed inputs


class Probe:
    def __init__(self):
        rng = random.Random(20230306)
        adj = [[] for _ in range(NODES)]
        for _ in range(EDGES):
            a, b = rng.randrange(NODES), rng.randrange(NODES)
            w = rng.uniform(0.5, 3.0)
            adj[a].append((b, w))
            adj[b].append((a, w))
        self._adj = adj
        self._values = [rng.uniform(0.0, 100.0) for _ in range(VALUES)]
        self._kernels = {"graph": self._graph, "text": self._text, "perm": self._perm}
        self.times: dict[str, list[float]] = {k: [] for k in self._kernels}
        self._last = float("-inf")
        for _ in range(WARMUP):
            for kernel in self._kernels.values():
                kernel()
        for _ in range(HALF_WINDOW):
            self._last = float("-inf")
            self.tick()

    def _graph(self) -> list[float]:
        adj = self._adj
        dist = [float("inf")] * len(adj)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            c, u = heapq.heappop(heap)
            if c > dist[u]:
                continue
            for v, w in adj[u]:
                nc = c + w
                if nc < dist[v]:
                    dist[v] = nc
                    heapq.heappush(heap, (nc, v))
        return dist

    def _text(self) -> str:
        return "\n".join(f"    x_{i}_{i % 7:<20} {'c' + str(i):<20} {v!r:<14}".rstrip()
                         for i, v in enumerate(self._values))

    def _perm(self) -> float:
        values = self._values
        best = float("inf")
        for offset in range(3):
            for perm in itertools.permutations(range(6)):
                cost = 0.0
                for a, b in zip(perm, perm[1:]):
                    cost += values[offset + a * 6 + b]
                best = min(best, cost)
        return best

    def tick(self) -> None:
        """Probe the host unless the last probe is recent.  Each kernel runs
        twice and only the second run is timed, so that what the previous
        operation left in the caches does not bias the probe; collection is
        off during the timed run, so that the library's heap does not either."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return
        collecting = gc.isenabled()
        for name, kernel in self._kernels.items():
            kernel()
            gc.disable()
            try:
                start = time.perf_counter()
                kernel()
                self.times[name].append(time.perf_counter() - start)
            finally:
                if collecting:
                    gc.enable()
        self._last = time.perf_counter()

    def count(self) -> int:
        return len(self.times["graph"])

    def factor(self, kernel: str, at: int) -> float:
        """Multiplier from wall seconds to seconds at the reference speed for
        work done between probes number at-1 and at."""
        times = self.times[kernel]
        return REFERENCE_S[kernel] / statistics.median(
            times[max(0, at - HALF_WINDOW):at + HALF_WINDOW])

    def mixed_factor(self, at: int) -> float:
        """Geometric mean of the three kernels' factors, for work that mixes
        their kinds; their noise is partly independent, so it is steadier
        than any one of them."""
        return math.prod(self.factor(name, at) for name in self.times) ** (1 / len(self.times))

    def factors(self, since: int) -> dict[str, float]:
        """Multiplier per kernel over all probes from probe number `since` on."""
        return {name: REFERENCE_S[name] / statistics.median(times[since:])
                for name, times in self.times.items()}
