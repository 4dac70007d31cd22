"""Span tracing of the mdrpp layers, installed from outside the library.

`Tracer.install()` replaces every public function of the library modules
with a recording wrapper at each place the function is bound: the defining
module, every mdrpp module that imported it by name, the package namespace
and the benchmark modules passed in.  Functions imported inside other
functions read the defining module's attribute at call time, so they are
covered too.  The graph class
itself is left alone, because `graph` tests `isinstance(..., WeightedGraph)`;
its `__init__` is wrapped instead and reported as `graph.build`.

Spans (name, start, end, parent, operation id) are kept in memory, written
out by `write()`, and reduced to per-layer self time and call counts by
`summary()`.  A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "instance", "solution", "multitrip", "baselines", "exact", "milp", "cli")

# per-layer metric name -> traced function names it aggregates
GROUPS = {
    "graph.build": ("graph.WeightedGraph.__init__",),
    "instance.parse": ("instance.parse_instance",),
    "instance.generate": ("instance.generate_instance", "instance.random_connected_graph"),
    "solution.io": ("solution.write_solution", "solution.parse_solution",
                    "solution.write_unsolved"),
    "multitrip.solve": ("multitrip.solve_multitrip",),
}

# solver entry points that one_to_all calls are attributed to
SOLVER_ROOTS = {
    "multitrip.solve_multitrip": "multitrip",
    "baselines.path_scanning": "baselines.ps",
    "baselines.augment_merge": "baselines.am",
    "baselines.construct_strike": "baselines.cs",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.op_id = None
        self._restore: list = []

    # ------------------------------------------------------------ recording
    def span(self, name: str, fn):
        """Wrap fn so that every call records a span called `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return wrapper

    def run(self, name: str, op_id, fn, *args):
        """Call fn(*args) as a root span belonging to operation op_id."""
        self.op_id = op_id
        try:
            return self.span(name, fn)(*args)
        finally:
            self.op_id = None

    # ------------------------------------------------------------ patching
    def install(self, callers=()) -> None:
        """Patch the library; `callers` are further modules (the benchmark's
        own) whose by-name imports of library functions are patched too."""
        layers = {layer: importlib.import_module(f"mdrpp.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items()
                   if (n == "mdrpp" or n.startswith("mdrpp.")) and m is not None]
        modules += list(callers)
        for layer, defining in layers.items():
            for attr, fn in list(vars(defining).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != defining.__name__):
                    continue
                wrapped = self.span(f"{layer}.{attr}", fn)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._restore.append((module, name, fn))
                            setattr(module, name, wrapped)
        cls = layers["graph"].WeightedGraph
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.span("graph.WeightedGraph.__init__", cls.__init__)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    # ------------------------------------------------------------ reduction
    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,op\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent},{op or ''}\n")

    def summary(self, is_setup) -> dict:
        """Self time and calls per span name, split into set-up and pass
        spans by `is_setup(op_id)`; one_to_all calls are also counted per
        enclosing solver."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {True: defaultdict(lambda: [0, 0.0]), False: defaultdict(lambda: [0, 0.0])}
        root_of: dict[int, str | None] = {}

        def solver_root(idx: int):
            chain = []
            while idx >= 0 and idx not in root_of:
                name = spans[idx][0]
                if name in SOLVER_ROOTS:
                    root_of[idx] = SOLVER_ROOTS[name]
                    break
                chain.append(idx)
                idx = spans[idx][3]
            found = root_of.get(idx) if idx >= 0 else None
            for c in chain:
                root_of[c] = found
            return found

        for idx, (name, start, end, parent, op) in enumerate(spans):
            bucket = out[bool(is_setup(op))]
            entry = bucket[name]
            entry[0] += 1
            entry[1] += (end - start) - child[idx]
            if name == "graph.one_to_all":
                root = solver_root(parent)
                if root is not None:
                    bucket[f"{root}.one_to_all"][0] += 1
        return {"setup": dict(out[True]), "pass": dict(out[False])}
