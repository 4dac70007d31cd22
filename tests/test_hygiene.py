"""Source hygiene checks, and a seed-0 sample of the benchmark against its reference."""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mdrpp"
TESTS = ROOT / "tests"
BENCHMARK = ROOT / "benchmark"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_detected():
    source = "import os\nimport sys\nfrom a.b import c, d as e\nprint(sys, e)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def test_no_unused_module_level_imports():
    # the package's __init__.py is skipped: its imports are re-exports
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in paths}
    assert {name: names for name, names in found.items() if names} == {}


def unused_parameters(source: str) -> list[str]:
    """Parameters, other than self, that their function's body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  *filter(None, (args.vararg, args.kwarg)))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}({p})" for p in params if p != "self" and p not in read]
    return found


def test_unused_parameters_are_detected():
    source = ("def f(a, b, *rest, c=1, **kw):\n    def g(d):\n        return a + c\n"
              "    b = 2\n    return g\n\n"
              "class C:\n    def m(self, e):\n        return lambda x, y: y\n")
    assert unused_parameters(source) == [
        "f(b)", "f(rest)", "f(kw)", "g(d)", "m(e)", "<lambda>(x)"]


def test_no_unused_parameters():
    # the benchmark calls write_unsolved(inst, reason), so its inst stays
    allowed = {"solution.py": ["write_unsolved(inst)"]}
    found = {p.name: unused_parameters(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: params for name, params in found.items() if params} == allowed


def imported(module: str, name: str):
    """What `from module import name` binds; ImportError when there is nothing."""
    source = importlib.import_module(module)
    if hasattr(source, name):
        return getattr(source, name)
    return importlib.import_module(f"{module}.{name}")


def unresolved_imports(paths) -> list[str]:
    """Names the files import from mdrpp, or read off an mdrpp module they
    imported by name, that do not exist."""
    missing = []
    for path in paths:
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mdrpp":
                for alias in node.names:
                    try:
                        value = imported(node.module, alias.name)
                    except ImportError:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                        continue
                    if inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)):
                missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    return missing


def test_benchmark_imports_resolve():
    # a rename in the package would otherwise surface only as a failed benchmark run
    assert unresolved_imports(sorted(BENCHMARK.glob("*.py"))) == []


def test_test_imports_resolve():
    # a deleted library name would otherwise surface as a collection error,
    # which a run that continues past collection errors does not fail on
    assert unresolved_imports(sorted(TESTS.glob("*.py"))) == []


def benchmark_sample(workloads, tmp_path):
    """(workload name, operations) of every seed-0 operation of the tiny-oracle,
    baselines-mix and mt-ladder workloads."""
    sample = []
    for name in ("tiny-oracle", "baselines-mix", "mt-ladder"):
        wl = workloads.WORKLOADS[name]
        paths = workloads.write_instances(workloads.build(wl.plan(0)), tmp_path)
        sample.append((name, wl.ops(paths)))
    return sample


def test_benchmark_outcomes_match_the_reference(tmp_path, monkeypatch):
    # the benchmark fails an operation that raises, reports a finding other
    # than its documented encoder rejection, or whose outcome string (with the
    # CRC of the LP/MPS text) differs from the recorded seed-0 reference
    spec = importlib.util.spec_from_file_location("workloads", BENCHMARK / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    recorded = json.loads((BENCHMARK / "reference.json").read_text())
    assert recorded["seed"] == 0
    problems = []
    for wl, ops in benchmark_sample(workloads, tmp_path):
        reference = recorded["outcomes"][wl]
        # a sample narrowed to fewer operations fails here, not silently
        assert sorted(op.id for op in ops) == sorted(reference), wl
        ctx = {}
        for op in ops:
            res = workloads.OP_KINDS[op.kind](op, ctx)
            if res.outcome != reference.get(op.id):
                problems.append(f"{op.id}: {res.outcome!r} != {reference.get(op.id)!r}")
            elif res.failures and not res.known:
                problems.append(f"{op.id}: {res.failures[0]}")
    assert problems == []
