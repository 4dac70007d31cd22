"""Source hygiene checks that need only the standard library."""

import ast
import importlib
import inspect
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


def imported(module: str, name: str):
    """What `from module import name` binds; ImportError when there is nothing."""
    source = importlib.import_module(module)
    if hasattr(source, name):
        return getattr(source, name)
    return importlib.import_module(f"{module}.{name}")


def test_benchmark_imports_resolve():
    # a rename in the package would otherwise surface only as a failed benchmark run
    missing = []
    for path in sorted(BENCHMARK.glob("*.py")):
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
    assert missing == []
