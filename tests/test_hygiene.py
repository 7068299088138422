"""Source hygiene: every name a package module imports is used in it, and
every function the benchmark's tracer wraps exists."""

import ast
import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quiverflow"


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's imports that no expression refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [u for p in modules for u in unused_imports(p)]
    assert unused == []


def test_traced_names_exist():
    # run_path executes the tracer's source without writing bytecode beside it
    traced = runpy.run_path(str(ROOT / "qfbench" / "tracing.py"))["TRACED"]
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"quiverflow.{module}"), name)
    ]
    assert missing == []
