"""Source hygiene: every name a package module imports is used in it, every
module-level private name is read somewhere in the package, and every
function the benchmark's tracer wraps exists."""

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


def private_names(path: Path) -> list[str]:
    """Module-level private functions, classes and constants of a module."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(path: Path) -> set[str]:
    """Names an expression of the module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_no_unread_private_names():
    modules = sorted(SRC.glob("*.py"))
    read = set().union(*(read_names(p) for p in modules))
    private = {p.name: private_names(p) for p in modules}
    assert any(private.values())
    assert [f"{m}: {n}" for m, names in private.items() for n in names if n not in read] == []


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
