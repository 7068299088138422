"""Source hygiene: every name a package module imports is used in it, every
module-level private name is read somewhere in the package, every function
the benchmark's tracer wraps exists, every defaulted parameter of a public
function or method, or of a module-level private function, is set by some
call, every exported name is read in the package or named in the
README, every exception class the package defines is raised in it, and
every dataclass field is read somewhere."""

import ast
import builtins
import importlib
import re
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


def defaulted(fn: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """The positional parameter names of a def, and the names that carry a
    default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    named = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, named


def call_name(fn: ast.FunctionDef, cls: str | None) -> str:
    """The name a call uses to reach a def: a constructor is called by its
    class name, anything else by its own name."""
    return cls if cls is not None and fn.name == "__init__" else fn.name


def given_arguments(call: ast.Call, params: list[str]) -> list[tuple[str, ast.expr]]:
    """(parameter, value) pairs a call passes, given the def's positional
    parameters: positional arguments up to the first *args, keywords, and the
    literal keys of a **{...}."""
    given = []
    for name, arg in zip(params, call.args):
        if isinstance(arg, ast.Starred):
            break
        given.append((name, arg))
    for kw in call.keywords:
        if kw.arg is not None:
            given.append((kw.arg, kw.value))
        elif isinstance(kw.value, ast.Dict):
            given += [
                (k.value, v)
                for k, v in zip(kw.value.keys, kw.value.values)
                if isinstance(k, ast.Constant)
            ]
    return given


def calls_in(node: ast.AST, enclosing: ast.FunctionDef | None = None):
    """Every call under node, with the innermost def that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, enclosing
        yield from calls_in(child, child if isinstance(child, ast.FunctionDef) else enclosing)


def unset_defaults() -> tuple[list[str], list[str]]:
    """(all, unset) defaulted parameters of the module-level functions, public
    or private, and of the public methods of the package, each as
    module.function.parameter.

    A parameter is set when some call in the package, the tests or the
    benchmark passes it; calls are matched to defs by name. A call that
    passes on the same-named defaulted parameter of the def enclosing it sets
    the parameter only when that enclosing parameter is set itself."""
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "qfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    owner = {}  # id of a def -> name of the class whose body holds it
    defs: dict[str, list[ast.FunctionDef]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        owner[id(fn)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(call_name(node, owner.get(id(node))), []).append(node)

    public = {}
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        top = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for c in tree.body:
            if isinstance(c, ast.ClassDef) and not c.name.startswith("_"):
                top += [fn for fn in c.body if isinstance(fn, ast.FunctionDef)]
        for fn in top:
            cls = owner.get(id(fn))
            if cls is not None and fn.name.startswith("_") and fn.name != "__init__":
                continue
            parts = [path.stem, cls] if fn.name == "__init__" else [path.stem, cls, fn.name]
            label = ".".join(part for part in parts if part)
            for name in defaulted(fn)[1]:
                public[id(fn), name] = f"{label}.{name}"

    direct, passes = set(), []
    for tree in trees.values():
        for call, enclosing in calls_in(tree):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "cls" and enclosing is not None:
                name = owner.get(id(enclosing))
            for fn in defs.get(name, []):
                params, with_default = defaulted(fn)
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                if id(fn) in owner and not static:
                    params = params[1:]
                for param, value in given_arguments(call, params):
                    if param not in with_default:
                        continue
                    if (isinstance(value, ast.Name) and value.id == param
                            and enclosing is not None and param in defaulted(enclosing)[1]):
                        passes.append(((id(enclosing), param), (id(fn), param)))
                    else:
                        direct.add((id(fn), param))
    is_set = set(direct)
    while True:
        new = {dst for src, dst in passes if src in is_set} - is_set
        if not new:
            break
        is_set |= new
    return sorted(public.values()), sorted(v for k, v in public.items() if k not in is_set)


def test_no_unset_defaults():
    every, unset = unset_defaults()
    assert every
    assert unset == []


def test_exports_are_read_or_documented():
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom)
                for a in n.names]
    assert exported
    read = set().union(*(read_names(p) for p in SRC.glob("*.py") if p.name != "__init__.py"))
    documented = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert [n for n in exported if n not in read and n not in documented] == []


def exception_classes() -> dict[str, str]:
    """The classes the package defines that derive, directly or through one
    another, from a builtin exception, each with the file defining it."""
    bases = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = (path.name, [b.id for b in node.bases if isinstance(b, ast.Name)])

    def is_exception(name: str) -> bool:
        if name in bases:
            return any(is_exception(b) for b in bases[name][1])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    return {name: path for name, (path, _) in bases.items() if is_exception(name)}


def raised_names(path: Path) -> set[str]:
    """Names a raise statement of the module raises, called or bare."""
    raised = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return raised


def test_error_classes_are_raised():
    classes = exception_classes()
    assert classes
    raised = set().union(*(raised_names(p) for p in SRC.glob("*.py")))
    assert [f"{path}: {name}" for name, path in classes.items() if name not in raised] == []


def dataclass_fields() -> list[tuple[str, str, str]]:
    """(file, class, field) for every annotated field of a class the package
    decorates with @dataclass, bare or called."""
    fields = []
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
                continue
            fields += [
                (path.name, node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def test_dataclass_fields_are_read():
    # a field is read as an attribute in the package, the tests or the
    # benchmark, named there by a string constant (columns read by getattr),
    # or named in the README; a field that is only ever written is dead
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "qfbench").glob("*.py")]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    documented = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    fields = dataclass_fields()
    assert fields
    unread = [f"{m}: {c}.{n}" for m, c, n in fields if n not in read | documented]
    assert unread == []
