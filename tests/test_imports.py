"""Every module uses every name it imports, every name the benchmark's
tracer looks up exists, and the package sets frozen fields only while
building an object.

No linter is part of the toolchain, so this walks the syntax trees of
the package, its tests and its benchmark with the standard library's
``ast``.  The package ``__init__`` is skipped: its imports are the
public re-exports.
"""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for pattern in ("src/qmcbounds/*.py", "tests/*.py", "bench/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)


def unused_imports(path):
    """Names a module imports at any depth but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_no_unused_imports():
    assert SOURCES
    unused = [entry for path in SOURCES for entry in unused_imports(path)]
    assert unused == []


def stray_frozen_sets(path):
    """Uses of ``object.__setattr__`` outside ``__init__`` and
    ``__post_init__``, or with a first argument other than ``self``.

    That call gets past a frozen dataclass's ``__setattr__``; in the
    constructor it sets the object's own fields, anywhere else it
    attaches state that no field declares.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"
                    and function not in ("__init__", "__post_init__")):
                found.add(child.lineno)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "object"
                    and not (child.args and isinstance(child.args[0], ast.Name)
                             and child.args[0].id == "self")):
                found.add(child.lineno)
            visit(child, function)

    visit(tree, None)
    return [f"{path.relative_to(ROOT)}:{line}" for line in sorted(found)]


def test_frozen_fields_are_set_only_in_constructors():
    paths = sorted(ROOT.glob("src/qmcbounds/*.py"))
    assert paths
    stray = [entry for path in paths for entry in stray_frozen_sets(path)]
    assert stray == []


def test_traced_layers_resolve():
    # bench/tracer.py resolves TRACED only in a traced run; a deleted or
    # renamed layer function would otherwise surface there first
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, path in tracer.TRACED:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{path}")
    assert tracer.TRACED
    assert missing == []
