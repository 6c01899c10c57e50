"""Every module uses every name it imports, every name the benchmark's
tracer looks up exists, the package sets frozen fields only while
building an object, and every in-process byte pin runs without numpy
or scipy.

No linter is part of the toolchain, so this walks the syntax trees of
the package, its tests and its benchmark with the standard library's
``ast``.  The package ``__init__`` is skipped: its imports are the
public re-exports.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from pinned import PINS, command, manifest, reports

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


# Runs each pin of the JSON file argv[1] names through CliRunner, with
# numpy and scipy blocked, and writes its standard output next to it.
BLOCKED_RUNNER = """
import json, pathlib, sys
sys.modules["numpy"] = sys.modules["scipy"] = None  # importing either fails
from click.testing import CliRunner
from qmcbounds.cli import main
commands = pathlib.Path(sys.argv[1])
for name, args in json.loads(commands.read_text(encoding="utf-8")).items():
    result = CliRunner().invoke(main, args)
    if result.exit_code != 0:
        sys.exit(f"{name}: exit {result.exit_code}: {result.exception!r}")
    (commands.parent / f"{name}.stdout").write_bytes(result.stdout_bytes)
"""


def test_in_process_pins_need_neither_numpy_nor_scipy(tmp_path):
    # numpy and scipy serve the tests and the minimax LP only; every
    # report of the CLI comes from the standard library and click
    names = [name for name, pin in PINS.items() if pin.in_process]
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps({name: command(name, tmp_path) for name in names}),
                        encoding="utf-8")
    result = subprocess.run([sys.executable, "-c", BLOCKED_RUNNER, str(commands)],
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    digests = dict(manifest())
    for report in (report for name in names for report in reports(name)):
        digest = hashlib.sha256((tmp_path / report).read_bytes()).hexdigest()
        assert digest == digests[report], f"{report}: sha256 {digest}"
