"""Every module uses every name it imports.

No linter is part of the toolchain, so this walks the syntax trees of
the package, its tests and its benchmark with the standard library's
``ast``.  The package ``__init__`` is skipped: its imports are the
public re-exports.
"""

import ast
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
