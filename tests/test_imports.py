"""Every name a module in src/ or tests/ imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never loaded, except those in ``__all__``
    (re-exports) and ``from __future__`` features."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom a import b, c as d\n__all__ = ['b']\nnumpy\n"
    assert unused_imports(source) == ["d", "os"]


def test_every_import_is_used():
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in SOURCES for name in unused_imports(path.read_text())]
    assert unused == []
