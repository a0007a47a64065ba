"""Every public top-level function and class in src/ is used in src/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(source: str) -> list[str]:
    """Names of the functions and classes a module defines at top level, bar ``_private`` ones."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def loaded_names(source: str) -> set[str]:
    """Names a module loads, bare (``f``) or as an attribute (``mod.f``).
    Importing a name or listing it in ``__all__`` does not load it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """``path: name`` of each public definition no module loads."""
    used = set().union(*map(loaded_names, sources.values()))
    return [f"{path}: {name}" for path, source in sources.items()
            for name in public_definitions(source) if name not in used]


def test_unused_definitions_are_found():
    sources = {
        "a.py": "def f(): pass\ndef g(): pass\nclass C: pass\ndef _h(): pass\n__all__ = ['f']\n",
        "b.py": "from a import f, g\nimport a\ng()\nx: a.C\n",
    }
    assert unused_definitions(sources) == ["a.py: f"]


def test_every_public_definition_is_used():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in SOURCES}
    assert unused_definitions(sources) == []
