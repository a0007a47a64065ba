"""Every file and directory src/ creates or replaces goes through
``datastore.atomic_write``, the one writer that creates a file's directory
and moves a finished temporary file into place."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))

#: the one function allowed to create or replace files and directories
WRITER = ("src/chainfolio/datastore.py", "atomic_write")

#: method names that create or replace a file or directory whatever they are called on
WRITE_METHODS = {"write_text", "write_bytes", "mkdir", "rename"}

#: ``os`` functions that do the same
OS_WRITES = {"replace", "rename", "makedirs", "mkdir"}


def _opens_for_writing(call: ast.Call) -> bool:
    """An ``open(p, mode)`` or ``p.open(mode)`` whose mode can create or change a file.
    A mode that is not a literal counts as writing."""
    args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    node = args[0] if args else next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if node is None:
        return False
    return not (isinstance(node, ast.Constant) and isinstance(node.value, str) and not set(node.value) & set("wax+"))


def _writing_call(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return "open" if func.id == "open" and _opens_for_writing(call) else None
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id == "os" and func.attr in OS_WRITES:
        return f"os.{func.attr}"
    if func.attr in WRITE_METHODS or (func.attr == "open" and _opens_for_writing(call)):
        return func.attr
    return None


def file_writes(source: str) -> list[tuple[str, str]]:
    """``(qualified function, call)`` of each call in ``source`` that creates
    or replaces a file or directory; module-level calls have function ``""``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and (call := _writing_call(child)):
                found.append((scope, call))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_file_writes_are_found():
    source = (
        "import os\n"
        "open(p)\nopen(p, 'rb')\nopen(p, mode='w')\nopen(p, 'ab')\nopen(p, m)\np.open()\np.open('x')\n"
        "p.write_text(t)\np.write_bytes(b)\np.mkdir()\nos.replace(a, b)\nos.rename(a, b)\np.rename(q)\n"
        "s.replace('a', 'b')\nos.makedirs(d)\n"
        "class C:\n    def f(self):\n        def g():\n            open(p, 'w+')\n"
    )
    assert file_writes(source) == [
        ("", "open"), ("", "open"), ("", "open"), ("", "open"), ("", "write_text"), ("", "write_bytes"),
        ("", "mkdir"), ("", "os.replace"), ("", "os.rename"), ("", "rename"), ("", "os.makedirs"),
        ("C.f.g", "open"),
    ]


def test_only_atomic_write_creates_or_replaces_files():
    writes = [(str(path.relative_to(ROOT)), scope, call) for path in SOURCES
              for scope, call in file_writes(path.read_text(encoding="utf-8"))]
    # the manifest's lock file is opened for appending, never written
    listed = [("src/chainfolio/datastore.py", "CsvStore._update_manifest", "open")]
    assert [w for w in writes if w[:2] != WRITER] == listed
    assert {call for path, scope, call in writes if (path, scope) == WRITER} == {"open", "mkdir", "os.replace"}
