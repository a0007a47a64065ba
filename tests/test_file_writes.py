"""Every file and directory src/ creates or replaces goes through
``datastore.atomic_write``, the one writer that creates a file's directory
and moves a finished temporary file into place, and every lock is an
``flock`` taken in ``datastore.flocked``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))

#: the one function allowed to create or replace files and directories
WRITER = ("src/chainfolio/datastore.py", "atomic_write")

#: the one function that takes a lock
LOCKER = ("src/chainfolio/datastore.py", "flocked")

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


def scoped_nodes(source: str) -> list[tuple[str, ast.AST]]:
    """``(qualified function, node)`` of each node in ``source`` outside a
    definition's own node; module-level nodes have function ``""``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            found.append((scope, child))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def file_writes(source: str) -> list[tuple[str, str]]:
    """``(qualified function, call)`` of each call in ``source`` that creates
    or replaces a file or directory."""
    return [(scope, call) for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Call) and (call := _writing_call(node))]


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
    # a lock file is created, with its directory, and opened for appending, never written
    listed = [(*LOCKER, "mkdir"), (*LOCKER, "open")]
    assert [w for w in writes if w[:2] != WRITER] == listed
    assert {call for path, scope, call in writes if (path, scope) == WRITER} == {"open", "mkdir", "os.replace"}


def lock_uses(source: str) -> list[tuple[str, str]]:
    """``(qualified function, name)`` of each use in ``source`` of an in-process
    lock (``threading.Lock`` or ``threading.RLock``, also imported by name)
    or of ``fcntl.flock``."""
    found = []
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{node.value.id}.{node.attr}"
            if name in {"threading.Lock", "threading.RLock", "fcntl.flock"}:
                found.append((scope, name))
        elif isinstance(node, ast.ImportFrom) and node.module in {"threading", "fcntl"}:
            found += [(scope, f"{node.module}.{alias.name}") for alias in node.names
                      if alias.name in {"Lock", "RLock", "flock"}]
    return found


def test_lock_uses_are_found():
    source = (
        "import threading, fcntl\n"
        "from threading import RLock, get_ident\n"
        "locks: dict[str, threading.RLock] = {}\n"
        "class C:\n    def f(self):\n        return threading.Lock()\n"
        "def g(fh):\n    fcntl.flock(fh, fcntl.LOCK_EX)\n    threading.get_ident()\n"
    )
    assert lock_uses(source) == [
        ("", "threading.RLock"), ("", "threading.RLock"), ("C.f", "threading.Lock"), ("g", "fcntl.flock"),
    ]


def test_one_lock_mechanism():
    """No in-process lock: one ``flock`` helper serialises every writer."""
    uses = [(str(path.relative_to(ROOT)), scope, name) for path in SOURCES
            for scope, name in lock_uses(path.read_text(encoding="utf-8"))]
    assert uses == [(*LOCKER, "fcntl.flock")]
