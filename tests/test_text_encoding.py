"""Every text-mode file open in src/ names its encoding, so files read and
write the same bytes whatever the locale."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))

#: calls that open a file as text unless given a binary mode
TEXT_CALLS = {"open", "read_text", "write_text", "TextIOWrapper"}


def _mode(call: ast.Call) -> str | None:
    """The mode of an ``open`` call when it is a literal, else None."""
    if len(call.args) > 1:
        node = call.args[1]
    else:
        node = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def text_opens_without_encoding(source: str) -> list[int]:
    """Line numbers of text-mode opens that pass no ``encoding=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name not in TEXT_CALLS or (name == "open" and "b" in (_mode(node) or "")):
            continue
        if not any(kw.arg == "encoding" for kw in node.keywords):
            lines.append(node.lineno)
    return lines


def test_text_opens_without_encoding_are_found():
    source = (
        "open(p, 'rb')\nopen(p, mode='wb')\nopen(p)\nopen(p, 'w', encoding='utf-8')\n"
        "p.read_text()\np.write_text(t, encoding='utf-8')\nio.TextIOWrapper(fh, newline='')\n"
    )
    assert text_opens_without_encoding(source) == [3, 5, 7]


def test_every_text_open_names_its_encoding():
    missing = [f"{path.relative_to(ROOT)}:{line}" for path in SOURCES
               for line in text_opens_without_encoding(path.read_text(encoding="utf-8"))]
    assert missing == []
