"""Dataclasses as JSON-ready documents and back.

``to_doc`` turns a dataclass into a dict of its fields and a tuple into a
list, recursively.  ``from_doc`` reverses it from the field types: a
nested dataclass comes back from its dict and a tuple from its list.  The
``.cm`` settings header, a report's config and its rebalance events all
take this one path, so their on-disk JSON follows the field definitions.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import cache
from typing import get_origin, get_type_hints


def to_doc(value):
    """JSON-ready copy of ``value``: dataclasses become dicts, tuples lists."""
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    layout = _layout(type(value))
    if layout is None:
        return value
    return {name: to_doc(getattr(value, name)) for name, _ in layout}


def from_doc(cls, doc: dict):
    """An instance of dataclass ``cls`` from its ``to_doc`` form; a missing
    field raises KeyError, a malformed one whatever ``cls`` raises."""
    return cls(**{name: _typed(kind, doc[name]) for name, kind in _layout(cls)})


def _typed(kind, value):
    if kind is None:
        return value
    if kind is tuple:
        return tuple(value)
    return from_doc(kind, value)


@cache
def _layout(cls) -> tuple[tuple[str, object], ...] | None:
    """(name, kind) of each field if ``cls`` is a dataclass, else None.  The
    kind is the field's dataclass, ``tuple``, or None for a plain value."""
    if not is_dataclass(cls):
        return None
    hints = get_type_hints(cls)
    return tuple((f.name, _kind(hints[f.name])) for f in fields(cls))


def _kind(tp):
    if is_dataclass(tp):
        return tp
    return tuple if get_origin(tp) is tuple else None
