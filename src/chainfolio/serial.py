"""Typed values as JSON documents and back.

``to_doc`` makes plain JSON data of a value, recursively: a dataclass
becomes a dict of its fields, a tuple, list or numpy array a list, and
``math.inf`` the string ``"+inf"``.  ``from_doc`` rebuilds a value from
its type hint and checks every scalar on the way: an ``int`` is a JSON
integer (not a bool or a float), a ``float`` a number or ``"+inf"`` (never
a bool), a ``str`` a string and a ``bool`` true or false; an ``Int64Array``
or ``Float64Array`` hint gives a numpy array of that dtype.  A wrong type
raises TypeError naming the field, a missing field KeyError.  The ``.cm``
header's module fields, the run config and the report take this one path.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from functools import cache
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

Int64Array = np.ndarray[Any, np.dtype[np.int64]]
Float64Array = np.ndarray[Any, np.dtype[np.float64]]


def to_doc(value):
    """JSON-ready copy of ``value``."""
    if isinstance(value, float):
        return "+inf" if value == math.inf else value
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value)}
    return value


def from_doc(tp, doc):
    """A value of type ``tp`` from its ``to_doc`` form."""
    return _reader(tp)(doc)


def _is(value, kinds: tuple, what: str):
    if type(value) not in kinds:  # exact types: a JSON true is not an int
        raise TypeError(f"{value!r} is not {what}")
    return value


def _float(value) -> float:
    if type(value) is float:
        return value
    return math.inf if value == "+inf" else float(_is(value, (int,), "a number"))


_SCALARS = {int: "an int", str: "a string", bool: "a bool", dict: "an object", list: "a list"}
_NUMBERS = {np.int64: {int}, np.float64: {int, float}}


@cache
def _reader(tp):
    """A function that checks a JSON value against type ``tp`` and returns it as one."""
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        readers = tuple((f.name, _reader(hints[f.name])) for f in fields(tp))

        def read(doc):
            _is(doc, (dict,), "an object")
            values = {}
            for name, read_field in readers:
                try:
                    values[name] = read_field(doc[name])
                except TypeError as exc:
                    raise TypeError(f"{name}: {exc}") from None
            return tp(**values)
        return read
    if tp is float:
        return _float
    if tp in _SCALARS:
        kinds, what = (tp,), _SCALARS[tp]
        return lambda value: value if type(value) is tp else _is(value, kinds, what)
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple:
        items = [_reader(a) for a in args if a is not Ellipsis]

        def read(value):
            if args[-1] is Ellipsis:
                return tuple(map(items[0], _is(value, (list, tuple), "a list")))
            if len(_is(value, (list, tuple), "a list")) != len(items):
                raise TypeError(f"{value!r} does not hold {len(items)} items")
            return tuple([item(v) for item, v in zip(items, value)])
        return read
    if origin is list:
        item = _reader(args[0])
        return lambda value: list(map(item, _is(value, (list,), "a list")))
    if origin is dict:
        key, item = _reader(args[0]), _reader(args[1])
        return lambda value: {key(k): item(v) for k, v in _is(value, (dict,), "an object").items()}
    if origin is np.ndarray:
        dtype = get_args(args[1])[0]

        def read(value):
            if not {*map(type, _is(value, (list,), "a list"))} <= _NUMBERS[dtype]:
                raise TypeError(f"a list of {dtype.__name__} holds another type")
            return np.array(value, dtype=dtype)
        return read
    raise TypeError(f"no JSON form for {tp!r}")
