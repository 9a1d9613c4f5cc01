"""Deterministic JSON emission, and integer and number reading for parsed input.

The stdlib encoder prints floats with shortest round-trip repr; artifact
files instead carry every float with 17 significant digits so that output
bytes are stable across platforms and numpy versions.
"""
from __future__ import annotations

import sys

from .errors import ParameterDomainError


def integer(value, what: str) -> int:
    """A JSON int or integral float (1e5) as an int, else ParameterDomainError."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParameterDomainError(f"{what} must be an integer, got {value!r}")


def number(value, what: str) -> float:
    """A JSON int or float that is a finite float, as a float, else
    ParameterDomainError (true, "1.5", NaN and 1e400 are not)."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ParameterDomainError(f"{what} must be a finite number, got {value!r}")


def _fmt(value, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    close = " " * (indent * level)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        import json
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}"{k}": {_fmt(v, indent, level + 1)}' for k, v in value.items())
        return "{\n" + items + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(_fmt(v, indent, level) for v in value) + "]"
        items = ",\n".join(f"{pad}{_fmt(v, indent, level + 1)}" for v in value)
        return "[\n" + items + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj, indent: int = 1) -> str:
    """Serialize dicts/lists/scalars; floats get 17 significant digits."""
    return _fmt(obj, indent, 0) + "\n"
