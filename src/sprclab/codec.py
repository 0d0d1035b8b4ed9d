"""Generic JSON codec for the (nested) config dataclasses.

Field types come from the dataclass annotations, so a config class is its
own schema: nested dataclasses, `tuple[X, ...]` and scalars are handled,
and no key list is written out anywhere.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints


def encode(value):
    """Plain JSON data from a config value: dataclasses become objects and
    tuples become lists, recursively."""
    if is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def decode(cls, data, path: str = ""):
    """Build a value of type `cls` from plain JSON data.

    Unknown keys, missing required keys and values of the wrong type raise
    a ValueError naming their dotted path, and so do non-finite floats
    (JSON's Infinity and NaN); omitted keys keep their defaults. A JSON
    integer is accepted where a float is expected.
    """
    where = path or "config"
    if is_dataclass(cls):
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected an object")
        hints = get_type_hints(cls)
        prefix = f"{path}." if path else ""
        for key in data:
            if key not in hints:
                raise ValueError(f"{prefix}{key}: unknown key")
        for f in fields(cls):
            if (f.name not in data and f.default is MISSING
                    and f.default_factory is MISSING):
                raise ValueError(f"{prefix}{f.name}: missing")
        kwargs = {key: decode(hints[key], value, prefix + key)
                  for key, value in data.items()}
        try:
            return cls(**kwargs)
        except ValueError as exc:  # a field check in __post_init__
            raise ValueError(f"{prefix}{exc}") from None
    if get_origin(cls) is tuple:
        if not isinstance(data, list):
            raise ValueError(f"{where}: expected a list")
        item = get_args(cls)[0]
        return tuple(decode(item, v, f"{path}[{i}]")
                     for i, v in enumerate(data))
    if cls is float and type(data) is int:
        return float(data)
    if type(data) is not cls:
        raise ValueError(f"{where}: expected {cls.__name__}, "
                         f"got {type(data).__name__}")
    if cls is float and not math.isfinite(data):
        raise ValueError(f"{where}: must be finite, got {data}")
    return data
