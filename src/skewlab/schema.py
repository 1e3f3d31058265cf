"""Settings declared once, on the dataclass fields that carry them at run time.

`setting` stores a field's default and its bound or choices in its metadata;
the field's name is its JSON key.  `Settings` subclasses check them on
construction (``beta must lie in (0,1]``), `read` checks JSON against them
(``algorithms[0].scl.beta: must lie in (0,1]``) and `dump` writes the JSON back.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import MISSING, field, fields, is_dataclass
from functools import cache

_TYPES = {str: (str, "must be a string"), bool: (bool, "must be a boolean"),
          int: (int, "must be an integer"), float: ((int, float), "must be a real number")}


def setting(default=MISSING, *, bound: str | None = None, choices: tuple = (),
            required: bool = False):
    """bound is ">=m", ">m" or an interval such as "(0,1]".  A setting that
    JSON may omit but that has no default gets one the config reader derives
    from other settings."""
    return field(default=default, metadata={"bound": bound, "choices": choices,
                                            "required": required})


@cache
def _declared(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls) if "bound" in f.metadata)


def _problem(f, value) -> str | None:
    bound, choices = f.metadata["bound"], f.metadata["choices"]
    if choices and value not in choices:
        return f"must be one of {sorted(choices)}, got {value!r}"
    if bound is None:
        return None
    if bound.startswith(">="):
        return None if value >= float(bound[2:]) else f"must be at least {bound[2:]}"
    if bound.startswith(">"):
        return None if value > float(bound[1:]) else "out of range"
    lo, hi = (float(end) for end in bound[1:-1].split(","))
    inside = ((lo < value if bound[0] == "(" else lo <= value)
              and (value <= hi if bound[-1] == "]" else value < hi))
    return None if inside else f"must lie in {bound}"


class Settings:
    """Base of the settings dataclasses: construction checks every declared setting."""

    def __post_init__(self) -> None:
        for f, _ in _declared(type(self)):
            if (problem := _problem(f, getattr(self, f.name))) is not None:
                raise ValueError(f"{f.name} {problem}")


def fits(hint: type, value) -> bool:
    """Whether a JSON value is a str, bool, int or finite real number, as hint asks."""
    return (isinstance(value, bool) == (hint is bool) and isinstance(value, _TYPES[hint][0])
            and (hint is not float or abs(value) <= sys.float_info.max))


def read(cls, obj: dict, path: str, errors: list[str]) -> dict | None:
    """Keyword arguments for cls from the JSON object obj, each problem appended
    to errors as ``path.key: message``.  A bad or absent setting falls back to
    its default; one without a default is left out, and a required one makes
    the result None.  Settings that are neither scalars nor blocks with a
    default instance are left to the caller."""
    declared = _declared(cls)
    prefix = f"{path}." if path else ""
    known = {f.name for f, _ in declared}
    errors.extend(f"{prefix}{key}: unknown key" for key in obj if key not in known)
    values, failed = {}, False
    for f, hint in declared:
        nested = is_dataclass(hint) and f.default is not MISSING
        value, problem = obj.get(f.name), None
        if f.name not in obj:
            problem = "required key is missing" if f.metadata["required"] else None
        elif nested and isinstance(value, dict):
            values[f.name] = hint(**read(hint, value, prefix + f.name, errors))
            continue
        elif nested:
            problem = "must be an object"
        elif hint not in _TYPES:
            continue  # read by the caller
        elif not fits(hint, value):
            problem = _TYPES[hint][1]
        else:
            value = float(value) if hint is float else value
            if (problem := _problem(f, value)) is None:
                values[f.name] = value
                continue
        if problem is not None:
            errors.append(f"{prefix}{f.name}: {problem}")
        failed = failed or f.metadata["required"]
        if f.default is not MISSING:
            values[f.name] = f.default
    return None if failed else values


def dump(value):
    """Plain JSON data: settings dataclasses as objects keyed by field name, tuples as lists."""
    if isinstance(value, Settings):
        return {f.name: dump(getattr(value, f.name)) for f, _ in _declared(type(value))}
    if isinstance(value, tuple):
        return [dump(item) for item in value]
    return value
