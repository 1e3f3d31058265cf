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
_BAD = object()  # a value whose problem is already reported
_DERIVED = object()  # the default of a setting with derive, until construction derives it


def setting(default=MISSING, *, bound: str | tuple | None = None, choices: tuple = (),
            required: bool = False, form: str | None = None, item=None, derive=None):
    """bound is ">=m", ">m" or an interval such as "(0,1]"; a fixed-length list
    has one per place.  form, what the value must be, replaces a bound's message
    and is the message for a list that is not one, is empty but required, or
    has a bad place.  item is the setting each item of a variable-length list
    is read with.  derive, given the instance, makes the default on
    construction, after the settings declared before it are checked."""
    return field(default=_DERIVED if derive else default,
                 metadata={"bound": bound, "choices": choices, "required": required,
                           "form": form, "item": item, "derive": derive})


_ITEM = setting()


@cache
def _declared(cls) -> tuple:
    """(field, type) of each setting; an optional block's type is its class."""
    hints, declared = typing.get_type_hints(cls), []
    for f in fields(cls):
        if "bound" in f.metadata:
            args = typing.get_args(hints[f.name])
            declared.append((f, args[0] if type(None) in args else hints[f.name]))
    return tuple(declared)


@cache
def _shape(hint) -> tuple:
    """("list", item type), ("places", place types), or ("block" or "scalar", hint)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return ("list", args[0]) if args[1:] == (Ellipsis,) else ("places", args)
    return ("block" if is_dataclass(hint) else "scalar"), hint


def _outside(bound, value) -> str | None:
    if bound is None:
        return None
    if isinstance(bound, tuple):
        inside = len(value) == len(bound) and not any(map(_outside, bound, value))
        return None if inside else "out of range"
    if bound.startswith(">="):
        return None if value >= float(bound[2:]) else f"must be at least {bound[2:]}"
    if bound.startswith(">"):
        return None if value > float(bound[1:]) else "out of range"
    lo, hi = (float(end) for end in bound[1:-1].split(","))
    inside = ((lo < value if bound[0] == "(" else lo <= value)
              and (value <= hi if bound[-1] == "]" else value < hi))
    return None if inside else f"must lie in {bound}"


def _problem(f, value) -> str | None:
    meta = f.metadata
    if meta["choices"] and value not in meta["choices"]:
        return f"must be one of {sorted(meta['choices'])}, got {value!r}"
    problem = _outside(meta["bound"], value)
    return problem if problem is None or meta["form"] is None else f"must be {meta['form']}"


def _check(f, name: str, value) -> None:
    if (item := f.metadata["item"]) is None:
        if (problem := _problem(f, value)) is not None:
            raise ValueError(f"{name} {problem}")
        return
    if f.metadata["required"] and not value:
        raise ValueError(f"{name} must be {f.metadata['form']}")
    for i, entry in enumerate(value):
        _check(item, f"{name}[{i}]", entry)


class Settings:
    """Base of the settings dataclasses: construction derives, then checks, each setting."""

    def __post_init__(self) -> None:
        for f, _ in _declared(type(self)):
            if getattr(self, f.name) is _DERIVED:
                object.__setattr__(self, f.name, f.metadata["derive"](self))
            _check(f, f.name, getattr(self, f.name))


def _fits(hint: type, value) -> bool:
    """Whether a JSON value is a str, a bool, an int that every JSON reader
    reads exactly (|n| < 2**53) or a finite real number, as hint asks."""
    return (isinstance(value, bool) == (hint is bool) and isinstance(value, _TYPES[hint][0])
            and (hint is not int or abs(value) < 2**53)
            and (hint is not float or abs(value) <= sys.float_info.max))


def _read(f, hint, value, path: str, errors: list[str]):
    """value read as hint under f's declaration, or _BAD."""
    (kind, arg), meta, problem = _shape(hint), f.metadata, None
    if kind == "block":
        if not isinstance(value, dict):
            problem = "must be an object"
        else:
            values = read(hint, value, path, errors)
            if any(g.metadata["required"] and g.name not in values for g, _ in _declared(hint)):
                return _BAD
            return values if f.default is MISSING else hint(**values)
    elif kind == "list":
        if not isinstance(value, list) or (meta["required"] and not value):
            problem = f"must be {meta['form']}"
        else:
            items = [_read(meta["item"] or _ITEM, arg, v, f"{path}[{i}]", errors)
                     for i, v in enumerate(value)]
            if is_dataclass(arg):  # a bad entry keeps its place, as None
                return tuple(None if v is _BAD else v for v in items)
            return tuple(v for v in items if v is not _BAD)
    elif kind == "places":
        if (not isinstance(value, list) or len(value) != len(arg)
                or not all(map(_fits, arg, value))):
            problem = f"must be {meta['form']}"
        else:
            value = tuple(float(v) if h is float else v for h, v in zip(arg, value))
            problem = _problem(f, value)
    elif not _fits(hint, value):
        problem = _TYPES[hint][1]
    else:
        value = float(value) if hint is float else value
        problem = _problem(f, value)
    if problem is None:
        return value
    errors.append(f"{path}: {problem}")
    return _BAD


def read(cls, obj: dict, path: str, errors: list[str]) -> dict:
    """Keyword arguments for cls from the JSON object obj, each problem appended
    to errors as ``path.key: message``.  A bad or absent setting falls back to
    its default (JSON null is absent where the default is None); one without a
    default is left out.  A block without a default is read as keyword
    arguments, from {} if it is absent or bad, for the caller to complete, and
    a list of them keeps None in place of an entry that is bad or misses a
    required key, so that later entries keep their index."""
    declared = _declared(cls)
    prefix = f"{path}." if path else ""
    known = {f.name for f, _ in declared}
    errors.extend(f"{prefix}{key}: unknown key" for key in obj if key not in known)
    values = {}
    for f, hint in declared:
        if f.name in obj and not (obj[f.name] is None and f.default is None):
            value = _read(f, hint, obj[f.name], prefix + f.name, errors)
        else:
            if f.metadata["required"]:
                errors.append(f"{prefix}{f.name}: required key is missing")
            value = _BAD
        if value is _BAD:
            value = (read(hint, {}, prefix + f.name, errors)
                     if f.default is MISSING and is_dataclass(hint) else f.default)
        if value is not MISSING:
            values[f.name] = value
    return values


def dump(value):
    """Plain JSON data: settings dataclasses as objects keyed by field name, tuples as lists."""
    if isinstance(value, Settings):
        return {f.name: dump(getattr(value, f.name)) for f, _ in _declared(type(value))}
    if isinstance(value, tuple):
        return [dump(item) for item in value]
    return value
