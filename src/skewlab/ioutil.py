"""Small text-serialization helpers shared by the CSV and snapshot writers.

Every real is written with 17 significant digits, so a float64 round-trips
exactly.  The format is spelled once, below: ``fmt`` applies it to one
value, and bulk writers put ``FLOAT`` (the same spec as a ``%`` field) into
one template per row and render whole columns taken with ``.tolist()``.
Both give the same text for every float, nan and inf included.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterable, Sequence

_FLOAT_SPEC = ".17g"
FLOAT = "%" + _FLOAT_SPEC


def fmt(value: float) -> str:
    """Format one real with 17 significant digits."""
    return format(float(value), _FLOAT_SPEC)


def write_text(path: str | os.PathLike[str], text: str | Iterable[str]) -> None:
    """Write text, one string or an iterable of chunks written in turn, as
    UTF-8 with unix newlines, whatever the platform.

    The text goes to ``<path>.tmp``, which then replaces path, so path holds
    its old bytes or all of the new ones; a write that raises, or an iterable
    that raises, leaves no temporary file behind.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str | os.PathLike[str], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write rows of already-formatted cells.

    The byte layout must not depend on locale or platform, so this avoids the
    csv module's dialect machinery; no cell produced in this package contains
    a comma or quote.
    """
    write_text(path, "".join([",".join(header) + "\n"]
                             + [",".join(row) + "\n" for row in rows]))


def read_csv(path: str | os.PathLike[str]) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip() != ""]
    if not lines:
        raise ValueError(f"{path}: empty CSV file, no header")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]
