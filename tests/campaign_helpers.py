"""Reading a campaign directory, the only record a campaign leaves."""

from __future__ import annotations

from pathlib import Path


def written(out: Path) -> list[str]:
    """The sorted relative paths of every file under ``out``."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
