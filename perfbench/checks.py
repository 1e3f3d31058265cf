"""Output checks for one repetition of a campaign.

Every file a campaign writes belongs either to one run (its history, its
parameter snapshots, its boundary grids) or to the campaign as a whole.  A
check that fails on a run's own files fails that run; a check that fails on a
campaign-level file fails every run of the repetition.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from skewlab.report import read_table

from workloads import EMA_KINDS


def file_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative posix path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_of(path: str, run_ids: set[str]) -> str | None:
    """The run a campaign output file belongs to, or None for a campaign-level file."""
    stem = Path(path).stem
    for candidate in (stem, stem.removesuffix("_ema")):
        candidate = candidate.removeprefix("grid_")
        if candidate in run_ids:
            return candidate
    return None


def _combine(items: list[str]) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


@dataclass(frozen=True)
class RepOutputs:
    """Digests of one repetition's outputs, split by owner."""

    runs: dict[str, str]
    campaign: str

    @classmethod
    def collect(cls, digests: dict[str, str], run_ids: list[str]) -> "RepOutputs":
        ids = set(run_ids)
        owned: dict[str | None, list[str]] = {}
        for path, digest in digests.items():
            owned.setdefault(run_of(path, ids), []).append(f"{path}:{digest}")
        return cls(runs={r: _combine(owned.get(r, [])) for r in run_ids},
                   campaign=_combine(owned.get(None, [])))

    def mismatches(self, reference: "RepOutputs") -> set[str]:
        """Runs whose outputs differ from the reference's; all of them if any
        campaign-level file differs."""
        if self.campaign != reference.campaign:
            return set(self.runs)
        return {r for r, d in self.runs.items() if reference.runs.get(r) != d}


def _finite_table(path: Path, expected: set[tuple[str, str]]) -> bool:
    if not path.is_file():
        return not expected
    table = read_table(path)
    cells = {(ds, algo): groups for ds, per_algo in table.items()
             for algo, groups in per_algo.items()}
    if set(cells) != expected:
        return False
    return all(math.isfinite(mean) and (std is None or math.isfinite(std))
               for groups in cells.values() for mean, std in groups.values())


def check_campaign(out: Path, exit_code: int, config: dict) -> tuple[list[str], set[str]]:
    """Run ids of the campaign and those that failed or failed a check.

    Checks: exit code 0; the manifest lists every run as ok; each run wrote its
    history and parameters; table.csv and table_ema.csv parse to finite errors
    for every (dataset, algorithm) cell they should hold.
    """
    datasets = [d["name"] for d in config["datasets"]]
    algorithms = config["algorithms"]
    run_ids = [f"{d}__{a['name']}__seed{s}" for d in datasets for a in algorithms
               for s in config["seeds"]]
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        status = {r["run_id"]: r["status"] for r in manifest["runs"]}
    except (OSError, ValueError, KeyError, TypeError):
        return run_ids, set(run_ids)
    failed = {r for r in run_ids if status.get(r) != "ok"
              or not (out / "runs" / f"{r}.csv").is_file()
              or not (out / "params" / f"{r}.txt").is_file()}
    cells = {(d, a["name"]): a["kind"] for d in datasets for a in algorithms
             if any(f"{d}__{a['name']}__seed{s}" not in failed for s in config["seeds"])}
    tables_ok = (_finite_table(out / "table.csv", set(cells))
                 and _finite_table(out / "table_ema.csv",
                                   {c for c, kind in cells.items() if kind in EMA_KINDS}))
    if exit_code != 0 or not tables_ok:
        failed = set(run_ids)
    return run_ids, failed
