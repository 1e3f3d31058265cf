"""Campaign execution: expand a config into runs, execute them, write outputs.

A campaign is the cross product datasets x algorithms x seeds.  Runs are
independent and may execute across a process pool; every output file except
the transient log lines is a pure function of the config, so a rerun
produces byte-identical files.
"""

from __future__ import annotations

import json
import os
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coeffs import write_gap_curve
from .config import CampaignConfig, config_digest
from .datasets import (
    GENERATORS,
    CisslSplit,
    Dataset2D,
    imbalance_counts,
    make_cissl_split,
    write_split_csv,
)
from .mlp import save_params
from .report import (
    AggregateResult,
    BoundaryGrid,
    aggregate_runs,
    boundary_grid,
    default_bbox,
    group_errors,
    write_report,
)
from .training import RunResult, train, write_history_csv

WORKERS_ENV = "SKEWLAB_WORKERS"


@dataclass(frozen=True)
class RunSpec:
    """One cell of the campaign grid, addressed by a stable id."""

    run_id: str
    dataset_index: int
    algorithm_index: int
    seed: int


@dataclass(frozen=True, eq=False)
class RunRecord:
    spec: RunSpec
    labeled_counts: np.ndarray
    result: RunResult
    student_grid: BoundaryGrid | None
    ema_grid: BoundaryGrid | None


@dataclass(frozen=True, eq=False)
class CampaignOutcome:
    out_dir: Path
    files: tuple[Path, ...]
    failures: dict[str, str]
    student_table: dict[str, dict[str, AggregateResult]]
    ema_table: dict[str, dict[str, AggregateResult]]

    @property
    def ok(self) -> bool:
        return not self.failures


def build_runs(config: CampaignConfig) -> list[RunSpec]:
    runs = []
    for di, dataset in enumerate(config.datasets):
        for ai, algo in enumerate(config.algorithms):
            for seed in config.seeds:
                run_id = f"{dataset.name}__{algo.name}__seed{seed}"
                runs.append(RunSpec(run_id, di, ai, seed))
    return runs


def prepare_split(config: CampaignConfig, dataset_index: int,
                  seed: int) -> tuple[Dataset2D, CisslSplit]:
    """Generate the balanced pool for one (dataset, seed) pair and carve it.

    Pool and split seeds derive from (seed, dataset_index) so datasets vary
    independently of each other while staying paired across algorithms.
    """
    ds = config.datasets[dataset_index]
    pool_seed, split_seed = np.random.SeedSequence([seed, dataset_index]).generate_state(2)
    pool = GENERATORS[ds.kind](ds.n_pool_per_class, ds.data_noise, int(pool_seed))
    labeled_counts = imbalance_counts(ds.labeled_max, ds.rho_l, pool.n_classes)
    split = make_cissl_split(pool, labeled_counts, ds.unlabeled_type, ds.rho_l,
                             ds.unlabeled_max, ds.val_per_class, int(split_seed))
    return pool, split


def execute_run(config: CampaignConfig, spec: RunSpec) -> RunRecord:
    algo = config.algorithms[spec.algorithm_index]
    pool, split = prepare_split(config, spec.dataset_index, spec.seed)
    result = train(split, algo, config.train_config(spec.seed, algo.w_max))
    student_grid = ema_grid = None
    if config.report.grids:
        bbox = default_bbox(pool.points)
        student_grid = boundary_grid(result.params, bbox, config.report.grid_resolution)
        if result.ema_params is not None:
            ema_grid = boundary_grid(result.ema_params, bbox, config.report.grid_resolution)
    return RunRecord(spec=spec, labeled_counts=split.labeled_counts, result=result,
                     student_grid=student_grid, ema_grid=ema_grid)


def run_one(config: CampaignConfig, run_id: str) -> RunRecord:
    """Reproduce a single run by manifest id, bypassing the rest of the grid."""
    for spec in build_runs(config):
        if spec.run_id == run_id:
            return execute_run(config, spec)
    raise KeyError(f"run id {run_id!r} is not in this campaign")


def _execute_payload(payload: tuple[CampaignConfig, RunSpec]):
    config, spec = payload
    try:
        return spec.run_id, execute_run(config, spec), None
    except Exception:
        return spec.run_id, None, traceback.format_exc()


def resolve_workers(workers: int | None) -> int:
    """workers if given, else SKEWLAB_WORKERS, else 1; must be a positive integer."""
    source, value = (("workers", workers) if workers is not None
                     else (WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")))
    if not re.fullmatch(r"\s*[0-9]+\s*", str(value)) or int(value) < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return int(value)


def run_campaign(config: CampaignConfig, *, workers: int | None = None,
                 out_dir: str | Path | None = None,
                 log=sys.stderr) -> CampaignOutcome:
    """Execute every run, then write per-run files, tables, and the manifest.

    Run failures are isolated: the campaign finishes, the failure lands in
    the manifest and the outcome, and only healthy runs feed the tables.
    """
    n_workers = resolve_workers(workers)
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = build_runs(config)

    records: dict[str, RunRecord] = {}
    failures: dict[str, str] = {}
    payloads = [(config, spec) for spec in runs]
    if n_workers > 1 and len(runs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(_execute_payload, payloads))
    else:
        outcomes = [_execute_payload(p) for p in payloads]
    for run_id, record, error in outcomes:
        if error is not None:
            failures[run_id] = error
            print(f"[skewlab] FAILED {run_id}\n{error}", file=log)
        else:
            records[run_id] = record
            print(f"[skewlab] done {run_id} "
                  f"({record.result.wall_seconds:.1f}s)", file=log)

    files: list[Path] = []
    runs_dir = out / "runs"
    params_dir = out / "params"
    for spec in runs:
        record = records.get(spec.run_id)
        if record is None:
            continue
        runs_dir.mkdir(exist_ok=True)
        params_dir.mkdir(exist_ok=True)
        history_path = runs_dir / f"{spec.run_id}.csv"
        write_history_csv(record.result, history_path)
        files.append(history_path)
        model_path = params_dir / f"{spec.run_id}.txt"
        save_params(record.result.params, model_path)
        files.append(model_path)
        if record.result.ema_params is not None:
            ema_path = params_dir / f"{spec.run_id}_ema.txt"
            save_params(record.result.ema_params, ema_path)
            files.append(ema_path)

    if config.report.dump_datasets:
        data_dir = out / "datasets"
        data_dir.mkdir(exist_ok=True)
        for di, dataset in enumerate(config.datasets):
            for seed in config.seeds:
                try:
                    _, split = prepare_split(config, di, seed)
                except Exception:
                    # already recorded as per-run failures; nothing to dump
                    continue
                split_path = data_dir / f"{dataset.name}_seed{seed}.csv"
                write_split_csv(split, split_path)
                files.append(split_path)

    student_table = _aggregate(config, records, use_ema=False)
    ema_table = _aggregate(config, records, use_ema=True)
    grids: dict[str, BoundaryGrid] = {}
    for spec in runs:
        record = records.get(spec.run_id)
        if record is None or record.student_grid is None:
            continue
        grids[spec.run_id] = record.student_grid
        if record.ema_grid is not None:
            grids[f"{spec.run_id}_ema"] = record.ema_grid
    if student_table or grids:
        files.extend(write_report(student_table, grids, out))
    if ema_table:
        files.extend(write_report(ema_table, {}, out, table_name="table_ema.csv"))

    if config.gap_curve is not None:
        gc = config.gap_curve
        curve_path = out / "gap_curve.csv"
        write_gap_curve(curve_path, gc.max_lag, gc.delta, gc.gamma)
        files.append(curve_path)

    manifest_path = out / "manifest.json"
    manifest = {
        "name": config.name,
        "config_sha256": config_digest(config),
        "config": config.to_dict(),
        "runs": [{
            "run_id": spec.run_id,
            "dataset": config.datasets[spec.dataset_index].name,
            "algorithm": config.algorithms[spec.algorithm_index].name,
            "seed": spec.seed,
            "status": "failed" if spec.run_id in failures else "ok",
        } for spec in runs],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    files.append(manifest_path)

    return CampaignOutcome(out_dir=out, files=tuple(files), failures=failures,
                           student_table=student_table, ema_table=ema_table)


def _aggregate(config: CampaignConfig, records: dict[str, RunRecord],
               *, use_ema: bool) -> dict[str, dict[str, AggregateResult]]:
    """dataset -> algorithm -> aggregate of final-iteration validation errors."""
    table: dict[str, dict[str, AggregateResult]] = {}
    for dataset in config.datasets:
        for algo in config.algorithms:
            per_seed = []
            for seed in config.seeds:
                record = records.get(f"{dataset.name}__{algo.name}__seed{seed}")
                if record is None or not record.result.history:
                    continue
                last = record.result.history[-1]
                errors = last.ema_errors if use_ema else last.student_errors
                if errors is None:
                    continue
                per_seed.append(group_errors(errors, record.labeled_counts))
            if per_seed:
                table.setdefault(dataset.name, {})[algo.name] = aggregate_runs(per_seed)
    return table
