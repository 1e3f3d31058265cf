"""Campaign execution: expand a config into runs, execute them, write outputs.

A campaign is the cross product datasets x algorithms x seeds.  Runs are
independent and may execute across a process pool; every output file except
the transient log lines is a pure function of the config, so a rerun
produces byte-identical files.

Outputs stream: the parent process writes each run's files (history,
parameter snapshots, boundary grids, or the traceback of a failed run) as
soon as that run's result reaches it, in grid order, and then keeps only the
run's final grouped errors.  Tables, dataset dumps, the gap curve and the
manifest come last, so a directory without ``manifest.json`` is an
incomplete campaign that holds the files of every run finished before it
stopped.
"""

from __future__ import annotations

import json
import os
import re
import sys
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
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
from .ioutil import write_text
from .mlp import save_params
from .report import (
    AggregateResult,
    BoundaryGrid,
    GroupErrors,
    aggregate_runs,
    boundary_grid,
    default_bbox,
    group_errors,
    write_grid_csv,
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


def _outcomes(config: CampaignConfig, runs: list[RunSpec], n_workers: int):
    """Yield (run_id, record or None, traceback or None) per run, in grid order.

    Serially each run executes when the next outcome is asked for.  On a pool
    every run is submitted up front and results are taken in submission
    order.  A dead worker breaks the pool; each run it left without a result
    (in flight or queued) is then retried once, alone on a fresh one-worker
    pool, so only a run whose own worker dies comes back as a failure.
    Closing the generator cancels the runs that have not started.
    """
    if n_workers == 1 or len(runs) <= 1:
        for spec in runs:
            yield _execute_payload((config, spec))
        return
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        pending = deque(pool.submit(_execute_payload, (config, spec)) for spec in runs)
        try:
            for spec in runs:
                # popped, so a consumed result is not kept alive by its future
                future = pending.popleft()
                try:
                    yield future.result()
                except BrokenProcessPool:
                    yield _execute_alone(config, spec)
        finally:
            for future in pending:
                future.cancel()


def _execute_alone(config: CampaignConfig, spec: RunSpec):
    """One run on its own one-worker pool; a failure if that worker dies too."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_execute_payload, (config, spec)).result()
        except BrokenProcessPool:
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
    """Execute every run, writing its files as it completes; then the tables,
    dataset dumps, gap curve and manifest.

    Results are taken in grid order whatever the worker count, so the log
    lines and ``CampaignOutcome.files`` are deterministic.  Run failures are
    isolated: a run that raises, or whose pool worker dies, gets its traceback
    in ``failures/<run_id>.txt``, a ``"failure"`` entry in the manifest and
    the outcome, and only healthy runs feed the tables.  All writes happen in
    this process; workers only compute.
    """
    n_workers = resolve_workers(workers)
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = build_runs(config)

    student_finals: dict[str, GroupErrors] = {}
    ema_finals: dict[str, GroupErrors] = {}
    failures: dict[str, str] = {}
    files: list[Path] = []
    with closing(_outcomes(config, runs, n_workers)) as outcomes:
        for run_id, record, error in outcomes:
            if error is not None:
                failures[run_id] = error
                (out / "failures").mkdir(exist_ok=True)
                failure_path = out / _failure_name(run_id)
                write_text(failure_path, error)
                files.append(failure_path)
                print(f"[skewlab] FAILED {run_id}\n{error}", file=log)
                continue
            files.extend(_write_run(record, out))
            # all the tables need of a run: its final errors, grouped
            last = record.result.history[-1]
            student_finals[run_id] = group_errors(last.student_errors, record.labeled_counts)
            if last.ema_errors is not None:
                ema_finals[run_id] = group_errors(last.ema_errors, record.labeled_counts)
            print(f"[skewlab] done {run_id} "
                  f"({record.result.wall_seconds:.1f}s)", file=log)
            del record  # free its parameters and grids before the next run

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

    student_table = _aggregate(config, student_finals)
    ema_table = _aggregate(config, ema_finals)
    if student_table:
        files.extend(write_report(student_table, out))
    if ema_table:
        files.extend(write_report(ema_table, out, table_name="table_ema.csv"))

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
        "runs": [_manifest_entry(config, spec, spec.run_id in failures) for spec in runs],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    files.append(manifest_path)

    return CampaignOutcome(out_dir=out, files=tuple(files), failures=failures,
                           student_table=student_table, ema_table=ema_table)


def _failure_name(run_id: str) -> str:
    return f"failures/{run_id}.txt"


def _write_run(record: RunRecord, out: Path) -> list[Path]:
    """Write one finished run's history, parameter snapshots and grids."""
    run_id = record.spec.run_id
    result = record.result
    (out / "runs").mkdir(exist_ok=True)
    (out / "params").mkdir(exist_ok=True)
    history_path = out / "runs" / f"{run_id}.csv"
    write_history_csv(result, history_path)
    written = [history_path]
    snapshots = [(result.params, run_id), (result.ema_params, f"{run_id}_ema")]
    for params, name in snapshots:
        if params is not None:
            written.append(out / "params" / f"{name}.txt")
            save_params(params, written[-1])
    grids = [(record.student_grid, run_id), (record.ema_grid, f"{run_id}_ema")]
    for grid, name in grids:
        if grid is not None:
            written.append(out / f"grid_{name}.csv")
            write_grid_csv(grid, written[-1])
    return written


def _manifest_entry(config: CampaignConfig, spec: RunSpec, failed: bool) -> dict:
    entry = {
        "run_id": spec.run_id,
        "dataset": config.datasets[spec.dataset_index].name,
        "algorithm": config.algorithms[spec.algorithm_index].name,
        "seed": spec.seed,
        "status": "failed" if failed else "ok",
    }
    if failed:
        entry["failure"] = _failure_name(spec.run_id)
    return entry


def _aggregate(config: CampaignConfig, finals: dict[str, GroupErrors]
               ) -> dict[str, dict[str, AggregateResult]]:
    """dataset -> algorithm -> aggregate of the runs' final grouped errors."""
    table: dict[str, dict[str, AggregateResult]] = {}
    for dataset in config.datasets:
        for algo in config.algorithms:
            per_seed = [finals[run_id] for seed in config.seeds
                        if (run_id := f"{dataset.name}__{algo.name}__seed{seed}") in finals]
            if per_seed:
                table.setdefault(dataset.name, {})[algo.name] = aggregate_runs(per_seed)
    return table
