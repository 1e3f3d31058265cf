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
stopped.  The directory is the campaign's only record.
"""

from __future__ import annotations

import json
import os
import re
import sys
import traceback
from collections import deque
from contextlib import closing, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coeffs import write_gap_curve
from .config import CampaignConfig, config_digest
from .datasets import (
    KINDS,
    CisslSplit,
    Dataset2D,
    imbalance_counts,
    make_cissl_split,
    write_split_csv,
)
from .ioutil import write_text
from .mlp import save_params
from .report import (
    BoundaryGrid,
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
    pool = KINDS[ds.kind][0](ds.n_pool_per_class, ds.data_noise, int(pool_seed))
    labeled_counts = imbalance_counts(ds.labeled_max, ds.rho_l, pool.n_classes)
    split = make_cissl_split(pool, labeled_counts, ds.unlabeled_type, ds.rho_l,
                             ds.unlabeled_max, ds.val_per_class, int(split_seed))
    return pool, split


def execute_run(config: CampaignConfig, spec: RunSpec) -> RunRecord:
    algo = config.algorithms[spec.algorithm_index]
    pool, split = prepare_split(config, spec.dataset_index, spec.seed)
    result = train(split, algo, config.training, spec.seed)
    student_grid = ema_grid = None
    if config.report.grids:
        bbox = default_bbox(pool.points)
        student_grid = boundary_grid(result.params, bbox, config.report.grid_resolution)
        if result.ema_params is not None:
            ema_grid = boundary_grid(result.ema_params, bbox, config.report.grid_resolution)
    return RunRecord(spec=spec, labeled_counts=split.labeled.class_counts(), result=result,
                     student_grid=student_grid, ema_grid=ema_grid)


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
    (in flight, queued or never submitted) then runs alone on a fresh
    one-worker pool, so only a run whose own worker dies fails.
    Closing the generator cancels the runs that have not started.  A pool
    gets at most one worker per run, since it starts them all at once; its
    stack (multiprocessing, sockets, logging) is imported on that path only.
    """
    n_workers = min(n_workers, len(runs))
    if n_workers <= 1:
        for spec in runs:
            yield _execute_payload((config, spec))
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def alone(spec: RunSpec):
        """The run on its own one-worker pool; a failure if that worker dies too."""
        with ProcessPoolExecutor(max_workers=1) as solo:
            try:
                return solo.submit(_execute_payload, (config, spec)).result()
            except BrokenProcessPool:
                return spec.run_id, None, traceback.format_exc()

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        pending = deque()
        with suppress(BrokenProcessPool):  # once a worker dies, every later submit raises
            for spec in runs:
                pending.append(pool.submit(_execute_payload, (config, spec)))
        try:
            for spec in runs:
                # popped, so a consumed result is not kept alive by its future
                future = pending.popleft() if pending else None
                try:
                    yield alone(spec) if future is None else future.result()
                except BrokenProcessPool:
                    yield alone(spec)
        finally:
            for future in pending:
                future.cancel()


def resolve_workers(workers: int | None) -> int:
    """workers if given, else SKEWLAB_WORKERS, else 1; must be a positive integer."""
    source, value = (("workers", workers) if workers is not None
                     else (WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")))
    if not re.fullmatch(r"\s*[0-9]+\s*", str(value)) or int(value) < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return int(value)


def prepare_outputs(config: CampaignConfig, out: Path) -> None:
    """Create the output directory, runs/ and params/ if the campaign has runs,
    and datasets/ if it dumps them, so that a path in the way fails before any
    run trains.  failures/ is made only by a failed run, but a failures path
    that is not a directory is rejected here too."""
    out.mkdir(parents=True, exist_ok=True)
    names = ["runs", "params"] if config.datasets and config.algorithms else []
    for name in names + (["datasets"] if config.report.dump_datasets else []):
        (out / name).mkdir(exist_ok=True)
    failures = out / "failures"
    if failures.exists() and not failures.is_dir():
        raise NotADirectoryError(f"{failures} is not a directory")


def run_campaign(config: CampaignConfig, *, workers: int | None = None,
                 out_dir: str | Path | None = None,
                 log=sys.stderr) -> dict[str, str]:
    """Execute every run, writing its files as it completes; then the tables,
    dataset dumps, gap curve and manifest.  Returns each failed run's
    traceback by run id, in grid order.

    Results are taken in grid order whatever the worker count, so the log
    lines are deterministic.  Run failures are isolated: a run that raises, or
    whose pool worker dies, gets its traceback in ``failures/<run_id>.txt``
    and a ``"failure"`` entry in the manifest, and only healthy runs feed the
    tables.  A directory that holds an earlier campaign of the same config
    ends as a fresh one would: each run removes the files of the other
    outcome, a table with no cells and an empty ``failures/`` go.  All writes
    happen in this process; workers only compute.
    """
    n_workers = resolve_workers(workers)
    out = Path(out_dir if out_dir is not None else config.output_dir)
    prepare_outputs(config, out)
    runs = build_runs(config)

    # student and EMA target: dataset -> algorithm -> final grouped errors per seed
    finals: tuple[dict, dict] = ({}, {})
    failures: dict[str, str] = {}
    with closing(_outcomes(config, runs, n_workers)) as outcomes:
        for run_id, record, error in outcomes:
            if error is not None:
                failures[run_id] = error
                for path in _run_paths(out, run_id):
                    path.unlink(missing_ok=True)
                (out / "failures").mkdir(exist_ok=True)
                write_text(out / _failure_name(run_id), error)
                print(f"[skewlab] FAILED {run_id}\n{error}", file=log)
                continue
            _write_run(record, out)
            # all the tables need of a run: its final errors, grouped; runs
            # arrive in grid order, so each cell lists its seeds in order
            last = record.result.history[-1]
            dataset = config.datasets[record.spec.dataset_index].name
            algo = config.algorithms[record.spec.algorithm_index].name
            for cells, errors in zip(finals, (last.student_errors, last.ema_errors)):
                if errors is not None:
                    cells.setdefault(dataset, {}).setdefault(algo, []).append(
                        group_errors(errors, record.labeled_counts))
            print(f"[skewlab] done {run_id} "
                  f"({record.result.wall_seconds:.1f}s)", file=log)
            del record  # free its parameters and grids before the next run
    if (out / "failures").is_dir() and not any((out / "failures").iterdir()):
        (out / "failures").rmdir()

    if config.report.dump_datasets:
        for di, dataset in enumerate(config.datasets):
            for seed in config.seeds:
                try:
                    _, split = prepare_split(config, di, seed)
                except Exception:
                    # already recorded as per-run failures; nothing to dump
                    continue
                write_split_csv(split, out / "datasets" / f"{dataset.name}_seed{seed}.csv")

    for cells, table_name in zip(finals, ("table.csv", "table_ema.csv")):
        if cells:
            aggregates = {dataset: {algo: aggregate_runs(per_seed)
                                    for algo, per_seed in per_algo.items()}
                          for dataset, per_algo in cells.items()}
            write_report(out / table_name, aggregates, [a.name for a in config.algorithms])
        else:
            (out / table_name).unlink(missing_ok=True)

    if config.gap_curve is not None:
        gc = config.gap_curve
        write_gap_curve(out / "gap_curve.csv", gc.max_lag, gc.delta, gc.gamma)

    manifest = {
        "name": config.name,
        "config_sha256": config_digest(config),
        "config": config.to_dict(),
        "runs": [_manifest_entry(config, spec, spec.run_id in failures) for spec in runs],
    }
    write_text(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return failures


def _failure_name(run_id: str) -> str:
    return f"failures/{run_id}.txt"


def _run_paths(out: Path, run_id: str) -> tuple[Path, ...]:
    """A finished run's history, snapshot, EMA snapshot, grid and EMA grid."""
    return (out / "runs" / f"{run_id}.csv", out / "params" / f"{run_id}.txt",
            out / "params" / f"{run_id}_ema.txt", out / f"grid_{run_id}.csv",
            out / f"grid_{run_id}_ema.csv")


def _write_run(record: RunRecord, out: Path) -> None:
    """Write one finished run's history, parameter snapshots and grids."""
    result = record.result
    history, *paths = _run_paths(out, record.spec.run_id)
    write_history_csv(result, history)
    outputs = [(result.params, save_params), (result.ema_params, save_params),
               (record.student_grid, write_grid_csv), (record.ema_grid, write_grid_csv)]
    for (value, write), path in zip(outputs, paths):
        if value is not None:
            write(value, path)
    (out / _failure_name(record.spec.run_id)).unlink(missing_ok=True)


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

