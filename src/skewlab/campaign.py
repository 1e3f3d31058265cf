"""Campaign execution: expand a config into runs, execute them, write outputs.

A campaign is the cross product datasets x algorithms x seeds.  Runs are
independent and may execute across a process pool; every output file except
the transient log lines is a pure function of the config, so a rerun
produces byte-identical files: a failed run's file holds only its exception's
lines, which name no source file.

Outputs stream.  The parent process writes each run's files (history,
parameter snapshots, boundary grids, or the exception of a failed run) in
grid order and in that order within a run, each as soon as it exists, and
keeps none of it but a failure.  Serially each output is computed only once
the one before it is written, and a grid is dropped once written; a pool
worker computes its run's grids and hands over the run's outputs together.
A run that raises, or any interrupt while it is partly written, removes its
files first, so the directory holds whole runs only: only a hard kill can
leave a run without its grids.  Once the pool is closed, the parent makes a
(dataset, seed) pair's split only to dump it, and groups the final errors
read back from ``runs/*.csv`` by ``labeled_counts``, which needs no split.
The tables, the gap curve and the manifest come last, so a directory without
``manifest.json`` is an incomplete campaign that holds the files of every run
finished before it stopped.  The directory is the campaign's only record.
"""

from __future__ import annotations

import json
import sys
import traceback
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .coeffs import write_gap_curve
from .config import CampaignConfig, config_digest
from .datasets import (
    KINDS,
    CisslSplit,
    Dataset2D,
    by_class,
    imbalance_counts,
    make_cissl_split,
    write_split_csv,
)
from .ioutil import write_text
from .mlp import save_params
from .numerics import blas_threads
from .report import (
    aggregate_runs,
    boundary_grid,
    default_bbox,
    group_errors,
    write_grid_csv,
    write_report,
)
from .training import HISTORY_SCALARS, RunResult, read_history_csv, train, write_history_csv


@dataclass(frozen=True)
class RunSpec:
    """One cell of the campaign grid, addressed by a stable id."""

    run_id: str
    dataset_index: int
    algorithm_index: int
    seed: int


def build_runs(config: CampaignConfig) -> list[RunSpec]:
    runs = []
    for di, dataset in enumerate(config.datasets):
        for ai, algo in enumerate(config.algorithms):
            for seed in config.seeds:
                run_id = f"{dataset.name}__{algo.name}__seed{seed}"
                runs.append(RunSpec(run_id, di, ai, seed))
    return runs


def _pair(config: CampaignConfig, dataset_index: int, seed: int):
    """A (dataset, seed) pair's dataset, labeled counts by rank, and pool and
    split seeds, which derive from (seed, dataset_index) so datasets vary
    independently of each other while staying paired across algorithms."""
    ds = config.datasets[dataset_index]
    pool_seed, split_seed = np.random.SeedSequence([seed, dataset_index]).generate_state(2)
    ranks = imbalance_counts(ds.labeled_max, ds.rho_l, KINDS[ds.kind][1])
    return ds, ranks, int(pool_seed), int(split_seed)


def prepare_split(config: CampaignConfig, dataset_index: int,
                  seed: int) -> tuple[Dataset2D, CisslSplit]:
    """Generate the balanced pool for one (dataset, seed) pair and carve it."""
    ds, ranks, pool_seed, split_seed = _pair(config, dataset_index, seed)
    pool = KINDS[ds.kind][0](ds.n_pool_per_class, ds.data_noise, pool_seed)
    split = make_cissl_split(pool, ranks, ds.unlabeled_type, ds.rho_l,
                             ds.unlabeled_max, ds.val_per_class, split_seed)
    return pool, split


def labeled_counts(config: CampaignConfig, dataset_index: int, seed: int) -> np.ndarray:
    """The per-class counts of ``prepare_split``'s labeled partition, from the
    config alone: no pool is generated."""
    _, ranks, _, split_seed = _pair(config, dataset_index, seed)
    [counts] = by_class(ranks, np.random.default_rng(split_seed))
    return counts


def execute_run(config: CampaignConfig,
                spec: RunSpec) -> tuple[RunResult, tuple[float, float, float, float]]:
    """Train one run: its result and the bounding box of its grids."""
    algo = config.algorithms[spec.algorithm_index]
    pool, split = prepare_split(config, spec.dataset_index, spec.seed)
    return train(split, algo, config.training, spec.seed), default_bbox(pool.points)


class Failure(NamedTuple):
    """A run's exception: its own lines (``traceback.format_exception_only``),
    then its full traceback."""

    lines: str
    trace: str


def _failure(exc: BaseException) -> Failure:
    return Failure("".join(traceback.format_exception_only(exc)),
                   "".join(traceback.format_exception(exc)))


def _task_outputs(config: CampaignConfig, spec: RunSpec):
    """Yield a run's outputs in write order, then its Failure if it raises.

    They are those of ``_run_paths``, None for one the run lacks: its result
    (for the history), snapshot and EMA snapshot, then its grid and EMA grid,
    each computed only when asked for.
    """
    try:
        result, bbox = execute_run(config, spec)
        params = (result.params, result.ema_params)
        yield result
        yield from params
        for p in params:
            yield (boundary_grid(p, bbox, config.report.grid_resolution)
                   if config.report.grids and p is not None else None)
    except Exception as exc:
        yield _failure(exc)


def _execute_payload(payload: tuple[CampaignConfig, RunSpec]) -> list:
    """A run's ``_task_outputs`` on a pool worker, listed, at one BLAS thread."""
    threads = blas_threads(1)  # one per run: more threads only contend with the pool
    try:
        return list(_task_outputs(*payload))
    finally:
        blas_threads(threads)


def _outcomes(config: CampaignConfig, runs: list[RunSpec], n_workers: int):
    """Yield each run's outputs (``_task_outputs``) in order: the generator
    itself serially, at one BLAS thread, a worker's list on a pool.  Closing
    it cancels the pool's runs not yet started.  A dead worker breaks the
    pool: every run from the first one without a yielded result on then runs
    alone on a fresh one-worker pool, so only a run whose own worker dies
    fails, with ``BrokenProcessPool``."""
    if n_workers <= 1:
        threads = blas_threads(1)  # one, as on a pool worker: more threads only contend
        try:
            yield from (_task_outputs(config, spec) for spec in runs)
        finally:
            blas_threads(threads)
        return
    # the pool's stack (multiprocessing, sockets, logging) is imported on this path only
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def alone(spec):
        """The run on its own one-worker pool; a failure if that worker dies too."""
        with ProcessPoolExecutor(max_workers=1) as solo:
            try:
                return solo.submit(_execute_payload, (config, spec)).result()
            except BrokenProcessPool as exc:
                return [_failure(exc)]

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        done = 0
        try:
            results = pool.map(_execute_payload, [(config, spec) for spec in runs])
            for done in range(len(runs)):
                yield next(results)
        except BrokenProcessPool:
            yield from map(alone, runs[done:])


def resolve_workers(workers: int) -> int:
    """workers, checked to be a positive integer."""
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    return workers


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


def run_campaign(config: CampaignConfig, *, out_dir: str | Path, workers: int = 1,
                 log=None) -> dict[str, str]:
    """Execute every run into ``out_dir``, then write the dataset dumps,
    tables, gap curve and manifest.  Returns each failed run's exception
    lines, the text of its ``failures/<run_id>.txt``, by run id in grid order.

    Each run's ``done`` or ``FAILED`` line (with the traceback) goes to
    ``log``, else the ``sys.stderr`` of the call.  Files of an earlier
    campaign of the same config in ``out_dir`` end as a fresh campaign's
    would.  Raises ValueError for a worker count below 1, and a dump's split's
    exception if any run of its (dataset, seed) succeeded: no tables follow.
    """
    log = sys.stderr if log is None else log
    n_workers = resolve_workers(workers)
    out = Path(out_dir)
    prepare_outputs(config, out)
    runs = build_runs(config)

    failures: dict[str, str] = {}
    # a pool starts all of its workers at once, so it gets at most one per run
    with closing(_outcomes(config, runs, min(n_workers, len(runs)))) as outcomes:
        for spec in runs:
            error = _write_run(spec.run_id, next(outcomes), out, log)
            if error is not None:
                failures[spec.run_id] = error

    # student and EMA target: (dataset, algorithm) -> final grouped errors per seed
    finals: tuple[dict, dict] = ({}, {})
    for di, dataset in enumerate(d.name for d in config.datasets):
        for seed in config.seeds:
            done = [spec for spec in runs if (spec.dataset_index, spec.seed) == (di, seed)
                    and spec.run_id not in failures]
            if config.report.dump_datasets:
                try:
                    split = prepare_split(config, di, seed)[1]
                except Exception:
                    if done:  # the campaign stays incomplete; else its runs' failures say why
                        raise
                else:
                    write_split_csv(split, out / "datasets" / f"{dataset}_seed{seed}.csv")
            if not done:
                continue
            counts = labeled_counts(config, di, seed)
            for spec in done:
                _, history = read_history_csv(_run_paths(out, spec.run_id)[0])
                last = history[-1, len(HISTORY_SCALARS):]
                algo = config.algorithms[spec.algorithm_index].name
                for cells, errors in zip(finals, (last[:counts.size], last[counts.size:])):
                    if errors.size:  # no EMA errors without a target
                        cells.setdefault((dataset, algo), []).append(group_errors(errors, counts))
    if (out / "failures").is_dir() and not any((out / "failures").iterdir()):
        (out / "failures").rmdir()

    for cells, table_name in zip(finals, ("table.csv", "table_ema.csv")):
        if cells:
            aggregates: dict[str, dict] = {}
            for (dataset, algo), per_seed in cells.items():
                aggregates.setdefault(dataset, {})[algo] = aggregate_runs(per_seed)
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


# the writer of each of _run_paths' files, in write order
_WRITERS = (write_history_csv, save_params, save_params, write_grid_csv, write_grid_csv)


def _write_run(run_id: str, outputs: Iterable, out: Path, log) -> str | None:
    """Write one run's outputs (``_task_outputs``) and log the run.

    Returns the failure file's text for a run whose outputs end in a Failure,
    which leaves only that file, and None for a finished run.  Any
    BaseException while the run is written removes its files, then propagates.
    """
    paths = _run_paths(out, run_id)
    outputs = iter(outputs)
    try:
        for path, write in zip(paths, _WRITERS):
            value = next(outputs)
            if isinstance(value, Failure):
                for stale in paths:
                    stale.unlink(missing_ok=True)
                (out / "failures").mkdir(exist_ok=True)
                write_text(out / _failure_name(run_id), value.lines)
                print(f"[skewlab] FAILED {run_id}\n{value.trace}", file=log)
                return value.lines
            if write is write_history_csv:
                seconds = value.wall_seconds
            if value is not None:
                write(value, path)
            del value  # so that no grid outlives its write
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    (out / _failure_name(run_id)).unlink(missing_ok=True)
    print(f"[skewlab] done {run_id} ({seconds:.1f}s)", file=log)
    return None


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

