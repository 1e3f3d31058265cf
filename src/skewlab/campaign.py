"""Campaign execution: expand a config into runs, execute them, write outputs.

A campaign is the cross product datasets x algorithms x seeds.  Runs are
independent and may execute across a process pool; every output file except
the transient log lines is a pure function of the config, so a rerun
produces byte-identical files: a failed run's file holds only its exception's
lines, which name no source file.

Outputs stream: the parent process writes each run's files (history,
parameter snapshots, boundary grids, or the exception of a failed run) as
soon as that run's result reaches it, in grid order, and keeps none of it.
Dataset dumps and tables, rebuilt from ``runs/*.csv`` and one split per
(dataset, seed), then the gap curve and the manifest come last, so a directory
without ``manifest.json`` is an incomplete campaign that holds the files of
every run finished before it stopped.  The directory is the campaign's only record.
"""

from __future__ import annotations

import json
import sys
import traceback
from contextlib import closing
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
from .numerics import blas_threads
from .report import (
    BoundaryGrid,
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


@dataclass(frozen=True, eq=False)
class RunRecord:
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
    return RunRecord(result=result, student_grid=student_grid, ema_grid=ema_grid)


def _failure(exc: BaseException) -> tuple[str, str]:
    """exc's own lines (``traceback.format_exception_only``), then its full traceback."""
    return "".join(traceback.format_exception_only(exc)), "".join(traceback.format_exception(exc))


def _execute_payload(payload: tuple[CampaignConfig, RunSpec | tuple[int, int]]):
    """(a run's record or a (dataset index, seed) pair's split, None), or (None, _failure)."""
    config, task = payload
    threads = blas_threads(1)  # one per task, serial or pooled: more threads only contend
    try:
        if isinstance(task, RunSpec):
            return execute_run(config, task), None
        return prepare_split(config, *task)[1], None
    except Exception as exc:
        return None, _failure(exc)
    finally:
        blas_threads(threads)


def _outcomes(config: CampaignConfig, tasks: list, n_workers: int):
    """Yield each task's ``_execute_payload`` outcome, in order.

    Serially each task executes when the next outcome is asked for.  On a pool
    ``pool.map`` submits every task up front and yields results in submission
    order; closing the generator cancels the tasks not yet started.  A dead
    worker breaks the pool: every task from the first one without a yielded
    result on then runs alone on a fresh one-worker pool, so only a task whose
    own worker dies fails (one whose result came after the break is computed
    again, to the same bytes).  The pool's stack (multiprocessing, sockets,
    logging) is imported on that path only.
    """
    if n_workers <= 1:
        yield from (_execute_payload((config, task)) for task in tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def alone(task):
        """The task on its own one-worker pool; a failure if that worker dies too."""
        with ProcessPoolExecutor(max_workers=1) as solo:
            try:
                return solo.submit(_execute_payload, (config, task)).result()
            except BrokenProcessPool as exc:
                return None, _failure(exc)

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        done = 0
        try:
            for outcome in pool.map(_execute_payload, [(config, task) for task in tasks]):
                yield outcome
                done += 1
        except BrokenProcessPool:
            yield from map(alone, tasks[done:])


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
    """Execute every run, writing its files as it completes; then the dataset
    dumps, tables, gap curve and manifest.  Returns each failed run's
    exception lines by run id, in grid order.

    Results are taken in grid order whatever the worker count, so the log
    lines (to ``log``, else the ``sys.stderr`` of the call) are
    deterministic.  Run failures are isolated: a run that raises, or whose
    pool worker dies, gets its exception lines in ``failures/<run_id>.txt``
    (its ``FAILED`` log line adds the traceback) and a ``"failure"`` entry in
    the manifest, and only healthy runs feed the tables.  No state of a run
    but its failure is kept: after the runs, one split per (dataset, seed),
    made on the pool if there is one, is dumped and groups the final errors
    read back from that pair's ``runs/*.csv``.  A directory that holds an
    earlier campaign of the same config ends as a fresh one would: each run
    removes the files of the other outcome, a table with no cells and an
    empty ``failures/`` go.  All writes happen in this process.
    """
    log = sys.stderr if log is None else log
    n_workers = resolve_workers(workers)
    out = Path(out_dir)
    prepare_outputs(config, out)
    runs = build_runs(config)
    # a pool makes the pairs' splits too, so this process never imports numpy.random
    pairs = [(di, seed) for di in range(len(config.datasets)) for seed in config.seeds]

    failures: dict[str, str] = {}
    # student and EMA target: (dataset, algorithm) -> final grouped errors per seed
    finals: tuple[dict, dict] = ({}, {})
    # a pool starts all of its workers at once, so it gets at most one per run
    with closing(_outcomes(config, runs + pairs, min(n_workers, len(runs)))) as outcomes:
        for run_id, (record, error) in zip([spec.run_id for spec in runs], outcomes):
            if error is not None:
                failures[run_id], trace = error
                for path in _run_paths(out, run_id):
                    path.unlink(missing_ok=True)
                (out / "failures").mkdir(exist_ok=True)
                write_text(out / _failure_name(run_id), failures[run_id])
                print(f"[skewlab] FAILED {run_id}\n{trace}", file=log)
                continue
            _write_run(run_id, record, out)
            print(f"[skewlab] done {run_id} ({record.result.wall_seconds:.1f}s)", file=log)
            del record  # free its parameters and grids before the next run
        for (di, seed), (split, error) in zip(pairs, outcomes):
            done = [spec for spec in runs if (spec.dataset_index, spec.seed) == (di, seed)
                    and spec.run_id not in failures]
            dataset = config.datasets[di].name
            if error is not None:
                if done:  # no table may silently lack a run: the campaign stays incomplete
                    raise RuntimeError(f"{dataset} seed {seed}: no split\n{error[1]}")
                continue  # every run of the pair failed on it: already recorded
            if config.report.dump_datasets:
                write_split_csv(split, out / "datasets" / f"{dataset}_seed{seed}.csv")
            counts = split.labeled.class_counts()
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


def _write_run(run_id: str, record: RunRecord, out: Path) -> None:
    """Write one finished run's history, parameter snapshots and grids."""
    result = record.result
    history, *paths = _run_paths(out, run_id)
    write_history_csv(result, history)
    outputs = [(result.params, save_params), (result.ema_params, save_params),
               (record.student_grid, write_grid_csv), (record.ema_grid, write_grid_csv)]
    for (value, write), path in zip(outputs, paths):
        if value is not None:
            write(value, path)
    (out / _failure_name(run_id)).unlink(missing_ok=True)


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

