"""Campaign execution and the command line: files, manifests, reruns, failures."""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skewlab import campaign, numerics
from skewlab.campaign import (
    build_runs,
    execute_run,
    prepare_split,
    run_campaign,
)
from skewlab.cli import main
from skewlab.config import validate_config
from skewlab.datasets import SplitCapacityError
from skewlab.numerics import blas_threads
from skewlab.report import GROUP_NAMES, aggregate_runs, group_errors, read_table
from skewlab.training import read_history_csv

from campaign_helpers import written


def tiny_config_text(**overrides):
    base = {
        "name": "tiny",
        "seeds": [0, 1],
        "datasets": [
            {"name": "moons", "kind": "twomoons", "labeled_max": 8, "rho_l": 4.0,
             "unlabeled_max": 60, "val_per_class": 30, "data_noise": 0.15},
        ],
        "algorithms": [
            {"name": "supervised", "kind": "supervised"},
            {"name": "mean-teacher", "kind": "mean-teacher", "w_max": 4.0},
        ],
        "schedule": {"total_iters": 40, "rampup_iters": 10, "base_lr": 0.1,
                     "lr_decay": [[30, 0.2]]},
        "training": {"labeled_batch": 8, "unlabeled_batch": 8, "hidden_width": 8,
                     "eval_every": 20},
    }
    base.update(overrides)
    return json.dumps(base)


def with_cramped_dataset(config, *, replace_all=False):
    """Add (or substitute) a dataset whose pool cannot cover its split.

    Validation rejects such a pool, so the config is built past it: this is
    how a run that fails at run time reaches the campaign.
    """
    cramped = replace(config.datasets[0], name="cramped", n_pool_per_class=50,
                      data_noise=0.1)
    datasets = (cramped,) if replace_all else config.datasets + (cramped,)
    return replace(config, datasets=datasets)


@pytest.fixture
def tiny_config():
    return validate_config(tiny_config_text())


def quiet_run(config, **kwargs):
    """run_campaign with its log discarded; returns the failures."""
    return run_campaign(config, log=io.StringIO(), **kwargs)


def assert_same_tree(a, b):
    """As ``diff -r``: the same directories and files, the files byte-identical."""
    assert ([p.relative_to(a) for p in sorted(a.rglob("*")) if p.is_dir()]
            == [p.relative_to(b) for p in sorted(b.rglob("*")) if p.is_dir()])
    names = written(a)
    assert names == written(b)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestBuildRuns:
    def test_grid_expansion_order_and_ids(self, tiny_config):
        runs = build_runs(tiny_config)
        assert [r.run_id for r in runs] == [
            "moons__supervised__seed0", "moons__supervised__seed1",
            "moons__mean-teacher__seed0", "moons__mean-teacher__seed1",
        ]
        assert runs[0].dataset_index == 0 and runs[2].algorithm_index == 1

    def test_split_is_shared_across_algorithms(self, tiny_config):
        _, a = prepare_split(tiny_config, 0, 0)
        _, b = prepare_split(tiny_config, 0, 0)
        assert np.array_equal(a.labeled.points, b.labeled.points)
        assert np.array_equal(a.labeled.labels, b.labeled.labels)
        _, other_seed = prepare_split(tiny_config, 0, 1)
        assert not np.array_equal(a.labeled.points, other_seed.labeled.points)


class TestRunCampaign:
    def test_outputs_and_manifest(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert quiet_run(tiny_config, out_dir=out) == {}
        assert written(out) == [
            "manifest.json",
            "params/moons__mean-teacher__seed0.txt",
            "params/moons__mean-teacher__seed0_ema.txt",
            "params/moons__mean-teacher__seed1.txt",
            "params/moons__mean-teacher__seed1_ema.txt",
            "params/moons__supervised__seed0.txt",
            "params/moons__supervised__seed1.txt",
            "runs/moons__mean-teacher__seed0.csv",
            "runs/moons__mean-teacher__seed1.csv",
            "runs/moons__supervised__seed0.csv",
            "runs/moons__supervised__seed1.csv",
            "table.csv",
            "table_ema.csv",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["name"] == "tiny"
        assert len(manifest["config_sha256"]) == 64
        assert [r["status"] for r in manifest["runs"]] == ["ok"] * 4
        assert all("failure" not in r for r in manifest["runs"])
        assert not (out / "failures").exists()
        assert manifest["config"]["schedule"]["total_iters"] == 40

    def test_reruns_are_byte_identical(self, tiny_config, tmp_path):
        quiet_run(tiny_config, out_dir=tmp_path / "a")
        quiet_run(tiny_config, out_dir=tmp_path / "b")
        assert_same_tree(tmp_path / "a", tmp_path / "b")

    @pytest.mark.parametrize("failing", ["earlier", "later"])
    def test_rerun_into_a_used_directory_matches_a_fresh_one(self, tmp_path, monkeypatch,
                                                             failing):
        # every mean-teacher run fails in one of two campaigns into the same
        # directory; either way it ends as a fresh run of the later campaign
        # leaves it, with no stale history, snapshot, grid, EMA table, failure
        # file or empty failures/
        config = grid_config()
        train = campaign.train

        def mean_teacher_fails(split, algo, *args):
            if algo.kind == "mean-teacher":
                raise RuntimeError("mean-teacher fails")
            return train(split, algo, *args)

        def run(out, fails):
            with monkeypatch.context() as patch:
                if fails:
                    patch.setattr(campaign, "train", mean_teacher_fails)
                return quiet_run(config, out_dir=out, workers=1)

        run(tmp_path / "used", failing == "earlier")
        failures = run(tmp_path / "used", failing == "later")
        fresh_failures = run(tmp_path / "fresh", failing == "later")
        assert_same_tree(tmp_path / "used", tmp_path / "fresh")
        assert failures == fresh_failures

    def test_runs_of_a_dropped_seed_stay_out_of_the_tables(self, tmp_path):
        # the tables are read back from runs/, which still holds the seed-1
        # histories of the directory's earlier campaign
        quiet_run(validate_config(tiny_config_text()), out_dir=tmp_path / "used")
        config = validate_config(tiny_config_text(seeds=[0]))
        quiet_run(config, out_dir=tmp_path / "used")
        quiet_run(config, out_dir=tmp_path / "fresh")
        assert (tmp_path / "used" / "runs" / "moons__mean-teacher__seed1.csv").exists()
        for name in ("table.csv", "table_ema.csv"):
            assert (tmp_path / "used" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_split_is_made_once_after_the_runs(self, tmp_path, monkeypatch, workers):
        # one split per (dataset, seed) serves both the dump and the tables;
        # on a pool the workers make it, and this process makes none
        config = validate_config(tiny_config_text(report={"dump_datasets": True}))
        calls = []

        def recorded(config, dataset_index, seed):
            calls.append((dataset_index, seed))
            return prepare_split(config, dataset_index, seed)

        with monkeypatch.context() as patch:
            patch.setattr(campaign, "prepare_split", recorded)
            quiet_run(config, out_dir=tmp_path / "out", workers=workers)
        # serially one per run (moons: supervised then mean-teacher, seeds 0
        # and 1), then one per pair
        assert calls == ([(0, 0), (0, 1)] * 3 if workers == 1 else [])
        quiet_run(config, out_dir=tmp_path / "fresh", workers=1)
        assert_same_tree(tmp_path / "out", tmp_path / "fresh")

    def test_a_split_that_fails_after_its_runs_leaves_the_campaign_incomplete(
            self, tiny_config, tmp_path, monkeypatch):
        # the four runs make their splits; the first pair's split after them fails
        calls = []

        def fails_fifth(*args):
            calls.append(args)
            if len(calls) == 5:
                raise MemoryError("no room")
            return prepare_split(*args)

        monkeypatch.setattr(campaign, "prepare_split", fails_fifth)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="(?s)^moons seed 0: no split\n.*MemoryError: no room"):
            quiet_run(tiny_config, out_dir=out, workers=1)
        assert len(written(out / "runs")) == 4
        assert not (out / "table.csv").exists() and not (out / "manifest.json").exists()

    def test_single_run_reproduces_campaign_history(self, tiny_config, tmp_path):
        quiet_run(tiny_config, out_dir=tmp_path / "out")
        spec, = [s for s in build_runs(tiny_config) if s.run_id == "moons__mean-teacher__seed1"]
        record = execute_run(tiny_config, spec)
        from skewlab.training import write_history_csv
        solo = tmp_path / "solo.csv"
        write_history_csv(record.result, solo)
        campaign_file = tmp_path / "out" / "runs" / "moons__mean-teacher__seed1.csv"
        assert solo.read_bytes() == campaign_file.read_bytes()

    def test_tables_aggregate_both_parameter_sets(self, tiny_config, tmp_path):
        quiet_run(tiny_config, out_dir=tmp_path / "out")
        student = read_table(tmp_path / "out" / "table.csv")
        assert set(student["moons"]) == {"supervised", "mean-teacher"}
        # only EMA-tracking algorithms can land in the EMA table
        assert set(read_table(tmp_path / "out" / "table_ema.csv")["moons"]) == {"mean-teacher"}
        assert student["moons"]["supervised"]["all"][1] is not None  # a std: both seeds

    def test_worker_pool_matches_serial_output(self, tiny_config, tmp_path):
        quiet_run(tiny_config, out_dir=tmp_path / "serial", workers=1)
        quiet_run(tiny_config, out_dir=tmp_path / "pooled", workers=2)
        assert_same_tree(tmp_path / "serial", tmp_path / "pooled")

    def test_bad_worker_count_is_rejected(self, tiny_config, tmp_path):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            quiet_run(tiny_config, out_dir=tmp_path / "out", workers=0)
        assert not (tmp_path / "out").exists()

    def test_pool_has_at_most_one_worker_per_run(self, tiny_config, tmp_path, monkeypatch):
        # a pool starts all of its workers at the first submit, so a larger
        # one would fork workers that never get a run
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        quiet_run(tiny_config, out_dir=tmp_path / "serial", workers=1)
        quiet_run(tiny_config, out_dir=tmp_path / "pooled", workers=6)
        assert sizes == [4]  # one worker per run of the 4-run campaign
        assert_same_tree(tmp_path / "serial", tmp_path / "pooled")

    def test_failures_are_isolated_and_recorded(self, tmp_path):
        # second dataset's pool cannot cover its split: every run on it fails,
        # the healthy dataset still aggregates and is the only one dumped
        config = with_cramped_dataset(
            validate_config(tiny_config_text(report={"dump_datasets": True})))
        out = tmp_path / "out"
        failures = quiet_run(config, out_dir=out)
        assert len(failures) == 4
        assert all(run_id.startswith("cramped") for run_id in failures)
        assert all("SplitCapacityError" in tb for tb in failures.values())
        manifest = json.loads((out / "manifest.json").read_text())
        entries = {r["run_id"]: r for r in manifest["runs"]}
        assert entries["cramped__supervised__seed0"]["status"] == "failed"
        assert entries["moons__supervised__seed0"]["status"] == "ok"
        assert "failure" not in entries["moons__supervised__seed0"]
        for run_id, traceback_text in failures.items():
            assert entries[run_id]["failure"] == f"failures/{run_id}.txt"
            assert entries[run_id]["failure"] in written(out)
            saved = (out / entries[run_id]["failure"]).read_text()
            assert saved == traceback_text and "SplitCapacityError" in saved
        assert set(read_table(out / "table.csv")) == {"moons"}
        dumped = sorted(p.name for p in (out / "datasets").glob("*.csv"))
        assert dumped == ["moons_seed0.csv", "moons_seed1.csv"]

    def test_log_lines_follow_a_redirected_stderr(self, tmp_path):
        # the default log is the sys.stderr of the call, not of the import
        config = with_cramped_dataset(validate_config(tiny_config_text()))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            failures = run_campaign(config, workers=1, out_dir=tmp_path / "out")
        lines = [line.split(" (")[0] for line in err.getvalue().splitlines()
                 if line.startswith("[skewlab] ")]
        assert len(failures) == 4
        assert lines == [f"[skewlab] {'FAILED' if spec.run_id in failures else 'done'} "
                         f"{spec.run_id}" for spec in build_runs(config)]

    def test_failure_file_is_the_exception_line_alone(self, tmp_path):
        # a traceback names the installed source paths, which differ between
        # checkouts; the file holds the exception line only, the log the rest
        config = with_cramped_dataset(validate_config(tiny_config_text()), replace_all=True)
        with pytest.raises(SplitCapacityError) as excinfo:
            prepare_split(config, 0, 0)
        log = io.StringIO()
        failures = run_campaign(config, workers=1, out_dir=tmp_path / "out", log=log)
        run_id = "cramped__supervised__seed0"
        saved = (tmp_path / "out" / "failures" / f"{run_id}.txt").read_text()
        assert saved == f"skewlab.datasets.SplitCapacityError: {excinfo.value}\n"
        assert failures[run_id] == saved and ".py" not in saved
        assert (f"[skewlab] FAILED {run_id}\nTraceback (most recent call last):\n"
                in log.getvalue())

    def test_a_diverging_run_fails_alike_under_any_warning_filter(self, tmp_path):
        # numpy's overflow and invalid warnings, made errors by the filter,
        # would otherwise fail the run before train's own finiteness check
        config = validate_config(json.dumps({
            "name": "diverge", "seeds": [0],
            "datasets": [{"kind": "twomoons", "labeled_max": 10, "rho_l": 5,
                          "unlabeled_max": 200, "val_per_class": 100}],
            "algorithms": [{"kind": "supervised"}, {"kind": "mean-teacher"}],
            "schedule": {"total_iters": 50, "base_lr": 1e160, "rampup_iters": 0},
            "training": {"weight_decay": 1.0}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failures = quiet_run(config, out_dir=tmp_path / "out", workers=1)
        assert list(failures) == [spec.run_id for spec in build_runs(config)]
        for run_id, text in failures.items():
            assert (tmp_path / "out" / "failures" / f"{run_id}.txt").read_text() == text
            assert text.startswith("skewlab.training.TrainingDiverged: ")
            assert text.count("\n") == 1 and text.endswith("\n"), text

    def test_table_columns_follow_the_config(self, tmp_path, monkeypatch):
        # the first run, a__supervised__seed0, fails; at the other dataset the
        # supervised column still comes first, as in the config
        dataset = json.loads(tiny_config_text())["datasets"][0]
        config = validate_config(tiny_config_text(
            seeds=[0], datasets=[{**dataset, "name": "a"}, {**dataset, "name": "b"}]))
        train = campaign.train
        calls = []

        def first_fails(*args):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("first run fails")
            return train(*args)

        monkeypatch.setattr(campaign, "train", first_fails)
        assert list(quiet_run(config, out_dir=tmp_path / "out", workers=1)) == [
            "a__supervised__seed0"]
        header = (tmp_path / "out" / "table.csv").read_text().split("\n")[0]
        assert header == "dataset,group,supervised,mean-teacher"

    def test_tables_match_the_run_histories(self, tmp_path):
        config = with_cramped_dataset(validate_config(tiny_config_text()))
        out = tmp_path / "out"
        quiet_run(config, out_dir=out)
        for table_name, prefix in (("table.csv", "student_err_"), ("table_ema.csv", "ema_err_")):
            table = read_table(out / table_name)
            assert set(table) == {"moons"}
            for algo in table["moons"]:
                finals = []
                for seed in config.seeds:
                    header, matrix = read_history_csv(
                        str(out / "runs" / f"moons__{algo}__seed{seed}.csv"))
                    errors = matrix[-1, [i for i, h in enumerate(header) if h.startswith(prefix)]]
                    counts = prepare_split(config, 0, seed)[1].labeled.class_counts()
                    finals.append(group_errors(errors, counts))
                mean, std = aggregate_runs(finals)
                for i, group in enumerate(GROUP_NAMES):
                    assert table["moons"][algo][group] == (mean[i], std[i])

    def test_gap_curve_only_campaign(self, tmp_path):
        config = validate_config(json.dumps(
            {"name": "gap", "seeds": [0],
             "gap_curve": {"delta": 0.9, "gamma": 0.95, "max_lag": 20}}))
        assert quiet_run(config, out_dir=tmp_path / "out") == {}
        assert written(tmp_path / "out") == ["gap_curve.csv", "manifest.json"]

    def test_grids_and_dataset_dumps(self, tmp_path):
        text = tiny_config_text(
            seeds=[0],
            algorithms=[{"name": "mean-teacher", "kind": "mean-teacher", "w_max": 4.0}],
            report={"grids": True, "grid_resolution": [5, 4], "dump_datasets": True})
        config = validate_config(text)
        quiet_run(config, out_dir=tmp_path / "out")
        names = written(tmp_path / "out")
        assert "grid_moons__mean-teacher__seed0.csv" in names
        assert "grid_moons__mean-teacher__seed0_ema.csv" in names
        assert "datasets/moons_seed0.csv" in names
        grid_file = tmp_path / "out" / "grid_moons__mean-teacher__seed0.csv"
        assert len(grid_file.read_text().strip().split("\n")) == 1 + 5 * 4

    def test_history_files_parse_back(self, tiny_config, tmp_path):
        quiet_run(tiny_config, out_dir=tmp_path / "out")
        header, matrix = read_history_csv(
            str(tmp_path / "out" / "runs" / "moons__mean-teacher__seed0.csv"))
        assert header[:5] == ["iteration", "lr", "w", "sup_loss", "con_loss"]
        assert list(matrix[:, 0]) == [20.0, 40.0]


def grid_config():
    return validate_config(tiny_config_text(report={"grids": True, "grid_resolution": [5, 4]}))


def run_files(out, run_id, with_ema):
    """The files one finished run writes into the campaign directory ``out``."""
    names = [f"runs/{run_id}.csv", f"params/{run_id}.txt", f"grid_{run_id}.csv"]
    if with_ema:
        names += [f"params/{run_id}_ema.txt", f"grid_{run_id}_ema.csv"]
    return [out / name for name in names]


class TestStreaming:
    def test_each_run_is_on_disk_before_the_next_starts(self, tmp_path, monkeypatch):
        config = grid_config()
        out = tmp_path / "out"
        started = []
        original = campaign.execute_run

        def checked(config, spec):
            for run_id in started:
                for path in run_files(out, run_id, "mean-teacher" in run_id):
                    assert path.is_file(), path
            started.append(spec.run_id)
            return original(config, spec)

        monkeypatch.setattr(campaign, "execute_run", checked)
        assert quiet_run(config, out_dir=out, workers=1) == {}
        assert started == [spec.run_id for spec in build_runs(config)]

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="workers must inherit the patched execute_run")),
    ])
    def test_interrupted_campaign_keeps_finished_runs(self, tmp_path, monkeypatch, workers):
        config = grid_config()
        quiet_run(config, out_dir=tmp_path / "full")
        third = build_runs(config)[2].run_id
        original = campaign.execute_run

        def interrupted(config, spec):
            if spec.run_id == third:
                raise KeyboardInterrupt
            return original(config, spec)

        monkeypatch.setattr(campaign, "execute_run", interrupted)
        cut = tmp_path / "cut"
        with pytest.raises(KeyboardInterrupt):
            quiet_run(config, out_dir=cut, workers=workers)
        # no pool worker outlives the interrupted campaign
        assert multiprocessing.active_children() == []
        finished = [spec.run_id for spec in build_runs(config)[:2]]
        expected = {path.relative_to(cut).as_posix() for run_id in finished
                    for path in run_files(cut, run_id, "mean-teacher" in run_id)}
        assert set(written(cut)) == expected
        for name in expected:
            assert (cut / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
        assert not (cut / "manifest.json").exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched execute_run")
    def test_dead_worker_fails_its_run_only(self, tmp_path, monkeypatch):
        config = validate_config(tiny_config_text())
        runs = [spec.run_id for spec in build_runs(config)]
        out = tmp_path / "out"
        original = campaign.execute_run

        def dies_last(config, spec):
            if spec.run_id != runs[-1]:
                return original(config, spec)
            # wait until the parent has written every earlier run, so those
            # finished before the pool broke
            deadline = time.monotonic() + 60.0
            while (time.monotonic() < deadline
                   and not all((out / "runs" / f"{r}.csv").is_file() for r in runs[:-1])):
                time.sleep(0.01)
            os._exit(1)

        monkeypatch.setattr(campaign, "execute_run", dies_last)
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text())
        assert main(["run", str(path), "--workers", "2", "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        entries = {r["run_id"]: r for r in manifest["runs"]}
        assert [entries[r]["status"] for r in runs] == ["ok", "ok", "ok", "failed"]
        assert entries[runs[-1]]["failure"] == f"failures/{runs[-1]}.txt"
        assert "BrokenProcessPool" in (out / "failures" / f"{runs[-1]}.txt").read_text()
        for run_id in runs[:-1]:
            assert (out / "runs" / f"{run_id}.csv").is_file()
        table = read_table(out / "table.csv")
        assert table["moons"]["supervised"]["all"][1] is not None  # both seeds
        assert table["moons"]["mean-teacher"]["all"][1] is None  # seed 0 only

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched execute_run")
    def test_dead_first_worker_fails_its_run_only(self, tmp_path, monkeypatch):
        # the pool breaks while every later run is in flight or queued; each
        # is retried alone, and only the run that kills its worker fails
        config = validate_config(tiny_config_text())
        runs = [spec.run_id for spec in build_runs(config)]
        quiet_run(config, out_dir=tmp_path / "full", workers=1)
        original = campaign.execute_run

        def dies_first(config, spec):
            if spec.run_id == runs[0]:
                os._exit(1)
            return original(config, spec)

        monkeypatch.setattr(campaign, "execute_run", dies_first)
        out = tmp_path / "out"
        assert list(quiet_run(config, out_dir=out, workers=2)) == [runs[0]]
        assert "BrokenProcessPool" in (out / "failures" / f"{runs[0]}.txt").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["status"] for r in manifest["runs"]] == ["failed", "ok", "ok", "ok"]
        for run_id in runs[1:]:
            name = f"runs/{run_id}.csv"
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
        table = read_table(out / "table.csv")
        assert table["moons"]["supervised"]["all"][1] is None  # seed 1 only
        assert table["moons"]["mean-teacher"]["all"][1] is not None  # both seeds

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched execute_run")
    def test_worker_dead_before_the_last_submission_fails_its_run_only(self, tmp_path,
                                                                       monkeypatch):
        # the first run's worker dies before the second run is submitted, as
        # when the parent stalls between submissions (a long garbage
        # collection, a loaded machine): every later submission then raises
        # BrokenProcessPool, and each of those runs is retried alone
        config = validate_config(tiny_config_text())
        runs = [spec.run_id for spec in build_runs(config)]
        original = campaign.execute_run

        def dies_first(config, spec):
            if spec.run_id == runs[0]:
                os._exit(1)
            return original(config, spec)

        class StallsAfterEachSubmit(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                concurrent.futures.wait([future], timeout=60.0)
                return future

        monkeypatch.setattr(campaign, "execute_run", dies_first)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StallsAfterEachSubmit)
        out = tmp_path / "out"
        assert list(quiet_run(config, out_dir=out, workers=2)) == [runs[0]]
        assert "BrokenProcessPool" in (out / "failures" / f"{runs[0]}.txt").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["status"] for r in manifest["runs"]] == ["failed", "ok", "ok", "ok"]


class TestOneBlasThread:
    """Each run computes at one OpenBLAS thread, whatever the caller's count."""

    @pytest.fixture
    def two_threads(self):
        """The test process at two BLAS threads, restored afterwards."""
        threads = blas_threads(2)
        if threads is None:
            pytest.skip("numpy's BLAS is not a bundled scipy-openblas")
        yield
        blas_threads(threads)

    @staticmethod
    def recording_threads(monkeypatch, record):
        """Make each run write the BLAS thread count it computes at into ``record``."""
        original, read = campaign.execute_run, numerics._blas("get_num_threads")

        def recorded(config, spec):
            (record / spec.run_id).write_text(str(read()))
            return original(config, spec)

        record.mkdir()
        monkeypatch.setattr(campaign, "execute_run", recorded)

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="workers must inherit the patched execute_run")),
    ])
    def test_each_run_reads_one_thread_and_the_caller_keeps_its_count(
            self, tmp_path, monkeypatch, two_threads, workers):
        config = validate_config(tiny_config_text())
        self.recording_threads(monkeypatch, tmp_path / "threads")
        assert quiet_run(config, out_dir=tmp_path / "out", workers=workers) == {}
        assert {p.read_text() for p in (tmp_path / "threads").iterdir()} == {"1"}
        assert blas_threads() == 2

    def test_a_missing_symbol_leaves_runs_untouched(self, tmp_path, monkeypatch, two_threads):
        config = validate_config(tiny_config_text())
        quiet_run(config, out_dir=tmp_path / "full", workers=1)
        self.recording_threads(monkeypatch, tmp_path / "threads")
        real = numerics._blas
        monkeypatch.setattr(numerics, "_blas", lambda name, *types: real(f"no_such_{name}", *types))
        assert quiet_run(config, out_dir=tmp_path / "out", workers=1) == {}
        assert {p.read_text() for p in (tmp_path / "threads").iterdir()} == {"2"}
        assert_same_tree(tmp_path / "full", tmp_path / "out")

    def test_outputs_do_not_depend_on_the_environment_thread_count(self, tmp_path):
        # each interpreter starts at its environment's count; every campaign,
        # serial or on two workers, must write the same bytes
        (tmp_path / "c.json").write_text(tiny_config_text(
            report={"grids": True, "grid_resolution": [5, 4]}))
        script = "\n".join([
            "import sys",
            "from skewlab.cli import main",
            "for workers in ('1', '2'):",
            "    out = f'{sys.argv[1]}-{workers}'",
            "    assert main(['run', 'c.json', '--workers', workers, '--out', out]) == 0",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(campaign.__file__).parents[1])}
        for threads in (None, "2", "1"):
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run([sys.executable, "-c", script, f"threads{threads}"], cwd=tmp_path,
                           env=env, capture_output=True, check=True, timeout=300)
        outputs = sorted(tmp_path.glob("threads*-*"))
        assert len(outputs) == 6
        for out in outputs[1:]:
            assert_same_tree(outputs[0], out)


class TestCli:
    def test_validate_accepts_good_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text())
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK: tiny (1 datasets x 2 algorithms x 2 seeds)" in out
        # 4 runs of 40 steps; 2 classes x 30 validation rows x width 8 outgrow
        # the pool's 2 x 98 points of 2 coordinates and the 114 parameters
        assert out.splitlines()[1] == (
            "4 runs, 160 steps; the largest array is the validation pass's hidden array "
            "of 480 elements (3840 bytes), set by datasets[0].val_per_class")

    def test_validate_of_a_campaign_without_runs_counts_none(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"name": "gap", "seeds": [0], "gap_curve": {}}))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0 runs, 0 steps"

    def test_validate_reports_problems(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text(seeds=[]))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config is invalid:" in err
        assert "seeds" in err

    def test_validate_rejects_a_pool_too_large_to_allocate(self, tmp_path, capsys):
        config = json.loads(tiny_config_text())
        config["datasets"][0]["n_pool_per_class"] = 4503599627370496
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "\n  datasets[0].n_pool_per_class: the pool's points would hold" in err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("unreadable", ["directory", "utf-16"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, verb, unreadable):
        path = tmp_path / "c.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(tiny_config_text().encode("utf-16"))
        out_dir = tmp_path / "out"
        args = [verb, str(path)] + (["--out", str(out_dir)] if verb == "run" else [])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read config: {path}: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_run_executes_and_reports(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text())
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "tiny: 4/4 runs succeeded" in out
        assert (out_dir / "manifest.json").exists()

    def test_run_flags_failures(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text())
        cramped = with_cramped_dataset(validate_config(tiny_config_text()), replace_all=True)
        monkeypatch.setattr("skewlab.cli.load_config", lambda _: cramped)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "0/4 runs succeeded" in captured.out
        assert "failed: cramped__supervised__seed0" in captured.err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_bad_worker_flag_exits_2(self, tmp_path, capsys, count):
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text())
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--workers", count, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"workers must be a positive integer, got {count}\n"
        assert not out_dir.exists()

    def test_preset_writes_valid_config(self, tmp_path, capsys):
        assert main(["preset", "ema-gap", "--out", str(tmp_path)]) == 0
        written = capsys.readouterr().out.strip()
        assert written.endswith("ema-gap.json")
        data = json.loads((tmp_path / "ema-gap.json").read_text())
        assert data["name"] == "ema-gap"

    def test_preset_rejects_unknown_name(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["preset", "toy-table9", "--out", str(tmp_path)])


class TestPoolImportsOnlyWithPool:
    """A serial campaign never loads the process-pool stack.  This file imports
    multiprocessing itself, so each check runs in a fresh interpreter."""

    POOL_MODULES = ("multiprocessing", "concurrent.futures", "concurrent.futures.process",
                    "logging")

    def loaded_pool_modules(self, tmp_path, script):
        script += ("\nimport json, sys\n"
                   f"print(json.dumps(sorted(set({self.POOL_MODULES!r}) & set(sys.modules))))")
        env = {**os.environ, "PYTHONPATH": str(Path(campaign.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_imports_leave_the_pool_stack_unloaded(self, tmp_path):
        script = "import skewlab, skewlab.campaign, skewlab.cli, skewlab.coeffs"
        assert self.loaded_pool_modules(tmp_path, script) == []

    def test_serial_run_validate_and_preset_leave_it_unloaded(self, tmp_path):
        (tmp_path / "c.json").write_text(tiny_config_text())
        script = "\n".join([
            "from skewlab.cli import main",
            "assert main(['run', 'c.json', '--workers', '1', '--out', 'out']) == 0",
            "assert main(['validate', 'c.json']) == 0",
            "assert main(['preset', 'ema-gap', '--out', 'presets']) == 0",
        ])
        assert self.loaded_pool_modules(tmp_path, script) == []
        assert (tmp_path / "out" / "manifest.json").is_file()


class TestUnwritableOutputs:
    @pytest.mark.parametrize("via", ["run --out", "run output_dir", "preset --out"])
    def test_a_file_in_place_of_the_output_directory_exits_2(self, tmp_path, capsys, via):
        # a bad argument (exit 2), not a failed run (exit 1)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text(output_dir=str(blocker)))
        args = {"run --out": ["run", str(path), "--out", str(blocker)],
                "run output_dir": ["run", str(path)],
                "preset --out": ["preset", "ema-gap", "--out", str(blocker)]}[via]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write outputs: {blocker}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("name", ["runs", "params", "failures", "datasets"])
    def test_a_file_in_place_of_an_output_subdirectory_exits_2(self, tmp_path, capsys,
                                                               monkeypatch, name):
        # the subdirectories are made, or checked, before the first run trains
        out = tmp_path / "out"
        out.mkdir()
        blocker = out / name
        blocker.write_text("not a directory")
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text(report={"dump_datasets": True}))
        trained = []
        execute_run = campaign.execute_run

        def recorded(config, spec):
            trained.append(spec.run_id)
            return execute_run(config, spec)

        monkeypatch.setattr(campaign, "execute_run", recorded)
        assert main(["run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write outputs: {out}: ")
        assert str(blocker) in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert trained == []
        assert blocker.read_text() == "not a directory"
