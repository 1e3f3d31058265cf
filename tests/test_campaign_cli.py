"""Campaign execution and the command line: files, manifests, reruns, failures."""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from skewlab import campaign
from skewlab.campaign import (
    WORKERS_ENV,
    build_runs,
    prepare_split,
    run_campaign,
    run_one,
)
from skewlab.cli import main
from skewlab.config import validate_config
from skewlab.report import read_table
from skewlab.training import read_history_csv


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
    import io
    return run_campaign(config, log=io.StringIO(), **kwargs)


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
        assert np.array_equal(a.labeled_counts, b.labeled_counts)
        _, other_seed = prepare_split(tiny_config, 0, 1)
        assert not np.array_equal(a.labeled.points, other_seed.labeled.points)


class TestRunCampaign:
    def test_outputs_and_manifest(self, tiny_config, tmp_path):
        outcome = quiet_run(tiny_config, out_dir=tmp_path / "out")
        assert outcome.ok
        names = sorted(p.relative_to(outcome.out_dir).as_posix() for p in outcome.files)
        assert names == [
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
        manifest = json.loads((outcome.out_dir / "manifest.json").read_text())
        assert manifest["name"] == "tiny"
        assert len(manifest["config_sha256"]) == 64
        assert [r["status"] for r in manifest["runs"]] == ["ok"] * 4
        assert all("failure" not in r for r in manifest["runs"])
        assert not (outcome.out_dir / "failures").exists()
        assert manifest["config"]["schedule"]["total_iters"] == 40

    def test_reruns_are_byte_identical(self, tiny_config, tmp_path):
        first = quiet_run(tiny_config, out_dir=tmp_path / "a")
        second = quiet_run(tiny_config, out_dir=tmp_path / "b")
        for fa, fb in zip(sorted(first.files), sorted(second.files)):
            assert fa.name == fb.name
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_single_run_reproduces_campaign_history(self, tiny_config, tmp_path):
        outcome = quiet_run(tiny_config, out_dir=tmp_path / "out")
        record = run_one(tiny_config, "moons__mean-teacher__seed1")
        from skewlab.training import write_history_csv
        solo = tmp_path / "solo.csv"
        write_history_csv(record.result, solo)
        campaign_file = outcome.out_dir / "runs" / "moons__mean-teacher__seed1.csv"
        assert solo.read_bytes() == campaign_file.read_bytes()

    def test_run_one_rejects_unknown_id(self, tiny_config):
        with pytest.raises(KeyError, match="not in this campaign"):
            run_one(tiny_config, "moons__dreamt-up__seed0")

    def test_tables_aggregate_both_parameter_sets(self, tiny_config, tmp_path):
        outcome = quiet_run(tiny_config, out_dir=tmp_path / "out")
        assert set(outcome.student_table["moons"]) == {"supervised", "mean-teacher"}
        # only EMA-tracking algorithms can land in the EMA table
        assert set(outcome.ema_table["moons"]) == {"mean-teacher"}
        agg = outcome.student_table["moons"]["supervised"]
        assert agg.n_runs == 2 and agg.std is not None

    def test_worker_pool_matches_serial_output(self, tiny_config, tmp_path):
        serial = quiet_run(tiny_config, out_dir=tmp_path / "serial", workers=1)
        pooled = quiet_run(tiny_config, out_dir=tmp_path / "pooled", workers=2)
        for fa, fb in zip(sorted(serial.files), sorted(pooled.files)):
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_bad_worker_count_is_rejected(self, tiny_config, tmp_path):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            quiet_run(tiny_config, out_dir=tmp_path / "out", workers=0)
        assert not (tmp_path / "out").exists()

    def test_workers_env_fallback(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        outcome = quiet_run(tiny_config, out_dir=tmp_path / "out")
        assert outcome.ok

    def test_failures_are_isolated_and_recorded(self, tmp_path):
        # second dataset's pool cannot cover its split: every run on it fails,
        # the healthy dataset still aggregates and is the only one dumped
        config = with_cramped_dataset(
            validate_config(tiny_config_text(report={"dump_datasets": True})))
        outcome = quiet_run(config, out_dir=tmp_path / "out")
        assert not outcome.ok
        assert len(outcome.failures) == 4
        assert all(run_id.startswith("cramped") for run_id in outcome.failures)
        assert all("SplitCapacityError" in tb for tb in outcome.failures.values())
        manifest = json.loads((outcome.out_dir / "manifest.json").read_text())
        entries = {r["run_id"]: r for r in manifest["runs"]}
        assert entries["cramped__supervised__seed0"]["status"] == "failed"
        assert entries["moons__supervised__seed0"]["status"] == "ok"
        assert "failure" not in entries["moons__supervised__seed0"]
        for run_id, traceback_text in outcome.failures.items():
            assert entries[run_id]["failure"] == f"failures/{run_id}.txt"
            failure_file = outcome.out_dir / entries[run_id]["failure"]
            assert failure_file in outcome.files
            saved = failure_file.read_text()
            assert saved == traceback_text and "SplitCapacityError" in saved
        assert "moons" in outcome.student_table
        assert "cramped" not in outcome.student_table
        dumped = sorted(p.name for p in (outcome.out_dir / "datasets").glob("*.csv"))
        assert dumped == ["moons_seed0.csv", "moons_seed1.csv"]

    def test_gap_curve_only_campaign(self, tmp_path):
        config = validate_config(json.dumps(
            {"name": "gap", "seeds": [0],
             "gap_curve": {"delta": 0.9, "gamma": 0.95, "max_lag": 20}}))
        outcome = quiet_run(config, out_dir=tmp_path / "out")
        assert outcome.ok
        assert [p.name for p in outcome.files] == ["gap_curve.csv", "manifest.json"]

    def test_grids_and_dataset_dumps(self, tmp_path):
        text = tiny_config_text(
            seeds=[0],
            algorithms=[{"name": "mean-teacher", "kind": "mean-teacher", "w_max": 4.0}],
            report={"grids": True, "grid_resolution": [5, 4], "dump_datasets": True})
        config = validate_config(text)
        outcome = quiet_run(config, out_dir=tmp_path / "out")
        names = {p.relative_to(outcome.out_dir).as_posix() for p in outcome.files}
        assert "grid_moons__mean-teacher__seed0.csv" in names
        assert "grid_moons__mean-teacher__seed0_ema.csv" in names
        assert "datasets/moons_seed0.csv" in names
        grid_file = outcome.out_dir / "grid_moons__mean-teacher__seed0.csv"
        assert len(grid_file.read_text().strip().split("\n")) == 1 + 5 * 4

    def test_history_files_parse_back(self, tiny_config, tmp_path):
        outcome = quiet_run(tiny_config, out_dir=tmp_path / "out")
        header, matrix = read_history_csv(
            str(outcome.out_dir / "runs" / "moons__mean-teacher__seed0.csv"))
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
        outcome = quiet_run(config, out_dir=out, workers=1)
        assert outcome.ok
        assert started == [spec.run_id for spec in build_runs(config)]

    def test_interrupted_campaign_keeps_finished_runs(self, tmp_path, monkeypatch):
        config = grid_config()
        full = quiet_run(config, out_dir=tmp_path / "full")
        third = build_runs(config)[2].run_id
        original = campaign.execute_run

        def interrupted(config, spec):
            if spec.run_id == third:
                raise KeyboardInterrupt
            return original(config, spec)

        monkeypatch.setattr(campaign, "execute_run", interrupted)
        cut = tmp_path / "cut"
        with pytest.raises(KeyboardInterrupt):
            quiet_run(config, out_dir=cut, workers=1)
        finished = [spec.run_id for spec in build_runs(config)[:2]]
        expected = {path.relative_to(cut).as_posix() for run_id in finished
                    for path in run_files(cut, run_id, "mean-teacher" in run_id)}
        written = {p.relative_to(cut).as_posix() for p in cut.rglob("*") if p.is_file()}
        assert written == expected
        for name in expected:
            assert (cut / name).read_bytes() == (full.out_dir / name).read_bytes(), name
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
        full = quiet_run(config, out_dir=tmp_path / "full", workers=1)
        original = campaign.execute_run

        def dies_first(config, spec):
            if spec.run_id == runs[0]:
                os._exit(1)
            return original(config, spec)

        monkeypatch.setattr(campaign, "execute_run", dies_first)
        out = tmp_path / "out"
        outcome = quiet_run(config, out_dir=out, workers=2)
        assert list(outcome.failures) == [runs[0]]
        assert "BrokenProcessPool" in (out / "failures" / f"{runs[0]}.txt").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["status"] for r in manifest["runs"]] == ["failed", "ok", "ok", "ok"]
        for run_id in runs[1:]:
            name = f"runs/{run_id}.csv"
            assert (out / name).read_bytes() == (full.out_dir / name).read_bytes(), name
        table = read_table(out / "table.csv")
        assert table["moons"]["supervised"]["all"][1] is None  # seed 1 only
        assert table["moons"]["mean-teacher"]["all"][1] is not None  # both seeds


class TestCli:
    def test_validate_accepts_good_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text())
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK: tiny (1 datasets x 2 algorithms x 2 seeds)" in out

    def test_validate_reports_problems(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text(seeds=[]))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config is invalid:" in err
        assert "seeds" in err

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
        monkeypatch.delenv(WORKERS_ENV, raising=False)
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

    @pytest.mark.parametrize("count", ["abc", "0", "1.5", ""])
    def test_bad_worker_env_exits_2(self, tmp_path, capsys, monkeypatch, count):
        monkeypatch.setenv(WORKERS_ENV, count)
        path = tmp_path / "c.json"
        path.write_text(tiny_config_text())
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"{WORKERS_ENV} must be a positive integer, got {count!r}\n")

    def test_preset_writes_valid_config(self, tmp_path, capsys):
        assert main(["preset", "ema-gap", "--out", str(tmp_path)]) == 0
        written = capsys.readouterr().out.strip()
        assert written.endswith("ema-gap.json")
        data = json.loads((tmp_path / "ema-gap.json").read_text())
        assert data["name"] == "ema-gap"

    def test_preset_rejects_unknown_name(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["preset", "toy-table9", "--out", str(tmp_path)])
