"""Tests of the benchmark itself: metric names, tracing, and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from skewlab import cli
from checks import RepOutputs, check_campaign, file_digests
from run import END_TO_END_UNITS
from tracing import PER_LAYER_UNITS, TARGETS, Tracer
from workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = {
    "name": "tiny",
    "seeds": [5],
    "datasets": [{"name": "twomoons", "kind": "twomoons", "labeled_max": 4, "rho_l": 2.0,
                  "unlabeled_max": 40, "val_per_class": 20, "data_noise": 0.1}],
    "algorithms": [{"name": "supervised", "kind": "supervised"},
                   {"name": "mean-teacher", "kind": "mean-teacher", "w_max": 8.0}],
    "schedule": {"total_iters": 20, "rampup_iters": 8, "base_lr": 0.1,
                 "lr_decay": [[16, 0.2]]},
    "training": {"eval_every": 10, "hidden_width": 8},
}


def run_tiny(tmp_path: Path, name: str, tracer: Tracer | None = None) -> tuple[Path, int]:
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    out = tmp_path / name
    argv = ["run", str(config), "--workers", "1", "--out", str(out)]
    if tracer is None:
        return out, cli.main(argv)
    with tracer.installed():
        return out, cli.main(argv)


def skewlab_attributes() -> dict[tuple[str, str], object]:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "skewlab" or name.startswith("skewlab.")
            for attr, value in vars(module).items() if callable(value)}


def test_benchmark_json_names_and_units_match_the_metric_tables():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
    for metric in spec["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_wraps_every_importer_and_restores_the_originals(tmp_path):
    import skewlab.mlp
    import skewlab.report
    import skewlab.training

    before = skewlab_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            forward = before[("skewlab.mlp", "forward")]
            assert skewlab.training.forward.__wrapped__ is forward
            assert skewlab.training.forward is skewlab.report.forward is skewlab.mlp.forward
            assert skewlab.mlp.param_add is before[("skewlab.mlp", "param_add")]
            assert skewlab.training.param_add is not skewlab.mlp.param_add
            raise RuntimeError("boom")
    assert skewlab_attributes() == before

    _, code = run_tiny(tmp_path, "traced", tracer)
    assert code == 0
    assert skewlab_attributes() == before
    wrapped = {name for name, *_ in TARGETS}
    assert {name for _, name, *_ in tracer.spans} >= wrapped - {
        "datasets.write_split_csv", "report.boundary_grid", "coeffs.gradient_gap_estimate",
        "coeffs.write_gap_curve", "losses.scl_consistency"}


def test_traced_run_writes_the_same_bytes_and_reports_every_layer_metric(tmp_path):
    plain, code = run_tiny(tmp_path, "plain")
    tracer = Tracer()
    traced, traced_code = run_tiny(tmp_path, "traced", tracer)
    assert code == traced_code == 0
    assert file_digests(plain) == file_digests(traced)

    metrics = tracer.layer_metrics(TINY["schedule"]["total_iters"])
    measured_elsewhere = {"losses.clamp_warnings", "campaign.files_written",
                          "campaign.bytes_written", "campaign.pool_busy_share",
                          "trace.overhead_s"}
    assert set(metrics) == set(PER_LAYER_UNITS) - measured_elsewhere
    assert metrics["mlp.backward_calls"] > 0
    assert metrics["training.step_ms.mean-teacher.twomoons"] > 0.0
    assert 0.0 < metrics["training.self_s"] < metrics["campaign.execute_run_s"]
    # two runs of one config do the same work
    again = Tracer()
    run_tiny(tmp_path, "again", again)
    repeat = again.layer_metrics(TINY["schedule"]["total_iters"])
    for name in ("mlp.flops", "mlp.forward_rows", "mlp.backward_calls", "losses.calls"):
        assert repeat[name] == metrics[name]


def test_digest_check_rejects_a_corrupted_copy(tmp_path):
    out, code = run_tiny(tmp_path, "out")
    run_ids, failed = check_campaign(out, code, TINY)
    assert len(run_ids) == 2 and not failed
    reference = RepOutputs.collect(file_digests(out), run_ids)

    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    assert not RepOutputs.collect(file_digests(copy), run_ids).mismatches(reference)

    history = copy / "runs" / f"{run_ids[1]}.csv"
    history.write_bytes(history.read_bytes().replace(b"1", b"2", 1))
    assert RepOutputs.collect(file_digests(copy), run_ids).mismatches(reference) == {run_ids[1]}

    table = copy / "table.csv"
    table.write_bytes(table.read_bytes() + b"\n")
    assert RepOutputs.collect(file_digests(copy), run_ids).mismatches(reference) == set(run_ids)


def test_output_check_rejects_a_nonfinite_table_and_a_failed_exit(tmp_path):
    out, code = run_tiny(tmp_path, "out")
    run_ids, _ = check_campaign(out, 1, TINY)
    assert check_campaign(out, 1, TINY)[1] == set(run_ids)

    table = out / "table_ema.csv"
    header, row = table.read_text(encoding="utf-8").splitlines()[:2]
    cells = row.split(",")
    table.write_text(f"{header}\n{','.join(cells[:2] + ['nan'] + cells[3:])}\n",
                     encoding="utf-8")
    assert check_campaign(out, code, TINY)[1] == set(run_ids)
