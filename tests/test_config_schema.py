"""Config behaviour pinned across refactors: preset and workload digests, the
exact error set of single-fault configs, and the to_dict round trip."""

from __future__ import annotations

import copy
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.campaign import run_campaign
from skewlab.config import (
    PRESET_NAMES,
    ConfigError,
    config_digest,
    preset_config,
    validate_config,
)
from skewlab.training import REGIMES, AlgorithmSpec

PRESET_DIGESTS = {
    "toy-table1": "997bf6e07fa0a2d0998f2c82af1316547cc07ff8bc76bd3b150a17c3d366d944",
    "toy-figure1-grids": "da28fd49d43d104fd59f308b6097969c6330e624f6459c470b8de8535bafb65a",
    "ema-gap": "ed765f2c7281666ed3962072728282fbccc89269e075f1a81db4693dd4ed6905",
    "ablation-scl-shapes": "88fd0be63d0249de73eba3bd5b0c08aa39b03b3bbd07a23e0755359534dca517",
}

WORKLOAD_DIGESTS = {
    "table1-serial": "4bc47fad8c9350c1bdfa134fe1aafc25d85d4c25461dabbefd0bd864328866a8",
    "table1-pool": "4bc47fad8c9350c1bdfa134fe1aafc25d85d4c25461dabbefd0bd864328866a8",
    "figure1-preview": "c3c11194023f909fbf332d624178769cbce6adc1a0db569cdcd90c689977463c",
}


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestPinnedDigests:
    def test_every_preset_is_pinned(self):
        assert set(PRESET_DIGESTS) == set(PRESET_NAMES)

    @pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
    def test_preset_digest(self, name):
        assert config_digest(preset_config(name)) == PRESET_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
    def test_benchmark_workload_digest_at_seed_zero(self, name):
        config = validate_config(json.dumps(_benchmark_workloads()[name].config(0)))
        assert config_digest(config) == WORKLOAD_DIGESTS[name]


BASE = {
    "name": "corpus",
    "seeds": [0],
    "datasets": [{"kind": "twomoons", "labeled_max": 10, "unlabeled_max": 40,
                  "val_per_class": 20}],
    "algorithms": [{"kind": "mt-scl"}],
}
DELETE = object()
NO_DATASETS = "datasets: datasets and algorithms must both be given to run training"
NO_ALGORITHMS = "algorithms: datasets and algorithms must both be given to run training"


def bad_name(path: str, name: str) -> str:
    return f"{path}.name: must be letters and digits joined by single '.', '_' or '-', got {name!r}"


def mutated(path: str, value) -> str:
    """BASE with the dotted path set to value (list indices as numbers)."""
    config = copy.deepcopy(BASE)
    *parents, last = path.split(".")
    target = config
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target.setdefault(part, {})
    if isinstance(target, list):
        target[int(last)] = value
    elif value is DELETE:
        del target[last]
    else:
        target[last] = value
    return json.dumps(config)


# One fault per config: out of range, wrong type and unknown key for every block.
CORPUS = [
    ("extra", 1, {"extra: unknown key"}),
    ("name", 5, {"name: must be a string"}),
    ("name", DELETE, {"name: required key is missing"}),
    ("output_dir", 3, {"output_dir: must be a string"}),
    ("seeds", "0", {"seeds: must be a nonempty list of integers"}),
    ("seeds", [-1], {"seeds[0]: must be nonnegative"}),
    ("seeds", [1.5], {"seeds[0]: must be an integer"}),
    ("seeds", [2, 2], {"seeds: must not repeat"}),
    ("datasets", {}, {"datasets: must be a list", NO_DATASETS}),
    ("datasets.0", 3, {"datasets[0]: must be an object", NO_DATASETS}),
    ("datasets.0.noise", 0.1, {"datasets[0].noise: unknown key"}),
    ("datasets.0.kind", "spirals",
     {"datasets[0].kind: must be one of ['fourspins', 'twomoons'], got 'spirals'", NO_DATASETS}),
    ("datasets.0.labeled_max", "10", {"datasets[0].labeled_max: must be an integer", NO_DATASETS}),
    ("datasets.0.unlabeled_max", 0, {"datasets[0].unlabeled_max: must be at least 1", NO_DATASETS}),
    ("datasets.0.val_per_class", DELETE,
     {"datasets[0].val_per_class: required key is missing", NO_DATASETS}),
    ("datasets.0.n_pool_per_class", 0, {"datasets[0].n_pool_per_class: must be at least 1"}),
    ("datasets.0.data_noise", -0.1, {"datasets[0].data_noise: must be at least 0.0"}),
    ("datasets.0.rho_l", 0.5, {"datasets[0].rho_l: must be at least 1.0"}),
    ("datasets.0.rho_l", "5", {"datasets[0].rho_l: must be a real number"}),
    ("datasets.0.name", 7, {"datasets[0].name: must be a string"}),
    # names go into run ids ("__" joins), file paths and CSV cells
    ("datasets.0.name", "a__b", {bad_name("datasets[0]", "a__b")}),
    ("datasets.0.name", "sub/dir", {bad_name("datasets[0]", "sub/dir")}),
    ("datasets.0.name", "", {bad_name("datasets[0]", "")}),
    ("algorithms.0.name", "../x", {bad_name("algorithms[0]", "../x")}),
    ("algorithms.0.name", "mt,scl", {bad_name("algorithms[0]", "mt,scl")}),
    ("algorithms.0.name", "mt-", {bad_name("algorithms[0]", "mt-")}),
    ("datasets.0.unlabeled_type", "skewed",
     {"datasets[0].unlabeled_type: must be one of ['half', 'same', 'uniform'], got 'skewed'"}),
    ("algorithms", [{"kind": "mt-scl"}, {"kind": "mt-scl"}], {"algorithms: names must be unique"}),
    ("algorithms.0", "mt-scl", {"algorithms[0]: must be an object", NO_ALGORITHMS}),
    ("algorithms.0.momentum", 0.9, {"algorithms[0].momentum: unknown key"}),
    ("algorithms.0.kind", 3, {"algorithms[0].kind: must be a string", NO_ALGORITHMS}),
    ("algorithms.0.kind", "fixmatch",
     {"algorithms[0].kind: must be one of ['mean-teacher', 'mt-scl', 'pi-model', "
      "'pseudo-label', 'supervised'], got 'fixmatch'", NO_ALGORITHMS}),
    ("algorithms.0.w_max", True, {"algorithms[0].w_max: must be a real number"}),
    ("algorithms.0.w_max", -1, {"algorithms[0].w_max: must be at least 0.0"}),
    # null is no way to ask for a derived default
    ("algorithms.0.w_max", None, {"algorithms[0].w_max: must be a real number"}),
    ("algorithms.0.name", None, {"algorithms[0].name: must be a string"}),
    ("datasets.0.name", None, {"datasets[0].name: must be a string"}),
    ("datasets.0.n_pool_per_class", None, {"datasets[0].n_pool_per_class: must be an integer"}),
    ("schedule.rampup_iters", None, {"schedule.rampup_iters: must be an integer"}),
    ("output_dir", None, {"output_dir: must be a string"}),
    ("algorithms.0.ema_gamma", 0.0, {"algorithms[0].ema_gamma: must lie in (0,1]"}),
    ("algorithms.0.pl_threshold", 1.5, {"algorithms[0].pl_threshold: must lie in (0,1]"}),
    ("algorithms.0.scl_pred_source", "teacher",
     {"algorithms[0].scl_pred_source: must be one of ['student', 'target'], got 'teacher'"}),
    ("algorithms.0.scl", [1], {"algorithms[0].scl: must be an object"}),
    ("algorithms.0.scl.rate", 2, {"algorithms[0].scl.rate: unknown key"}),
    ("algorithms.0.scl.beta", 1.5, {"algorithms[0].scl.beta: must lie in (0,1]"}),
    ("algorithms.0.scl.beta", "half", {"algorithms[0].scl.beta: must be a real number"}),
    ("algorithms.0.scl.shape", "cubic",
     {"algorithms[0].scl.shape: must be one of ['exponential', 'linear'], got 'cubic'"}),
    ("algorithms.0.reweight", 1, {"algorithms[0].reweight: must be an object"}),
    ("algorithms.0.reweight.weights", 1, {"algorithms[0].reweight.weights: unknown key"}),
    ("algorithms.0.reweight.method", 1, {"algorithms[0].reweight.method: must be a string"}),
    ("algorithms.0.reweight.focal_gamma", -1.0,
     {"algorithms[0].reweight.focal_gamma: must be at least 0.0"}),
    ("algorithms.0.reweight.cb_beta", 1.0, {"algorithms[0].reweight.cb_beta: must lie in [0,1)"}),
    ("schedule", [], {"schedule: must be an object"}),
    ("schedule.warmup", 5, {"schedule.warmup: unknown key"}),
    ("schedule.total_iters", 0, {"schedule.total_iters: must be at least 1"}),
    ("schedule.rampup_iters", 2.5, {"schedule.rampup_iters: must be an integer"}),
    ("schedule.rampup_iters", -1, {"schedule.rampup_iters: must be at least 0"}),
    ("schedule.base_lr", 0.0, {"schedule.base_lr: out of range"}),
    ("schedule.lr_decay", 5, {"schedule.lr_decay: must be a list of [iteration, factor] pairs"}),
    ("schedule.lr_decay", [[100, 0]],
     {"schedule.lr_decay[0]: must be [iteration >= 0, positive factor]"}),
    ("schedule.lr_decay", [[-5, 0.5]],
     {"schedule.lr_decay[0]: must be [iteration >= 0, positive factor]"}),
    ("schedule.lr_decay", [[100, 0.5], [50, 0.5]],
     {"schedule.lr_decay: iterations must be strictly increasing"}),
    ("training", 1, {"training: must be an object"}),
    ("training.batch", 8, {"training.batch: unknown key"}),
    ("training.labeled_batch", 0, {"training.labeled_batch: must be at least 1"}),
    ("training.hidden_width", "64", {"training.hidden_width: must be an integer"}),
    ("training.perturb_std", -0.5, {"training.perturb_std: must be at least 0.0"}),
    ("training.momentum", 1.0, {"training.momentum: must lie in [0,1)"}),
    ("training.sample_with_replacement", 1,
     {"training.sample_with_replacement: must be a boolean"}),
    ("report", "all", {"report: must be an object"}),
    ("report.grid", True, {"report.grid: unknown key"}),
    ("report.grids", "yes", {"report.grids: must be a boolean"}),
    ("report.grid_resolution", [1, 5], {"report.grid_resolution: must be [nx >= 2, ny >= 2]"}),
    ("gap_curve", 5, {"gap_curve: must be an object"}),
    ("gap_curve", {"lag": 5}, {"gap_curve.lag: unknown key"}),
    ("gap_curve", {"delta": 1.0}, {"gap_curve.delta: must lie in [0,1)"}),
    ("gap_curve", {"gamma": 0.0}, {"gap_curve.gamma: must lie in (0,1]"}),
    ("gap_curve", {"max_lag": "5"}, {"gap_curve.max_lag: must be an integer"}),
    # a bad entry keeps the index of every later one
    ("datasets", [3, {**BASE["datasets"][0], "n_pool_per_class": 1}],
     {"datasets[0]: must be an object", "datasets[1].n_pool_per_class: must be at least 70 "
      "(labeled_max + unlabeled_max + val_per_class)"}),
    ("algorithms", [3, {"kind": "pi-model"}], {"algorithms[0]: must be an object"}),
    ("report.grid_resolution", [3, 4, 5], {"report.grid_resolution: must be [nx >= 2, ny >= 2]"}),
    ("report.grid_resolution", [2.5, 3], {"report.grid_resolution: must be [nx >= 2, ny >= 2]"}),
    ("report.grid_resolution", "x", {"report.grid_resolution: must be [nx >= 2, ny >= 2]"}),
    ("schedule.lr_decay", [[1]],
     {"schedule.lr_decay[0]: must be [iteration >= 0, positive factor]"}),
    ("schedule.lr_decay", [[1.0, 0.5]],
     {"schedule.lr_decay[0]: must be [iteration >= 0, positive factor]"}),
    ("schedule.lr_decay", [[True, 0.5]],
     {"schedule.lr_decay[0]: must be [iteration >= 0, positive factor]"}),
    ("schedule.lr_decay", [[5, 0.5], [3, 0.5], [1, 0]],
     {"schedule.lr_decay[2]: must be [iteration >= 0, positive factor]",
      "schedule.lr_decay: iterations must be strictly increasing"}),
    ("seeds", [True, -1], {"seeds[0]: must be an integer", "seeds[1]: must be nonnegative"}),
    ("schedule", None, {"schedule: must be an object"}),
    ("report", None, {"report: must be an object"}),
    ("algorithms.0.scl", None, {"algorithms[0].scl: must be an object"}),
]


class TestBadConfigCorpus:
    @pytest.mark.parametrize("path,value,expected", CORPUS,
                             ids=[f"{p}={v!r}" if v is not DELETE else f"{p}-deleted"
                                  for p, v, _ in CORPUS])
    def test_exact_error_set(self, path, value, expected):
        with pytest.raises(ConfigError) as excinfo:
            validate_config(mutated(path, value))
        assert set(excinfo.value.errors) == expected

    def test_base_is_valid(self):
        validate_config(json.dumps(BASE))

    def test_repeated_keys_are_errors(self):
        text = ('{"name": "corpus", "seeds": [0], "seeds": [1], "datasets": [{"kind": '
                '"twomoons", "labeled_max": 10, "labeled_max": 12, "unlabeled_max": 40, '
                '"val_per_class": 20}], "algorithms": [{"kind": "mt-scl"}]}')
        with pytest.raises(ConfigError) as excinfo:
            validate_config(text)
        assert set(excinfo.value.errors) == {
            "key 'seeds' appears more than once in one object",
            "key 'labeled_max' appears more than once in one object"}

    def test_null_gap_curve_is_absent(self):
        assert (config_digest(validate_config(json.dumps({**BASE, "gap_curve": None})))
                == config_digest(validate_config(json.dumps(BASE))))

    def test_grid_resolution_beside_a_missing_name(self):
        # the report is still read beside a failed required key
        config = {key: value for key, value in BASE.items() if key != "name"}
        config["report"] = {"grid_resolution": [5, 4]}
        with pytest.raises(ConfigError) as excinfo:
            validate_config(json.dumps(config))
        assert set(excinfo.value.errors) == {"name: required key is missing"}

    def test_empty_object(self):
        with pytest.raises(ConfigError) as excinfo:
            validate_config("{}")
        assert set(excinfo.value.errors) == {
            "name: required key is missing", "seeds: required key is missing",
            "datasets: at least one dataset is required unless gap_curve is set"}


@pytest.mark.parametrize("kind", sorted(REGIMES))
def test_an_algorithm_entry_defaults_as_its_spec_does(kind):
    # the name and w_max a library caller gets are the ones a config gets
    entry = validate_config(json.dumps({**BASE, "algorithms": [{"kind": kind}]})).algorithms[0]
    spec = AlgorithmSpec(kind=kind)
    assert (spec.name, spec.w_max) == (entry.name, entry.w_max) == (kind, REGIMES[kind][0])


def errors_of(config: dict) -> set[str]:
    with pytest.raises(ConfigError) as excinfo:
        validate_config(json.dumps(config))
    return set(excinfo.value.errors)


# labeled_max 4 at rho_l 2 gives classes of 4 and 2; unlabeled_max 10 gives 10 and 5.
SMALL = {"name": "small", "seeds": [0],
         "datasets": [{"kind": "twomoons", "labeled_max": 4, "rho_l": 2.0,
                       "unlabeled_max": 10, "val_per_class": 5}],
         "algorithms": [{"kind": "mean-teacher"}],
         "schedule": {"total_iters": 6, "rampup_iters": 2},
         "training": {"hidden_width": 4, "eval_every": 3}}


WITHOUT_REPLACEMENT = {"sample_with_replacement": False, "labeled_batch": 6,
                       "unlabeled_batch": 15}


def small(**changes) -> dict:
    config = copy.deepcopy(SMALL)
    for block, values in changes.items():
        target = config[block][0] if block == "datasets" else config[block]
        target.update(values)
    return config


class TestValidConfigsCanRun:
    """Configs that validate must be able to run; these each failed at run time before."""

    def test_empty_validation_set_is_rejected(self):
        assert errors_of(small(datasets={"val_per_class": 0})) == {
            "datasets[0].val_per_class: must be at least 1", NO_DATASETS}

    def test_pool_smaller_than_the_split_is_rejected(self):
        assert errors_of(small(datasets={"n_pool_per_class": 18})) == {
            "datasets[0].n_pool_per_class: must be at least 19 "
            "(labeled_max + unlabeled_max + val_per_class)"}

    @pytest.mark.parametrize("batches,errors", [
        ({"labeled_batch": 7}, {"training.labeled_batch: exceeds the 6 labeled points of "
                                "dataset 'twomoons'; sampling is without replacement"}),
        ({"unlabeled_batch": 16}, {"training.unlabeled_batch: exceeds the 15 unlabeled points "
                                   "of dataset 'twomoons'; sampling is without replacement"}),
    ])
    def test_batch_larger_than_its_partition_without_replacement_is_rejected(
            self, batches, errors):
        assert errors_of(small(training={**WITHOUT_REPLACEMENT, **batches})) == errors

    def test_unlabeled_partition_follows_the_unlabeled_profile(self):
        # uniform: 10 + 10 unlabeled points
        config = small(datasets={"unlabeled_type": "uniform"},
                       training={**WITHOUT_REPLACEMENT, "unlabeled_batch": 21})
        assert errors_of(config) == {
            "training.unlabeled_batch: exceeds the 20 unlabeled points of dataset 'twomoons'; "
            "sampling is without replacement"}

    @pytest.mark.parametrize("path,value,expected", [
        ("datasets.0.data_noise", float("nan"), "datasets[0].data_noise: must be a real number"),
        ("schedule.base_lr", float("inf"), "schedule.base_lr: must be a real number"),
        ("algorithms.0.w_max", 10**400, "algorithms[0].w_max: must be a real number"),
        ("schedule.lr_decay", [[10, float("nan")]],
         "schedule.lr_decay[0]: must be [iteration >= 0, positive factor]"),
        # JSON readers round integers from 2**53; 10**400 overflowed the ramp-up default
        ("schedule.total_iters", 10**400, "schedule.total_iters: must be an integer"),
        ("seeds", [2**53], "seeds[0]: must be an integer"),
    ], ids=["nan-noise", "infinite-lr", "huge-w_max", "nan-decay-factor", "huge-total_iters",
            "inexact-seed"])
    def test_non_finite_numbers_are_rejected(self, path, value, expected):
        with pytest.raises(ConfigError) as excinfo:
            validate_config(mutated(path, value))
        assert set(excinfo.value.errors) == {expected}

    def test_class_counts_beyond_exact_json_range_are_rejected(self):
        # 2**63 overflowed the class counts
        assert errors_of(small(datasets={"labeled_max": 2**63}, training=WITHOUT_REPLACEMENT)) == {
            "datasets[0].labeled_max: must be an integer", NO_DATASETS}

    def test_largest_exact_integer_is_accepted(self):
        validate_config(json.dumps({**SMALL, "seeds": [2**53 - 1]}))

    def test_smallest_accepted_config_runs(self, tmp_path):
        config = validate_config(json.dumps(small(
            datasets={"val_per_class": 1, "n_pool_per_class": 15},
            training=WITHOUT_REPLACEMENT)))
        failures = run_campaign(config, out_dir=tmp_path, workers=1, log=io.StringIO())
        assert not failures, failures


def _finite(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


def _optional(strategies: dict):
    return st.fixed_dictionaries({}, optional=strategies)


@st.composite
def valid_configs(draw):
    """Raw configs that validate: every key optional unless the schema requires it."""
    config = {"name": draw(st.text(max_size=8)),
              "seeds": draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3,
                                     unique=True))}
    config.update(draw(_optional({"output_dir": st.text(min_size=1, max_size=8)})))
    training = draw(_optional({
        "labeled_batch": st.integers(1, 64), "unlabeled_batch": st.integers(1, 64),
        "perturb_std": _finite(0.0, 1.0), "momentum": _finite(0.0, 1.0, exclude_max=True),
        "weight_decay": _finite(0.0, 0.1), "hidden_width": st.integers(1, 128),
        "hidden_layers": st.integers(1, 4), "eval_every": st.integers(1, 1000)}))
    if draw(st.booleans()):
        training["sample_with_replacement"] = True
    elif draw(st.booleans()):
        # every split has at least one labeled and one unlabeled point per class
        training.update(sample_with_replacement=False,
                        labeled_batch=draw(st.integers(1, 2)),
                        unlabeled_batch=draw(st.integers(1, 2)))
    if training or draw(st.booleans()):
        config["training"] = training
    points = draw(st.lists(st.integers(0, 10_000), unique=True, max_size=3))
    schedule = draw(_optional({
        "total_iters": st.integers(1, 10_000), "rampup_iters": st.integers(0, 5000),
        "base_lr": _finite(1e-6, 10.0),
        "lr_decay": st.just([[p, draw(_finite(0.01, 2.0))] for p in sorted(points)])}))
    if schedule or draw(st.booleans()):
        config["schedule"] = schedule
    report = draw(_optional({
        "grids": st.booleans(), "dump_datasets": st.booleans(),
        "grid_resolution": st.lists(st.integers(2, 300), min_size=2, max_size=2)}))
    if report or draw(st.booleans()):
        config["report"] = report
    gap = draw(st.none() | _optional({
        "delta": _finite(0.0, 1.0, exclude_max=True),
        "gamma": _finite(0.0, 1.0, exclude_min=True), "max_lag": st.integers(1, 1000)}))
    if gap is not None or draw(st.booleans()):
        config["gap_curve"] = gap
    if gap is None or draw(st.booleans()):
        config["datasets"] = [_named(draw(_dataset()), f"d{i}")
                              for i in range(draw(st.integers(1, 2)))]
        config["algorithms"] = [_named(draw(_algorithm()), f"a{i}")
                                for i in range(draw(st.integers(1, 3)))]
    return config


def _named(entry: dict, name: str) -> dict:
    return {**entry, "name": name}


def _dataset():
    required = st.fixed_dictionaries({
        "kind": st.sampled_from(["twomoons", "fourspins"]), "labeled_max": st.integers(1, 30),
        "unlabeled_max": st.integers(1, 100), "val_per_class": st.integers(1, 50)},
        optional={"data_noise": _finite(0.0, 1.0), "rho_l": _finite(1.0, 20.0),
                  "unlabeled_type": st.sampled_from(["uniform", "half", "same"])})
    return st.tuples(required, st.none() | st.integers(0, 20)).map(_with_pool)


def _with_pool(pair):
    entry, spare = pair
    if spare is not None:
        entry = {**entry, "n_pool_per_class": entry["labeled_max"] + entry["unlabeled_max"]
                 + entry["val_per_class"] + spare}
    return entry


def _algorithm():
    unit = _finite(0.0, 1.0, exclude_min=True)
    return st.fixed_dictionaries(
        {"kind": st.sampled_from(["supervised", "pi-model", "mean-teacher", "pseudo-label",
                                  "mt-scl"])},
        optional={"w_max": _finite(0.0, 50.0) | st.integers(0, 50), "ema_gamma": unit,
                  "pl_threshold": unit,
                  "scl_pred_source": st.sampled_from(["student", "target"]),
                  "scl": _optional({"shape": st.sampled_from(["exponential", "linear"]),
                                    "beta": unit}),
                  "reweight": _optional({"method": st.sampled_from(["ce", "in", "focal", "cb"]),
                                         "focal_gamma": _finite(0.0, 5.0),
                                         "cb_beta": _finite(0.0, 1.0, exclude_max=True)})})


class TestRoundTrip:
    @given(raw=valid_configs())
    @settings(max_examples=150, deadline=None)
    def test_to_dict_validates_to_the_same_digest(self, raw):
        config = validate_config(json.dumps(raw))
        again = validate_config(json.dumps(config.to_dict()))
        assert again.to_dict() == config.to_dict()
        assert config_digest(again) == config_digest(config)


def small_sizes(raw: dict) -> dict:
    """raw with at most 20 iterations, every decay point below them, at most 8
    hidden units and at most 12 grid nodes along each axis."""
    raw = copy.deepcopy(raw)
    schedule = raw.setdefault("schedule", {})
    total = schedule["total_iters"] = min(schedule.get("total_iters", 20), 20)
    decay = {point % total: factor for point, factor in schedule.get("lr_decay", [[4000, 0.2]])}
    schedule["lr_decay"] = [[point, decay[point]] for point in sorted(decay)]
    training = raw.setdefault("training", {})
    training["hidden_width"] = min(training.get("hidden_width", 8), 8)
    report = raw.setdefault("report", {})
    report["grid_resolution"] = [min(n, 12) for n in report.get("grid_resolution", [12, 12])]
    return raw


class TestSmallValidConfigsRun:
    """Every accepted config runs; a run may only fail by diverging, which a
    w_max up to 50 with a base_lr up to 10 can."""

    @given(raw=valid_configs())
    @settings(max_examples=50, deadline=None)
    def test_only_divergence_fails_a_run(self, raw):
        config = validate_config(json.dumps(small_sizes(raw)))
        with tempfile.TemporaryDirectory() as out:
            failures = run_campaign(config, workers=1, out_dir=out, log=io.StringIO())
        for error in failures.values():
            assert error.splitlines()[-1].startswith("skewlab.training.TrainingDiverged: "), error


# BASE with every block, sampling without replacement so that the batch check runs
FULL = {**BASE,
        "output_dir": "out",
        "algorithms": [{"kind": "mt-scl", "w_max": 4.0, "scl": {"beta": 0.5},
                        "reweight": {"method": "cb"}}],
        "schedule": {"total_iters": 100, "rampup_iters": 10, "base_lr": 0.1,
                     "lr_decay": [[50, 0.5], [80, 0.2]]},
        "training": {"labeled_batch": 4, "unlabeled_batch": 8, "sample_with_replacement": False},
        "report": {"grids": True, "grid_resolution": [20, 30]},
        "gap_curve": {"delta": 0.5, "gamma": 0.9, "max_lag": 50}}

_scalars = (st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4)
            | st.sampled_from([2**53, -2**63, 10**300, 10**400, "twomoons", "mt-scl"]))
_json_values = _scalars | st.recursive(
    _scalars, lambda inner: (st.lists(inner, max_size=3)
                             | st.dictionaries(st.sampled_from(["kind", "x"]) | st.text(max_size=4),
                                               inner, max_size=3)),
    max_leaves=6)


def _slots(node):
    """(container, key) of every value inside node."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def edited_configs(draw):
    """FULL with one to three of its values replaced by arbitrary JSON values."""
    config = copy.deepcopy(FULL)
    for _ in range(draw(st.integers(1, 3))):
        target, key = draw(st.sampled_from(list(_slots(config))))
        target[key] = draw(_json_values)
    return config


class TestArbitraryValues:
    def test_full_is_valid(self):
        validate_config(json.dumps(FULL))

    @given(raw=edited_configs())
    @settings(max_examples=1000, deadline=None)
    def test_any_json_gives_a_config_or_config_errors(self, raw):
        try:
            validate_config(json.dumps(raw))
        except ConfigError:
            pass
