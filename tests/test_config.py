"""Config validation: every problem reported at once, with stable defaults."""

from __future__ import annotations

import json

import pytest

from skewlab.config import (
    MAX_ARRAY_ELEMENTS,
    PRESET_NAMES,
    ConfigError,
    config_digest,
    largest_arrays,
    load_config,
    preset_config,
    preset_dict,
    validate_config,
)


def minimal(**overrides):
    base = {
        "name": "smoke",
        "seeds": [0],
        "datasets": [{"kind": "twomoons", "labeled_max": 10,
                      "unlabeled_max": 40, "val_per_class": 20}],
        "algorithms": [{"kind": "supervised"}],
    }
    base.update(overrides)
    return json.dumps(base)


def errors_of(text):
    with pytest.raises(ConfigError) as excinfo:
        validate_config(text)
    return excinfo.value.errors


class TestValidation:
    def test_minimal_config_is_accepted(self):
        config = validate_config(minimal())
        assert config.name == "smoke"
        assert config.output_dir == "smoke-out"
        assert len(config.datasets) == len(config.algorithms) == 1

    def test_scl_beta_out_of_range_names_the_field(self):
        text = minimal(algorithms=[{"kind": "mt-scl",
                                    "scl": {"shape": "exponential", "beta": 1.5}}])
        errs = errors_of(text)
        assert any("algorithms[0].scl.beta" in e and "must lie in (0,1]" in e
                   for e in errs)

    @pytest.mark.parametrize("mutate,expected", [
        (dict(extra=1), "extra: unknown key"),
        (dict(schedule={"total_iters": 100, "warmup": 5}),
         "schedule.warmup: unknown key"),
        (dict(training={"batch": 8}), "training.batch: unknown key"),
        (dict(report={"grid": True}), "report.grid: unknown key"),
    ])
    def test_unknown_keys_are_named(self, mutate, expected):
        assert expected in errors_of(minimal(**mutate))

    def test_unknown_dataset_and_algorithm_keys(self):
        text = minimal(
            datasets=[{"kind": "twomoons", "labeled_max": 10, "unlabeled_max": 40,
                       "val_per_class": 20, "noise": 0.1}],
            algorithms=[{"kind": "mt-scl", "scl": {"shape": "linear", "rate": 2}}])
        errs = errors_of(text)
        assert "datasets[0].noise: unknown key" in errs
        assert "algorithms[0].scl.rate: unknown key" in errs

    @pytest.mark.parametrize("seeds,fragment", [
        ([], "seeds: must be a nonempty list"),
        ([0, 0], "seeds: must not repeat"),
        ([0, -1], "seeds[1]: must be nonnegative"),
        ([0, "a"], "seeds[1]: must be an integer"),
        ([True], "seeds[0]: must be an integer"),
    ])
    def test_seed_validation(self, seeds, fragment):
        assert any(fragment in e for e in errors_of(minimal(seeds=seeds)))

    def test_missing_name_and_seeds_reported_together(self):
        errs = errors_of(json.dumps({"gap_curve": {}}))
        assert "name: required key is missing" in errs
        assert "seeds: required key is missing" in errs

    def test_datasets_without_algorithms_rejected(self):
        base = json.loads(minimal())
        del base["algorithms"]
        errs = errors_of(json.dumps(base))
        assert any("must both be given" in e for e in errs)

    def test_training_requires_some_work(self):
        errs = errors_of(json.dumps({"name": "idle", "seeds": [0]}))
        assert any("unless gap_curve is set" in e for e in errs)

    def test_gap_curve_only_config_is_valid(self):
        config = validate_config(json.dumps(
            {"name": "gap", "seeds": [0], "gap_curve": {}}))
        assert config.datasets == () and config.algorithms == ()
        assert config.gap_curve.delta == 0.9
        assert config.gap_curve.gamma == 0.95
        assert config.gap_curve.max_lag == 500

    def test_not_json_and_non_object_top_level(self):
        assert any("not valid JSON" in e for e in errors_of("{"))
        assert any("top level" in e for e in errors_of("[1, 2]"))

    def test_multiple_problems_surface_in_one_pass(self):
        text = minimal(seeds=[0, 0],
                       schedule={"total_iters": 0, "base_lr": -1.0},
                       training={"momentum": 1.0})
        errs = errors_of(text)
        assert len(errs) >= 4
        assert any(e.startswith("schedule.total_iters") for e in errs)
        assert any(e.startswith("schedule.base_lr") for e in errs)
        assert any("training.momentum" in e and "[0,1)" in e for e in errs)

    def test_lr_decay_must_increase(self):
        text = minimal(schedule={"lr_decay": [[100, 0.5], [100, 0.5]]})
        assert any("strictly increasing" in e for e in errors_of(text))

    def test_exception_message_lists_fields(self):
        with pytest.raises(ConfigError, match="invalid config:"):
            validate_config(minimal(seeds=[]))


class TestArraySizes:
    CAP = f"more than the {MAX_ARRAY_ELEMENTS} one array of a run may hold"

    def paths_of(self, errors):
        assert all(error.endswith(self.CAP) for error in errors)
        return [error.split(":")[0] for error in errors]

    def test_a_pool_too_large_to_allocate_names_its_setting(self):
        dataset = {"kind": "twomoons", "labeled_max": 10, "unlabeled_max": 40,
                   "val_per_class": 20, "n_pool_per_class": 4503599627370496}
        errors = errors_of(minimal(datasets=[dataset]))
        assert errors == ["datasets[0].n_pool_per_class: the pool's points would hold "
                          f"18014398509481984 elements, {self.CAP}"]

    def test_a_width_and_grid_too_large_to_allocate_name_their_settings(self):
        errors = errors_of(minimal(training={"hidden_width": 4503599627370495},
                                   report={"grids": True,
                                           "grid_resolution": [4503599627370495, 2]}))
        assert self.paths_of(errors) == ["training.hidden_width"] * 3 + ["report.grid_resolution"]

    def test_a_deep_network_names_its_depth(self):
        errors = errors_of(minimal(training={"hidden_width": 1, "hidden_layers": 2**27}))
        assert self.paths_of(errors) == ["training.hidden_layers"]

    def test_an_unused_grid_resolution_is_not_counted(self):
        validate_config(minimal(report={"grid_resolution": [4503599627370495, 2]}))

    def test_the_cap_itself_is_accepted(self):
        # 8192 x 8192 nodes of two coordinates are exactly the cap
        validate_config(minimal(report={"grids": True, "grid_resolution": [8192, 8192]}))
        errors = errors_of(minimal(report={"grids": True, "grid_resolution": [8193, 8192]}))
        assert self.paths_of(errors) == ["report.grid_resolution"]

    def test_a_campaign_without_runs_allocates_nothing(self):
        config = validate_config(json.dumps({"name": "gap", "seeds": [0], "gap_curve": {}}))
        assert largest_arrays(config) == []


class TestDefaults:
    def test_schedule_and_training_defaults(self):
        config = validate_config(minimal())
        assert config.schedule.total_iters == 5000
        assert config.schedule.rampup_iters == 2000
        assert config.schedule.base_lr == 0.1
        assert config.schedule.lr_decay == ((4000, 0.2),)
        assert config.training.labeled_batch == config.training.unlabeled_batch == 32
        assert config.training.perturb_std == 0.1
        assert config.training.momentum == 0.9
        assert config.training.hidden_width == 64 and config.training.hidden_layers == 2
        assert config.training.eval_every == 500
        assert config.training.sample_with_replacement is True

    def test_rampup_default_tracks_total(self):
        config = validate_config(minimal(schedule={"total_iters": 1000}))
        assert config.schedule.rampup_iters == 400

    def test_dataset_pool_default_covers_the_split(self):
        config = validate_config(minimal())
        d = config.datasets[0]
        assert d.n_pool_per_class == 10 + 40 + 20
        assert d.name == "twomoons"

    @pytest.mark.parametrize("kind,w_max", [
        ("supervised", 0.0), ("pi-model", 20.0), ("mean-teacher", 8.0),
        ("pseudo-label", 1.0), ("mt-scl", 8.0),
    ])
    def test_per_kind_consistency_weight_defaults(self, kind, w_max):
        config = validate_config(minimal(algorithms=[{"kind": kind}]))
        assert config.algorithms[0].w_max == w_max
        assert config.algorithms[0].name == kind

    def test_report_defaults(self):
        config = validate_config(minimal())
        assert config.report.grids is False
        assert config.report.grid_resolution == (200, 200)
        assert config.report.dump_datasets is False


class TestTrainConfigBridge:
    def test_schedule_and_train_config_carry_fields(self):
        config = validate_config(minimal(
            schedule={"total_iters": 300, "rampup_iters": 100, "base_lr": 0.2,
                      "lr_decay": [[200, 0.5]]},
            training={"labeled_batch": 4, "hidden_width": 8}))
        tc = config.training
        sched = tc.schedule
        assert sched is config.schedule
        assert (sched.total_iters, sched.rampup_iters) == (300, 100)
        assert sched.lr_decay == ((200, 0.5),)
        assert tc.labeled_batch == 4 and tc.hidden_width == 8


class TestDigest:
    def test_digest_is_stable_for_equal_configs(self):
        a = validate_config(minimal())
        b = validate_config(minimal())
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 64

    def test_digest_reflects_any_change(self):
        base = config_digest(validate_config(minimal()))
        changed = config_digest(validate_config(minimal(seeds=[1])))
        assert changed != base

    def test_explicit_defaults_hash_like_omitted_ones(self):
        explicit = validate_config(minimal(schedule={"total_iters": 5000}))
        implicit = validate_config(minimal())
        assert config_digest(explicit) == config_digest(implicit)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_validates(self, name):
        config = preset_config(name)
        assert config.name == name

    def test_table_preset_shape(self):
        config = preset_config("toy-table1")
        assert config.seeds == (0, 1, 2, 3, 4)
        assert [d.name for d in config.datasets] == ["twomoons", "fourspins"]
        assert [a.name for a in config.algorithms] == [
            "supervised", "pi-model", "mean-teacher", "mt-scl"]
        moons, spins = config.datasets
        assert (moons.labeled_max, moons.unlabeled_max, moons.val_per_class) == (10, 2500, 3000)
        assert (spins.labeled_max, spins.unlabeled_max, spins.val_per_class) == (5, 1250, 1500)
        assert moons.rho_l == spins.rho_l == 5.0
        assert config.algorithms[3].scl.shape == "linear"

    def test_grid_preset_turns_on_dumps(self):
        config = preset_config("toy-figure1-grids")
        assert config.seeds == (0,)
        assert config.report.grids and config.report.dump_datasets

    def test_gap_preset_is_training_free(self):
        config = preset_config("ema-gap")
        assert config.datasets == () and config.gap_curve is not None

    def test_ablation_preset_sweeps_shapes(self):
        config = preset_config("ablation-scl-shapes")
        shapes = [(a.scl.shape, a.scl.beta) for a in config.algorithms[1:]]
        assert shapes == [("exponential", 0.25), ("exponential", 0.5),
                          ("exponential", 0.75), ("linear", 0.5)]

    def test_unknown_preset_name(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset_dict("toy-table2")

    def test_preset_dict_round_trips_through_files(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(preset_dict("toy-table1")))
        assert config_digest(load_config(str(path))) == \
            config_digest(preset_config("toy-table1"))
