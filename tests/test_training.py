"""Training-loop behavior: determinism, regime equivalences, and the history."""

from __future__ import annotations

import numpy as np
import pytest

from skewlab.datasets import gen_two_moons, imbalance_counts, make_cissl_split
from skewlab.losses import SclShape
from skewlab.mlp import init_params, params_equal
from skewlab.optim import Schedule
from skewlab.training import (
    AlgorithmSpec,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    history_header,
    perturb,
    read_history_csv,
    sample_batch,
    train,
    write_history_csv,
)


def small_schedule(w_max, total=60, rampup=20, **kwargs):
    return Schedule(total_iters=total, rampup_iters=rampup, w_max=w_max,
                    base_lr=0.1, **kwargs)


def small_config(w_max, **kwargs):
    sched_kwargs = {k: kwargs.pop(k) for k in ("total", "rampup", "lr_decay_points")
                    if k in kwargs}
    fields = dict(labeled_batch=8, unlabeled_batch=8, hidden_width=8, eval_every=20)
    fields.update(kwargs)
    return TrainConfig(schedule=small_schedule(w_max, **sched_kwargs), **fields)


@pytest.fixture(scope="module")
def split():
    pool = gen_two_moons(400, 0.1, seed=30)
    return make_cissl_split(pool, imbalance_counts(10, 5.0, 2), "same", 5.0,
                            60, 40, seed=31)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, split):
        algo = AlgorithmSpec(kind="mean-teacher")
        config = small_config(w_max=4.0, seed=7)
        a = train(split, algo, config)
        b = train(split, algo, config)
        assert params_equal(a.params, b.params)
        assert params_equal(a.ema_params, b.ema_params)
        assert len(a.history) == len(b.history)
        for pa, pb in zip(a.history, b.history):
            assert pa.sup_loss == pb.sup_loss and pa.con_loss == pb.con_loss
            assert np.array_equal(pa.student_errors, pb.student_errors)

    def test_seed_changes_the_trajectory(self, split):
        algo = AlgorithmSpec(kind="supervised")
        a = train(split, algo, small_config(w_max=0.0, seed=0))
        b = train(split, algo, small_config(w_max=0.0, seed=1))
        assert not params_equal(a.params, b.params)


class TestRegimeEquivalences:
    """Regimes whose extra loss terms vanish must replay the supervised
    trajectory exactly, because the batch stream is consumed identically and
    the perturbation stream only runs when the term does."""

    def test_zero_weight_consistency_matches_supervised(self, split):
        config = small_config(w_max=0.0, seed=3)
        sup = train(split, AlgorithmSpec(kind="supervised"), config)
        pi = train(split, AlgorithmSpec(kind="pi-model"), config)
        mt = train(split, AlgorithmSpec(kind="mean-teacher"), config)
        assert params_equal(pi.params, sup.params)
        assert params_equal(mt.params, sup.params)

    def test_unreachable_threshold_matches_supervised(self, split):
        config = small_config(w_max=1.0, seed=4)
        sup = train(split, AlgorithmSpec(kind="supervised"), config)
        pl = train(split, AlgorithmSpec(kind="pseudo-label", pl_threshold=1.0), config)
        assert params_equal(pl.params, sup.params)

    def test_balanced_suppression_matches_mean_teacher(self, split):
        config = small_config(w_max=4.0, seed=5)
        mt = train(split, AlgorithmSpec(kind="mean-teacher"), config)
        # linear shape with balanced counts is the constant weight 1
        balanced = make_cissl_split(gen_two_moons(400, 0.1, seed=32),
                                    np.array([8, 8]), "same", 1.0, 60, 40, seed=33)
        mt_b = train(balanced, AlgorithmSpec(kind="mean-teacher"), config)
        scl_b = train(balanced, AlgorithmSpec(kind="mt-scl", scl=SclShape(kind="linear")),
                      config)
        assert params_equal(scl_b.params, mt_b.params)
        assert not params_equal(mt.params, mt_b.params)

    def test_suppression_changes_imbalanced_runs(self, split):
        config = small_config(w_max=4.0, seed=6)
        mt = train(split, AlgorithmSpec(kind="mean-teacher"), config)
        scl = train(split, AlgorithmSpec(kind="mt-scl"), config)
        assert not params_equal(scl.params, mt.params)


class TestEmaTracking:
    def test_target_replays_from_recorded_students(self, split):
        gamma = 0.95
        students = []

        def record(t, params, target):
            students.append(params)

        result = train(split, AlgorithmSpec(kind="mean-teacher", ema_gamma=gamma),
                       small_config(w_max=4.0, seed=8), step_callback=record)
        replay = students[0]  # iteration 0: target starts at init, then mixes
        derived = np.random.SeedSequence(8).generate_state(3)
        replay = init_params(8, 2, int(derived[0]))
        flat = replay.flat
        for p in students:
            flat = gamma * flat + (1.0 - gamma) * p.flat
        assert np.abs(flat - result.ema_params.flat).max() < 1e-12

    def test_supervised_has_no_target(self, split):
        result = train(split, AlgorithmSpec(kind="supervised"),
                       small_config(w_max=0.0, seed=9))
        assert result.ema_params is None
        assert result.history[-1].ema_errors is None


class TestSampleBatch:
    def test_minor_class_frequency_tracks_counts(self, split):
        # labeled counts are {10, 2}; a uniform draw over rows puts the minor
        # class at 1/6 of each batch in expectation
        config = small_config(w_max=0.0, labeled_batch=12)
        rng = np.random.default_rng(0)
        total = 0
        draws = 10_000
        for _ in range(draws):
            _, y, _ = sample_batch(split, config, rng)
            total += int((y == 1).sum())
        frequency = total / (draws * 12)
        assert abs(frequency - 2.0 / 12.0) < 0.01

    def test_without_replacement_covers_the_partition(self, split):
        n_unl = split.unlabeled_points().shape[0]
        config = TrainConfig(schedule=small_schedule(0.0), labeled_batch=12,
                             unlabeled_batch=n_unl, hidden_width=8,
                             sample_with_replacement=False)
        rng = np.random.default_rng(1)
        x_lab, y, x_unl = sample_batch(split, config, rng)
        assert x_lab.shape == (12, 2) and y.shape == (12,)
        # drawing the full unlabeled partition without replacement permutes it
        assert x_unl.shape == (n_unl, 2)
        seen = {tuple(p) for p in np.round(x_unl, 12)}
        want = {tuple(p) for p in np.round(split.unlabeled_points(), 12)}
        assert seen == want

    def test_oversized_batch_without_replacement_is_rejected(self, split):
        config = TrainConfig(schedule=small_schedule(0.0), labeled_batch=13,
                             unlabeled_batch=8, hidden_width=8,
                             sample_with_replacement=False)
        with pytest.raises(ValueError, match="labeled_batch"):
            train(split, AlgorithmSpec(kind="supervised"), config)


class TestPerturb:
    def test_zero_noise_returns_input_unchanged(self):
        x = np.random.default_rng(2).normal(size=(5, 2))
        rng = np.random.default_rng(3)
        state_before = rng.bit_generator.state
        assert perturb(x, 0.0, rng) is x
        assert rng.bit_generator.state == state_before

    def test_noise_statistics(self):
        x = np.zeros((50_000, 2))
        noisy = perturb(x, 0.3, np.random.default_rng(4))
        assert abs(noisy.mean()) < 0.01
        assert abs(noisy.std() - 0.3) < 0.01

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.zeros((2, 2)), -0.1, np.random.default_rng(5))


class TestEvaluate:
    def test_error_rates_are_valid_frequencies(self, split):
        params = init_params(8, 2, seed=0)
        errors = evaluate(params, split.validation)
        assert errors.shape == (2,)
        assert np.all((errors >= 0) & (errors <= 1))

    def test_constant_predictor_errors(self):
        from skewlab.datasets import Dataset2D
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        data = Dataset2D(points=points, labels=np.array([0, 0, 1]), n_classes=3)
        params = init_params(4, 3, seed=1)
        zeroed = params.with_flat(np.zeros(params.n_params))
        errors = evaluate(zeroed, data)
        # all-zero params predict class 0 everywhere (argmax tie -> lowest)
        assert errors[0] == 0.0
        assert errors[1] == 1.0
        assert np.isnan(errors[2])


class TestTrainingOutcomes:
    def test_supervised_separates_balanced_moons(self):
        pool = gen_two_moons(1200, 0.1, seed=40)
        split = make_cissl_split(pool, np.array([500, 500]), "uniform", 1.0,
                                 50, 100, seed=41)
        config = TrainConfig(schedule=small_schedule(0.0, total=400, rampup=0),
                             labeled_batch=32, unlabeled_batch=1,
                             hidden_width=16, eval_every=400, seed=10)
        result = train(split, AlgorithmSpec(kind="supervised"), config)
        assert result.history[-1].student_errors.mean() < 0.05

    def test_divergence_raises_with_diagnostics(self, split):
        # the probability floor bounds plain CE, so blow up the parameters
        # through the decay term instead
        config = TrainConfig(schedule=Schedule(total_iters=300, rampup_iters=0,
                                               w_max=0.0, base_lr=1e160),
                             labeled_batch=8, unlabeled_batch=8,
                             hidden_width=8, weight_decay=1.0, seed=11)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(TrainingDiverged) as excinfo:
                train(split, AlgorithmSpec(kind="supervised"), config)
        assert excinfo.value.iteration >= 0
        assert "non-finite loss" in str(excinfo.value)

    def test_history_spacing_and_final_point(self, split):
        result = train(split, AlgorithmSpec(kind="mean-teacher"),
                       small_config(w_max=2.0, total=50, rampup=10, seed=12))
        iters = [p.iteration for p in result.history]
        assert iters == [20, 40, 50]
        assert all(a < b for a, b in zip(iters, iters[1:]))
        assert result.wall_seconds > 0.0


class TestHistoryCsv:
    def test_round_trip(self, split, tmp_path):
        result = train(split, AlgorithmSpec(kind="mean-teacher"),
                       small_config(w_max=2.0, seed=13))
        path = tmp_path / "history.csv"
        write_history_csv(result, str(path))
        header, matrix = read_history_csv(str(path))
        assert header == history_header(2, with_ema=True)
        assert matrix.shape == (len(result.history), len(header))
        assert matrix[-1, 0] == result.history[-1].iteration
        assert matrix[-1, 3] == result.history[-1].sup_loss

    def test_reruns_serialize_identically(self, split, tmp_path):
        config = small_config(w_max=2.0, seed=14)
        paths = []
        for name in ("a.csv", "b.csv"):
            result = train(split, AlgorithmSpec(kind="pi-model"), config)
            path = tmp_path / name
            write_history_csv(result, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_empty_history_rejected(self, split, tmp_path):
        from skewlab.training import RunResult
        result = RunResult(params=init_params(4, 2, seed=0), ema_params=None,
                           history=(), wall_seconds=0.0)
        with pytest.raises(ValueError):
            write_history_csv(result, str(tmp_path / "empty.csv"))
