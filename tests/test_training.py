"""Training-loop behavior: determinism, regime equivalences, and the history."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

import skewlab.training
from skewlab.datasets import gen_two_moons, imbalance_counts, make_cissl_split
from skewlab.losses import SclShape
from skewlab.mlp import init_params, params_equal
from skewlab.optim import Schedule
from skewlab.training import (
    AlgorithmSpec,
    HistoryPoint,
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


def trajectory_digests(result) -> tuple[str, str | None, str]:
    """sha256 of the final student vector, of the EMA vector (None without a
    target) and of every HistoryPoint field in order, as float64 bytes."""
    def digest(values) -> str:
        h = hashlib.sha256()
        for value in values:
            h.update(np.asarray(value, dtype=np.float64).tobytes())
        return h.hexdigest()

    history = [np.nan if getattr(point, field.name) is None else getattr(point, field.name)
               for point in result.history for field in dataclasses.fields(HistoryPoint)]
    ema = None if result.ema_params is None else digest([result.ema_params.flat])
    return digest([result.params.flat]), ema, digest(history)


class TestPinnedTrajectories:
    """Each regime's final vectors and history, bit for bit.  The digests were
    taken with numpy 2.4 and its bundled OpenBLAS on x86-64; a build that
    rounds matrix products differently moves them, and so does any change to
    the order of the floating-point operations in a training step."""

    RUNS = {
        "supervised": (dict(kind="supervised"), dict()),
        "pi-model": (dict(kind="pi-model"), dict()),
        "mean-teacher": (dict(kind="mean-teacher"), dict()),
        "pseudo-label": (dict(kind="pseudo-label"), dict()),
        "mt-scl": (dict(kind="mt-scl"), dict()),
        "mean-teacher-decay": (dict(kind="mean-teacher"), dict(weight_decay=1e-3)),
        "mt-scl-target": (dict(kind="mt-scl", scl_pred_source="target"), dict()),
        "supervised-no-momentum": (dict(kind="supervised"), dict(momentum=0.0)),
    }
    PINS = {
        "mean-teacher": (
            "dd9772a85a5097e2a5243a56e6e5f7f0291d1fd976e21a382dfcbc74b4e5da9c",
            "8708d2d35bc59371354667898299b206fc447a4cff24a9136a8743a30d19287a",
            "87fc5deb7960b2f78097bc222df13bc4977ce20a8b3d44d742b7c9bcec118097",
        ),
        "mean-teacher-decay": (
            "85146c994f4331fb10143de45307054acb81e61c65119da326f938beceddf6ea",
            "042bf7d58985a587f4597c94e466adbfcc22b2c8dd324aa25035c5c86a3062ce",
            "582d29b9e7ae3214003c7770df09d50550cd1e3d193273b68b3b23e311493bb3",
        ),
        "mt-scl": (
            "d74b7d1e62366a0538fa3a99adf1101012d1d09aa5c9b75e57ddbfff32985d24",
            "441509fe4c7861b0b7db6acc862d495c700e0950eba6afc6eb1250c8c7af2c0e",
            "715098d80780ee8ed35e39c9bd4e28eff7b188260f1bc3a7b6d4155a613c5b65",
        ),
        "mt-scl-target": (
            "efb22597d560ccebfefc75df9a605b5a2b893f2eef86e9db78a36e2b0e5af532",
            "00b92e590346e8a9ece9a0a8c6d33cfbf4279a0d7a0016daa1096d0ae32b3a63",
            "25286ea90f0d4626ddaa56eb46ee0ce0837ee828355c1ef2d42082b4a8462af5",
        ),
        "pi-model": (
            "f04ea87d3bed5e093caa9a18de033cfcb49d5e69b69a8e86699b62f70be545f9",
            None,
            "d1e1802208cae3200c09f4780708d996999c371eb9f6b6f6fd190eafdd7b658f",
        ),
        "pseudo-label": (
            "7436fc942593b4c3728f6b075794edba5b8ca40b7a9d28ab86532847c071d247",
            None,
            "78f1272bed9cd80be37c5b243a32c99ddde51c05ea9206d73b3a3a4668745731",
        ),
        "supervised": (
            "070214ef3fdef59293d704238d7f1c0d04f9740cdd618d4215d7b9d2460ede53",
            None,
            "bf17d6db8861853408105d16ebd4e2350a59a4d470cdff2c236432921abd60a1",
        ),
        "supervised-no-momentum": (
            "ad928da3eb73230697456e21549a2dd14cf473d48ca0e2f6b0e0ce891fdfa541",
            None,
            "f011178a7e5b7ab0efedffd5bfa04c31818de0af2ef877e506841d99a6d5abc7",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_digests(self, split, name):
        algo_fields, config_fields = self.RUNS[name]
        result = train(split, AlgorithmSpec(**algo_fields),
                       small_config(w_max=4.0, seed=21, **config_fields))
        assert trajectory_digests(result) == self.PINS[name]


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

    @pytest.mark.parametrize("replace", [True, False])
    def test_rows_follow_the_choice_stream(self, split, replace):
        # the same rows, and the same generator state after, as rng.choice on
        # an identically seeded generator, draw after draw
        config = small_config(w_max=0.0, labeled_batch=5, unlabeled_batch=7,
                              sample_with_replacement=replace)
        rng = np.random.default_rng(2)
        reference = np.random.default_rng(2)
        unlabeled = split.unlabeled_points()
        for _ in range(20):
            x_lab, y, x_unl = sample_batch(split, config, rng)
            rows_lab = reference.choice(len(split.labeled), size=5, replace=replace)
            rows_unl = reference.choice(unlabeled.shape[0], size=7, replace=replace)
            assert np.array_equal(x_lab, split.labeled.points[rows_lab])
            assert np.array_equal(y, split.labeled.labels[rows_lab])
            assert np.array_equal(x_unl, unlabeled[rows_unl])
        assert rng.random() == reference.random()

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
        for noise_std in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="noise_std must be nonnegative"):
                perturb(np.zeros((2, 2)), noise_std, np.random.default_rng(5))


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
        # CE taken from finite logits stays finite, so blow up the parameters
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

    def test_non_finite_gradient_is_rejected(self, split, monkeypatch):
        backward = skewlab.training.backward
        calls = []

        def poisoned(trace, d_logits, out=None):
            calls.append(None)
            grad = backward(trace, d_logits, out=out)
            if len(calls) == 3:
                grad.flat[0] = np.nan
            return grad

        monkeypatch.setattr(skewlab.training, "backward", poisoned)
        steps = []
        with pytest.raises(TrainingDiverged, match="non-finite loss or gradient") as excinfo:
            train(split, AlgorithmSpec(kind="supervised"), small_config(w_max=0.0, seed=15),
                  step_callback=lambda t, params, target: steps.append(t))
        assert excinfo.value.iteration == 2
        assert np.isfinite(excinfo.value.sup_loss) and excinfo.value.con_loss == 0.0
        assert steps == [0, 1]

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
