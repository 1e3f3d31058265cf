"""Training-loop behavior: determinism, regime equivalences, and the history."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import skewlab.training
from skewlab.datasets import gen_four_spins, gen_two_moons, imbalance_counts, make_cissl_split
from skewlab.losses import SclShape, pseudo_label_loss
from skewlab.mlp import forward, init_params
from skewlab.optim import Schedule
from skewlab.report import row_blocks
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

from mlp_helpers import params_equal


def small_schedule(total=60, rampup=20, **kwargs):
    return Schedule(total_iters=total, rampup_iters=rampup, base_lr=0.1, **kwargs)


def small_config(**kwargs):
    sched_kwargs = {k: kwargs.pop(k) for k in ("total", "rampup", "lr_decay")
                    if k in kwargs}
    fields = dict(labeled_batch=8, unlabeled_batch=8, hidden_width=8, eval_every=20)
    fields.update(kwargs)
    return TrainConfig(schedule=small_schedule(**sched_kwargs), **fields)


@pytest.fixture(scope="module")
def split():
    pool = gen_two_moons(400, 0.1, seed=30)
    return make_cissl_split(pool, imbalance_counts(10, 5.0, 2), "same", 5.0,
                            60, 40, seed=31)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, split):
        algo = AlgorithmSpec(kind="mean-teacher", w_max=4.0)
        config = small_config()
        a = train(split, algo, config, 7)
        b = train(split, algo, config, 7)
        assert params_equal(a.params, b.params)
        assert params_equal(a.ema_params, b.ema_params)
        assert len(a.history) == len(b.history)
        for pa, pb in zip(a.history, b.history):
            assert pa.sup_loss == pb.sup_loss and pa.con_loss == pb.con_loss
            assert np.array_equal(pa.student_errors, pb.student_errors)

    def test_seed_changes_the_trajectory(self, split):
        algo = AlgorithmSpec(kind="supervised")
        a = train(split, algo, small_config(), 0)
        b = train(split, algo, small_config(), 1)
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
        result = train(split, AlgorithmSpec(**algo_fields, w_max=4.0),
                       small_config(**config_fields), 21)
        assert trajectory_digests(result) == self.PINS[name]


class TestRegimeEquivalences:
    """Regimes whose extra loss terms vanish must replay the supervised
    trajectory exactly, because the batch stream is consumed identically and
    the perturbation stream only runs when the term does."""

    def test_zero_weight_consistency_matches_supervised(self, split):
        config = small_config()
        sup = train(split, AlgorithmSpec(kind="supervised"), config, 3)
        pi = train(split, AlgorithmSpec(kind="pi-model", w_max=0.0), config, 3)
        mt = train(split, AlgorithmSpec(kind="mean-teacher", w_max=0.0), config, 3)
        assert params_equal(pi.params, sup.params)
        assert params_equal(mt.params, sup.params)

    def test_unreachable_threshold_matches_supervised(self, split):
        config = small_config()
        sup = train(split, AlgorithmSpec(kind="supervised", w_max=1.0), config, 4)
        pl = train(split, AlgorithmSpec(kind="pseudo-label", w_max=1.0, pl_threshold=1.0),
                   config, 4)
        assert params_equal(pl.params, sup.params)

    def test_balanced_suppression_matches_mean_teacher(self, split):
        config = small_config()
        mt = train(split, AlgorithmSpec(kind="mean-teacher", w_max=4.0), config, 5)
        # linear shape with balanced counts is the constant weight 1
        balanced = make_cissl_split(gen_two_moons(400, 0.1, seed=32),
                                    np.array([8, 8]), "same", 1.0, 60, 40, seed=33)
        mt_b = train(balanced, AlgorithmSpec(kind="mean-teacher", w_max=4.0), config, 5)
        scl_b = train(balanced, AlgorithmSpec(kind="mt-scl", w_max=4.0,
                                              scl=SclShape(shape="linear")), config, 5)
        assert params_equal(scl_b.params, mt_b.params)
        assert not params_equal(mt.params, mt_b.params)

    def test_suppression_changes_imbalanced_runs(self, split):
        config = small_config()
        mt = train(split, AlgorithmSpec(kind="mean-teacher", w_max=4.0), config, 6)
        scl = train(split, AlgorithmSpec(kind="mt-scl", w_max=4.0), config, 6)
        assert not params_equal(scl.params, mt.params)


class TestEmaTracking:
    def test_target_replays_from_recorded_students(self, split, monkeypatch):
        gamma = 0.95
        students = []
        ema_update = skewlab.training.ema_update

        def record(target, student, gamma):
            students.append(student.copy())
            ema_update(target, student, gamma)

        monkeypatch.setattr(skewlab.training, "ema_update", record)
        result = train(split, AlgorithmSpec(kind="mean-teacher", w_max=4.0, ema_gamma=gamma),
                       small_config(), 8)
        # iteration 0: target starts at init, then mixes
        derived = np.random.SeedSequence(8).generate_state(3)
        replay = init_params(8, 2, int(derived[0]))
        flat = replay.flat
        for p in students:
            flat = gamma * flat + (1.0 - gamma) * p
        assert np.abs(flat - result.ema_params.flat).max() < 1e-12

    def test_supervised_has_no_target(self, split):
        result = train(split, AlgorithmSpec(kind="supervised"), small_config(), 9)
        assert result.ema_params is None
        assert result.history[-1].ema_errors is None


class TestSampleBatch:
    def test_minor_class_frequency_tracks_counts(self, split):
        # labeled counts are {10, 2}; a uniform draw over rows puts the minor
        # class at 1/6 of each batch in expectation
        config = small_config(labeled_batch=12)
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
        config = TrainConfig(schedule=small_schedule(), labeled_batch=12,
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
        config = small_config(labeled_batch=5, unlabeled_batch=7,
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
        config = TrainConfig(schedule=small_schedule(), labeled_batch=13,
                             unlabeled_batch=8, hidden_width=8,
                             sample_with_replacement=False)
        with pytest.raises(ValueError, match="labeled_batch"):
            train(split, AlgorithmSpec(kind="supervised"), config, 0)


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


# Evaluates the presets' 6,000-row validation sets at width 64 and prints, per
# set, whether the logits of report's row blocks have the bits of one whole
# forward, whether evaluate's errors are the argmax errors of that forward,
# and the errors' bytes.
EVALUATE_SCRIPT = """
import json
import numpy as np
from skewlab.datasets import gen_four_spins, gen_two_moons
from skewlab.mlp import forward, init_params
from skewlab.report import _block_logits, evaluate

runs = {}
for generate, n_classes, per_class in [(gen_two_moons, 2, 3000), (gen_four_spins, 4, 1500)]:
    data = generate(per_class, 0.1, seed=6)
    params = init_params(64, n_classes, seed=7)
    errors = evaluate(params, data)
    logits = forward(params, data.points)[0]
    blocked = np.concatenate([block for _, _, block in _block_logits(params, data.points)])
    predicted = logits.argmax(axis=1)
    expected = [np.mean(predicted[data.labels == c] != c) for c in range(n_classes)]
    runs[generate.__name__] = [bool(np.array_equal(blocked, logits)),
                               bool(np.array_equal(errors, expected)), errors.tobytes().hex()]
print(json.dumps(runs))
"""

# the presets' validation sets: 3,000 points per class on twomoons, whose
# 64 x 2 class layer is on the small-matrix kernel at 6,000 rows, and 1,500
# per class on fourspins, whose 64 x 4 class layer is not; 4,000 and 4,996
# fourspins rows keep the class layer whole too, and 4,996 leaves the hidden
# layers' last row block 4 rows past its alignment; at 1 hidden layer no
# layer runs before the last hidden one, at 3 two do
EVALUATE_CASES = [(2, gen_two_moons, 3000, 2), (4, gen_four_spins, 1500, 2),
                  (4, gen_four_spins, 1000, 2), (4, gen_four_spins, 1249, 2),
                  (2, gen_two_moons, 3000, 1), (4, gen_four_spins, 1500, 1),
                  (2, gen_two_moons, 3000, 3), (4, gen_four_spins, 1500, 3)]


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

    @pytest.mark.parametrize("n_classes, generate, per_class, hidden_layers", EVALUATE_CASES,
                             ids=[f"{n}-{g.__name__}-{p}" + ("" if h == 2 else f"-{h}-hidden")
                                  for n, g, p, h in EVALUATE_CASES])
    def test_errors_match_the_argmax_of_one_forward(self, n_classes, generate, per_class,
                                                   hidden_layers):
        data = generate(per_class, 0.1, seed=6)
        params = init_params(64, n_classes, seed=7, hidden_layers=hidden_layers)
        predicted = forward(params, data.points)[0].argmax(axis=1)
        expected = [np.mean(predicted[data.labels == c] != c) for c in range(n_classes)]
        assert np.array_equal(evaluate(params, data), expected)
        assert len(row_blocks(params.layer_sizes, len(data))) == (23 if n_classes == 2 else 1)

    # measured peaks at width 64: 0.33 MB on 6,000 twomoons rows, where one
    # full-size 6,000 x 64 hidden array alone is 3.1 MB; 3.38 MB on 6,000
    # fourspins rows, whose 64 x 4 class layer runs over all rows at once and
    # so keeps that 3.1 MB last-hidden array (one whole forward: 6.45 MB)
    @pytest.mark.parametrize("n_classes, generate, per_class, bound",
                             [(2, gen_two_moons, 3000, 1e6), (4, gen_four_spins, 1500, 4e6)])
    def test_memory_stays_at_row_block_size(self, n_classes, generate, per_class, bound):
        params = init_params(64, n_classes, seed=8)
        data = generate(per_class, 0.1, seed=8)
        tracemalloc.start()
        try:
            evaluate(params, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    # OpenBLAS picks its kernels by core and splits a product's rows between
    # its threads; on Haswell kernels at 2 threads, row counts that are not a
    # multiple of 8 change bits even in one whole forward, so the presets'
    # 6,000 rows are the shape this promise covers
    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86 cores")
    def test_bits_hold_on_every_blas_core_and_thread_count(self, tmp_path):
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
        cores = [None] + [core for core, needs in (("Haswell", ("AVX2", "FMA3")),
                                                   ("SandyBridge", ("AVX",)))
                          if all(cpu[n] for n in needs)]
        src = str(Path(skewlab.training.__file__).parents[1])
        outputs = []
        for core in cores:
            for threads in ("1", "2"):
                env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
                env.pop("OPENBLAS_CORETYPE", None)
                if core is not None:
                    env["OPENBLAS_CORETYPE"] = core
                done = subprocess.run([sys.executable, "-c", EVALUATE_SCRIPT], cwd=tmp_path,
                                      env=env, capture_output=True, text=True, check=True)
                runs = json.loads(done.stdout.splitlines()[-1])
                assert all(same_logits and same_errors
                           for same_logits, same_errors, _ in runs.values()), (core, threads, runs)
                outputs.append({name: errors for name, (*_, errors) in runs.items()})
        assert all(out == outputs[0] for out in outputs)


class TestTrainingOutcomes:
    def test_supervised_separates_balanced_moons(self):
        pool = gen_two_moons(1200, 0.1, seed=40)
        split = make_cissl_split(pool, np.array([500, 500]), "uniform", 1.0,
                                 50, 100, seed=41)
        config = TrainConfig(schedule=small_schedule(total=400, rampup=0),
                             labeled_batch=32, unlabeled_batch=1,
                             hidden_width=16, eval_every=400)
        result = train(split, AlgorithmSpec(kind="supervised"), config, 10)
        assert result.history[-1].student_errors.mean() < 0.05

    def test_divergence_raises_with_diagnostics(self, split):
        # CE taken from finite logits stays finite, so blow up the parameters
        # through the decay term instead
        config = TrainConfig(schedule=Schedule(total_iters=300, rampup_iters=0, base_lr=1e160),
                             labeled_batch=8, unlabeled_batch=8,
                             hidden_width=8, weight_decay=1.0)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(TrainingDiverged) as excinfo:
                train(split, AlgorithmSpec(kind="supervised"), config, 11)
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
        sgd_step = skewlab.training.sgd_step

        def counted(*args):
            steps.append(len(steps))
            sgd_step(*args)

        monkeypatch.setattr(skewlab.training, "sgd_step", counted)
        with pytest.raises(TrainingDiverged, match="non-finite loss or gradient") as excinfo:
            train(split, AlgorithmSpec(kind="supervised"), small_config(), 15)
        assert excinfo.value.iteration == 2
        assert np.isfinite(excinfo.value.sup_loss) and excinfo.value.con_loss == 0.0
        assert steps == [0, 1]

    def test_history_spacing_and_final_point(self, split):
        result = train(split, AlgorithmSpec(kind="mean-teacher", w_max=2.0),
                       small_config(total=50, rampup=10), 12)
        iters = [p.iteration for p in result.history]
        assert iters == [20, 40, 50]
        assert all(a < b for a, b in zip(iters, iters[1:]))
        assert result.wall_seconds > 0.0


class TestHistoryCsv:
    def test_round_trip(self, split, tmp_path):
        result = train(split, AlgorithmSpec(kind="mean-teacher", w_max=2.0), small_config(), 13)
        path = tmp_path / "history.csv"
        write_history_csv(result, str(path))
        header, matrix = read_history_csv(str(path))
        assert header == history_header(2, with_ema=True)
        assert matrix.shape == (len(result.history), len(header))
        assert matrix[-1, 0] == result.history[-1].iteration
        assert matrix[-1, 3] == result.history[-1].sup_loss

    def test_reruns_serialize_identically(self, split, tmp_path):
        config = small_config()
        paths = []
        for name in ("a.csv", "b.csv"):
            result = train(split, AlgorithmSpec(kind="pi-model", w_max=2.0), config, 14)
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


def reference_pseudo_label_loss(logits, threshold):
    """The two-pass formulation: a softmax, then a separate log-softmax of the
    same logits, and the gradient built from zeros plus masked copies."""
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    batch = probs.shape[0]
    mask = probs.max(axis=1) >= threshold
    if not mask.any():
        return 0.0, None
    hard = probs.argmax(axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(np.sum(-log_probs[mask, hard[mask]]) / batch)
    d_logits = np.zeros_like(probs)
    d_logits[mask] = probs[mask]
    d_logits[mask, hard[mask]] -= 1.0
    d_logits /= batch
    return loss, d_logits


class TestPseudoLabelLoss:
    """The single-pass loss gives the two-pass formulation's bits exactly."""

    @pytest.mark.parametrize("threshold", [0.5, 0.95, 1.0])
    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("batch", [1, 7, 32, 50])
    def test_matches_reference_bit_for_bit(self, batch, n_classes, threshold):
        rng = np.random.default_rng([batch, n_classes])
        with_gradient = 0
        for trial in range(20):
            # row scales from nearly uniform to saturated (exact probability
            # 1, which a threshold of 1.0 needs), with tied and signed-zero rows
            scale = rng.choice([0.1, 1.0, 8.0, 60.0, 800.0], size=(batch, 1))
            logits = rng.normal(size=(batch, n_classes)) * scale
            logits[rng.random(batch) < 0.2] = 0.0
            logits[rng.random(batch) < 0.2, 1] = -0.0
            if trial % 2:
                logits[:, 1] = logits[:, 0]
            expected_loss, expected_d = reference_pseudo_label_loss(logits.copy(), threshold)
            loss, d_logits = pseudo_label_loss(logits.copy(), threshold)
            assert loss == expected_loss
            assert (d_logits is None) == (expected_d is None)
            if d_logits is not None:
                with_gradient += 1
                assert np.array_equal(d_logits, expected_d)
                assert np.array_equal(np.signbit(d_logits), np.signbit(expected_d))
        assert with_gradient > 0

    @pytest.mark.parametrize("batch", [1, 7, 32, 50])
    def test_no_confident_row_gives_no_gradient(self, batch):
        uniform = np.zeros((batch, 4))
        assert pseudo_label_loss(uniform, 0.5) == (0.0, None)
        assert reference_pseudo_label_loss(uniform, 0.5) == (0.0, None)
