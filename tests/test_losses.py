"""Loss values against hand-derived constants, gradients against finite differences."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.losses import (
    ReweightSpec,
    SclShape,
    class_weights,
    consistency_l2,
    scl_consistency,
    scl_weights,
    supervised_loss,
)
from skewlab.mlp import backward, forward, init_params, softmax

from mlp_helpers import grad_check

LN4 = 1.3862943611198906
FOCAL_HALF = 0.17328679513998632          # (1-0.5)^2 * (-ln 0.5)
CB_EFFECTIVE_1000 = 632.3045752290357     # (1-0.999^1000) / (1-0.999)
EXP_HALF_FREQ = 0.7071067811865476        # 0.5 ** 0.5
EXP_MINOR_10_2 = 0.5743491774985174       # 0.5 ** (1 - 2/10)


def rows(*probs):
    return np.array(probs, dtype=np.float64)


class TestSupervisedLoss:
    def test_one_hot_correct_is_zero(self):
        # exp(-800) underflows, so these softmax rows are exactly one-hot
        logits = rows([800.0, 0.0, 0.0], [0.0, 800.0, 0.0])
        loss, grad = supervised_loss(logits, np.array([0, 1]), ReweightSpec(),
                                     class_weights(ReweightSpec(), np.array([5, 3, 1])))
        assert loss == 0.0
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_uniform_probabilities_give_log_c(self):
        logits = np.zeros((3, 4))
        loss, _ = supervised_loss(logits, np.array([0, 2, 3]), ReweightSpec(), np.ones(4))
        assert loss == pytest.approx(LN4, abs=1e-15)

    def test_focal_single_sample_at_half_confidence(self):
        logits = rows([0.0, 0.0])
        spec = ReweightSpec(method="focal", focal_gamma=2.0)
        loss, _ = supervised_loss(logits, np.array([0]), spec,
                                  class_weights(spec, np.array([1, 1])))
        assert loss == pytest.approx(FOCAL_HALF, abs=1e-15)

    def test_focal_gamma_zero_reduces_to_ce(self):
        logits = np.random.default_rng(0).normal(size=(6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        counts = np.array([7, 2, 1])
        focal = ReweightSpec(method="focal", focal_gamma=0.0)
        ce = supervised_loss(logits, labels, ReweightSpec(),
                             class_weights(ReweightSpec(), counts))
        focal0 = supervised_loss(logits, labels, focal, class_weights(focal, counts))
        assert focal0[0] == pytest.approx(ce[0], rel=1e-12)
        assert np.allclose(focal0[1], ce[1], atol=1e-12)

    def test_in_with_balanced_counts_equals_plain_ce_exactly(self):
        logits = np.random.default_rng(1).normal(size=(4, 3))
        labels = np.array([2, 0, 1, 1])
        counts = np.array([6, 6, 6])
        ce_loss, ce_grad = supervised_loss(logits, labels, ReweightSpec(),
                                           class_weights(ReweightSpec(), counts))
        inverse = ReweightSpec(method="in")
        in_loss, in_grad = supervised_loss(logits, labels, inverse,
                                           class_weights(inverse, counts))
        assert in_loss == ce_loss
        assert np.array_equal(in_grad, ce_grad)

    def test_ce_gradient_is_probs_minus_onehot_over_batch(self):
        logits = np.random.default_rng(2).normal(size=(3, 4))
        probs = softmax(logits)
        labels = np.array([1, 3, 0])
        _, grad = supervised_loss(logits, labels, ReweightSpec(), np.ones(4))
        onehot = np.eye(4)[labels]
        assert np.allclose(grad, (probs - onehot) / 3.0, atol=1e-15)

    def test_large_logit_gap_gives_exact_loss_without_warning(self):
        # the true class's softmax probability underflows to 0; its log does not
        logits = rows([0.0, 1000.0])
        for method in ("ce", "focal"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spec = ReweightSpec(method=method)
                loss, grad = supervised_loss(logits, np.array([0]), spec,
                                             class_weights(spec, np.array([1, 1])))
            assert loss == pytest.approx(1000.0, rel=1e-12)
            assert np.all(np.isfinite(grad))

    def test_rejects_bad_labels(self):
        logits = rows([0.0, 0.0])
        with pytest.raises(ValueError):
            supervised_loss(logits, np.array([2]), ReweightSpec(), np.ones(2))

    def test_rejects_weights_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="one entry per column"):
            supervised_loss(rows([0.0, 0.0]), np.array([1]), ReweightSpec(), np.ones(3))


def reference_supervised_loss(logits, labels, spec, weights):
    """The loss's arithmetic written out in one place: one shift, exp and row
    sum, the log-probability of the true class, then the focal or plain
    terms and the reweighted probs - onehot gradient."""
    batch = logits.shape[0]
    sample_w = weights[labels]
    rows_ = np.arange(batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    row_sum = probs.sum(axis=1, keepdims=True)
    log_p = shifted[rows_, labels] - np.log(row_sum[:, 0])
    probs /= row_sum
    if spec.method == "focal":
        gamma = spec.focal_gamma
        p_true = probs[rows_, labels]
        one_minus = 1.0 - p_true
        loss_terms = np.power(one_minus, gamma) * (-log_p)
        factor = np.zeros(batch, dtype=np.float64)
        interior = one_minus > 0.0
        om = one_minus[interior]
        factor[interior] = (np.power(om, gamma)
                            - gamma * np.power(om, gamma - 1.0) * log_p[interior]
                            * p_true[interior])
        row_scale = sample_w * factor / batch
    else:
        loss_terms = -log_p
        row_scale = sample_w / batch
    d_logits = probs
    d_logits[rows_, labels] -= 1.0
    d_logits *= row_scale[:, None]
    return float((sample_w * loss_terms).sum() / batch), d_logits


class TestSupervisedLossBits:
    """The loss gives the bits of its written-out arithmetic exactly."""

    @pytest.mark.parametrize("method", ["ce", "in", "focal", "cb"])
    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("batch", [7, 32])
    def test_matches_reference_bit_for_bit(self, method, n_classes, batch):
        rng = np.random.default_rng([batch, n_classes])
        spec = ReweightSpec(method=method)
        weights = class_weights(spec, np.array([40, 9, 3, 1][:n_classes]))
        for trial in range(20):
            # row scales from nearly uniform to saturated, with tied rows
            scale = rng.choice([0.1, 1.0, 8.0, 60.0, 800.0], size=(batch, 1))
            logits = rng.normal(size=(batch, n_classes)) * scale
            logits[rng.random(batch) < 0.2] = 0.0
            labels = rng.integers(0, n_classes, batch)
            expected_loss, expected_d = reference_supervised_loss(logits.copy(), labels,
                                                                  spec, weights)
            loss, d_logits = supervised_loss(logits.copy(), labels, spec, weights)
            assert loss == expected_loss
            assert np.array_equal(d_logits, expected_d)
            assert np.array_equal(np.signbit(d_logits), np.signbit(expected_d))


class TestClassWeights:
    def test_inverse_frequency_example(self):
        w = class_weights(ReweightSpec(method="in"), np.array([10, 2]))
        assert np.allclose(w, [1.0 / 3.0, 5.0 / 3.0], atol=1e-15)

    def test_ce_and_focal_are_unit_weights(self):
        counts = np.array([9, 4, 1])
        assert np.array_equal(class_weights(ReweightSpec(), counts), np.ones(3))
        assert np.array_equal(class_weights(ReweightSpec(method="focal"), counts),
                              np.ones(3))

    def test_cb_single_sample_class_has_effective_number_one(self):
        # weight ratio equals the ratio of effective numbers; n=1 gives 1
        w = class_weights(ReweightSpec(method="cb"), np.array([1000, 1]))
        assert w[1] / w[0] == pytest.approx(CB_EFFECTIVE_1000, rel=1e-12)

    def test_cb_balanced_counts_are_unit_weights(self):
        w = class_weights(ReweightSpec(method="cb"), np.array([50, 50, 50]))
        assert np.array_equal(w, np.ones(3))

    @given(counts=st.lists(st.integers(1, 10000), min_size=2, max_size=8),
           method=st.sampled_from(["ce", "in", "focal", "cb"]))
    @settings(max_examples=100, deadline=None)
    def test_weights_sum_to_class_count(self, counts, method):
        counts = np.asarray(counts, dtype=np.int64)
        w = class_weights(ReweightSpec(method=method), counts)
        assert w.sum() == pytest.approx(len(counts), rel=1e-12)
        assert np.all(w > 0)


class TestConsistencyL2:
    def test_identical_branches_are_zero(self):
        probs = softmax(np.random.default_rng(3).normal(size=(4, 3)))
        loss, grad = consistency_l2(probs, probs)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_uniform_vs_one_hot_two_classes(self):
        loss, _ = consistency_l2(rows([0.5, 0.5]), rows([1.0, 0.0]))
        assert loss == pytest.approx(0.25, abs=1e-15)

    def test_batch_duplication_preserves_mean(self):
        rng = np.random.default_rng(4)
        student = softmax(rng.normal(size=(3, 4)))
        target = softmax(rng.normal(size=(3, 4)))
        once, _ = consistency_l2(student, target)
        twice, _ = consistency_l2(np.vstack([student, student]),
                                  np.vstack([target, target]))
        assert twice == pytest.approx(once, rel=1e-15)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            consistency_l2(np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3))


class TestSclWeight:
    def test_exponential_is_one_at_max_frequency(self):
        assert scl_weights(np.array([10, 2]), np.array([0]), SclShape())[0] == 1.0

    def test_exponential_at_half_frequency(self):
        w = scl_weights(np.array([10, 5]), np.array([1]), SclShape(shape="exponential", beta=0.5))
        assert w[0] == pytest.approx(EXP_HALF_FREQ, rel=1e-15)

    def test_linear_minor_class_ratio_is_exact(self):
        assert scl_weights(np.array([10, 2]), np.array([1]), SclShape(shape="linear"))[0] == 0.2

    def test_vectorized_form_agrees(self):
        counts = np.array([10, 3, 2])
        shape = SclShape(shape="exponential", beta=0.5)
        predictions = np.array([0, 2, 1, 0])
        w = scl_weights(counts, predictions, shape)
        # the closed form beta^(1 - n_c / n_max), one sample at a time
        assert np.array_equal(w, [0.5 ** (1.0 - float(counts[c]) / float(counts.max()))
                                  for c in predictions])

    @given(counts=st.lists(st.integers(1, 1000), min_size=2, max_size=6),
           beta=st.floats(0.01, 1.0), kind=st.sampled_from(["exponential", "linear"]))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_monotone_in_frequency(self, counts, beta, kind):
        counts = np.sort(np.asarray(counts, dtype=np.int64))[::-1].copy()
        shape = SclShape(shape=kind, beta=beta)
        weights = scl_weights(counts, np.arange(len(counts)), shape)
        assert all(0.0 < w <= 1.0 for w in weights)
        # counts are nonincreasing across classes, so weights must be too
        assert all(a >= b - 1e-15 for a, b in zip(weights, weights[1:]))

    def test_beta_range_is_enforced(self):
        with pytest.raises(ValueError, match=r"beta must lie in \(0,1\]"):
            SclShape(shape="exponential", beta=1.5)


class TestSclConsistency:
    def test_balanced_counts_reproduce_plain_consistency_bitwise(self):
        rng = np.random.default_rng(5)
        student = softmax(rng.normal(size=(6, 4)))
        target = softmax(rng.normal(size=(6, 4)))
        predictions = student.argmax(axis=1)
        counts = np.array([3, 3, 3, 3])
        for shape in (SclShape(), SclShape(shape="linear")):
            loss, grad = scl_consistency(student, target, predictions, counts, shape)
            plain_loss, plain_grad = consistency_l2(student, target)
            assert loss == plain_loss
            assert np.array_equal(grad, plain_grad)

    def test_all_major_predictions_reproduce_plain_consistency(self):
        rng = np.random.default_rng(6)
        student = softmax(rng.normal(size=(5, 2)))
        target = softmax(rng.normal(size=(5, 2)))
        predictions = np.zeros(5, dtype=np.int64)
        loss, grad = scl_consistency(student, target, predictions,
                                     np.array([10, 2]), SclShape())
        plain_loss, plain_grad = consistency_l2(student, target)
        assert loss == plain_loss
        assert np.array_equal(grad, plain_grad)

    def test_half_batch_minor_recomposes_from_per_sample_terms(self):
        rng = np.random.default_rng(7)
        student = softmax(rng.normal(size=(4, 2)))
        target = softmax(rng.normal(size=(4, 2)))
        predictions = np.array([0, 0, 1, 1])
        counts = np.array([10, 2])
        loss, _ = scl_consistency(student, target, predictions, counts,
                                  SclShape(shape="exponential", beta=0.5))
        per_sample = 0.5 * np.sum((student - target) ** 2, axis=1)
        weights = np.array([1.0, 1.0, EXP_MINOR_10_2, EXP_MINOR_10_2])
        assert loss == pytest.approx(float(np.mean(weights * per_sample)), rel=1e-14)

    def test_weights_carry_no_gradient_contribution(self):
        # suppressing a sample to weight w scales its gradient rows by exactly w
        rng = np.random.default_rng(8)
        student = softmax(rng.normal(size=(2, 2)))
        target = softmax(rng.normal(size=(2, 2)))
        counts = np.array([10, 2])
        _, grad_scl = scl_consistency(student, target, np.array([1, 1]), counts,
                                      SclShape(shape="linear"))
        _, grad_plain = consistency_l2(student, target)
        assert np.allclose(grad_scl, 0.2 * grad_plain, atol=1e-15)


def _fd_supervised(spec, counts, n_classes, seed):
    params = init_params(6, n_classes, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(7, 2))
    labels = rng.integers(0, n_classes, size=7)

    weights = class_weights(spec, counts)

    def loss_fn(p):
        logits, trace = forward(p, x)
        loss, d_logits = supervised_loss(logits, labels, spec, weights)
        return loss, backward(trace, d_logits)

    return grad_check(params, loss_fn)


def _fd_consistency(shape, seed):
    n_classes = 3
    params = init_params(6, n_classes, seed=seed)
    target_params = init_params(6, n_classes, seed=seed + 1)
    rng = np.random.default_rng(seed + 200)
    x = rng.normal(size=(7, 2))
    x_target = x + rng.normal(scale=0.1, size=x.shape)
    counts = np.array([8, 3, 1])
    target_probs = softmax(forward(target_params, x_target)[0])

    def loss_fn(p):
        logits, trace = forward(p, x)
        student = softmax(logits)
        if shape is None:
            loss, d_logits = consistency_l2(student, target_probs)
        else:
            # predictions fixed across the finite-difference sweep: the weight
            # is a constant wrt the parameters being perturbed
            predictions = target_probs.argmax(axis=1)
            loss, d_logits = scl_consistency(student, target_probs, predictions,
                                             counts, shape)
        return loss, backward(trace, d_logits)

    return grad_check(params, loss_fn)


class TestFiniteDifferences:
    @pytest.mark.parametrize("method", ["ce", "in", "focal", "cb"])
    def test_supervised_variants(self, method):
        spec = ReweightSpec(method=method)
        assert _fd_supervised(spec, np.array([9, 3, 1]), 3, seed=11) < 1e-5

    def test_consistency(self):
        assert _fd_consistency(None, seed=12) < 1e-5

    @pytest.mark.parametrize("shape", [SclShape(), SclShape(shape="linear"),
                                       SclShape(shape="exponential", beta=0.25)])
    def test_suppressed_consistency(self, shape):
        assert _fd_consistency(shape, seed=13) < 1e-5
