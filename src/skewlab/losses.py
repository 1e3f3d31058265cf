"""Every regime's loss: reweighted supervised, pseudo-label and consistency.

Every loss returns (scalar value, gradient with respect to the student's
pre-softmax logits), so trainers chain straight into the network's backward
pass.  Classification losses take the logits; one shift, exp and row sum give
both the probabilities and their logarithms (shifted logit minus log row sum),
so no probability is ever clamped.  Consistency losses take softmax rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import softmax_parts
from .schema import Settings, setting


@dataclass(frozen=True)
class ReweightSpec(Settings):
    """Choice of supervised reweighting: plain CE, inverse frequency (in),
    focal modulation, or effective-number (cb) weighting."""

    method: str = setting("ce", choices=("ce", "in", "focal", "cb"))
    focal_gamma: float = setting(2.0, bound=">=0.0")
    cb_beta: float = setting(0.999, bound="[0,1)")


@dataclass(frozen=True)
class SclShape(Settings):
    """Frequency-to-suppression map for consistency terms.

    exponential: beta ** (1 - n_c / n_max); linear: n_c / n_max.  Both equal 1
    on the most frequent class and shrink toward rarer predicted classes.
    """

    shape: str = setting("exponential", choices=("exponential", "linear"))
    beta: float = setting(0.5, bound="(0,1]")


def class_weights(spec: ReweightSpec, counts: np.ndarray) -> np.ndarray:
    """Per-class loss weights, normalized to sum to the number of classes.

    ce and focal carry uniform weights; in weights classes by inverse
    frequency; cb by inverse effective number (1 - beta^n) / (1 - beta).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("counts must be a vector with one entry per class (>= 2 classes)")
    if (counts < 1).any():
        raise ValueError("counts must be positive")
    n_classes = counts.size
    if spec.method in ("ce", "focal"):
        return np.ones(n_classes, dtype=np.float64)
    if (counts == counts[0]).all():
        # Balanced counts give uniform weights by definition; returning ones
        # directly keeps the balanced case bit-identical to plain CE.
        return np.ones(n_classes, dtype=np.float64)
    if spec.method == "in":
        raw = 1.0 / counts.astype(np.float64)
    else:  # cb
        beta = spec.cb_beta
        effective = (1.0 - np.power(beta, counts.astype(np.float64))) / (1.0 - beta)
        raw = 1.0 / effective
    return raw * (n_classes / raw.sum())


def grad_through_softmax(d_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Chain a gradient in probability space back to the logits.

    This multiplies each row by the softmax Jacobian diag(p) - p p^T, which is
    symmetric, so it also carries a logit tangent forward to the probabilities.
    """
    inner = (d_probs * probs).sum(axis=1, keepdims=True)
    return probs * (d_probs - inner)


def supervised_loss(logits: np.ndarray, labels: np.ndarray, spec: ReweightSpec,
                    weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean reweighted classification loss over a labeled batch.

    Takes the pre-softmax logits and the per-class weights
    (``class_weights(spec, counts)``, computed once per run).  The returned
    gradient is taken with respect to the logits and already includes the
    1/batch factor.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be (batch, classes) with one label per row")
    batch = logits.shape[0]
    if batch == 0:
        raise ValueError("batch must be nonempty")
    if (labels < 0).any() or (labels >= logits.shape[1]).any():
        raise ValueError("labels must index columns of logits")
    if weights.shape != (logits.shape[1],):
        raise ValueError("weights must hold one entry per column of logits")
    sample_w = weights[labels]
    rows = np.arange(batch)
    shifted, probs, row_sum = softmax_parts(logits)
    log_p = shifted[rows, labels] - np.log(row_sum[:, 0])

    if spec.method == "focal":
        gamma = spec.focal_gamma
        p_true = probs[rows, labels]
        one_minus = 1.0 - p_true
        loss_terms = np.power(one_minus, gamma) * (-log_p)
        # -p_true * d loss / d p_true, the factor that turns probs - onehot
        # into the focal gradient.  It has no 1 / p_true, so it stays finite
        # where p_true underflows; at p_true == 1 the gradient is 0, and the
        # masked form avoids 0 * inf there.
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
    # probs - onehot(labels), scaled per row, built on the probability array
    d_logits = probs
    d_logits[rows, labels] -= 1.0
    d_logits *= row_scale[:, None]

    # the bits of .mean(), without its Python-level overhead
    loss = float((sample_w * loss_terms).sum() / batch)
    return loss, d_logits


def pseudo_label_loss(logits: np.ndarray, threshold: float) -> tuple[float, np.ndarray | None]:
    """CE of confident samples against their own argmax over the whole batch;
    the others contribute nothing, and with none confident it is (0.0, None)."""
    shifted, probs, row_sum = softmax_parts(logits)
    batch = probs.shape[0]
    mask = probs.max(axis=1) >= threshold
    if not mask.any():
        return 0.0, None
    rows = np.flatnonzero(mask)
    hard = probs.argmax(axis=1)[rows]
    log_confidence = shifted[rows, hard] - np.log(row_sum[rows, 0])
    loss = float(np.sum(-log_confidence) / batch)
    # probs - onehot(hard) on the confident rows, zero elsewhere, in place
    d_logits = probs
    d_logits[~mask] = 0.0
    d_logits[rows, hard] -= 1.0
    d_logits /= batch
    return loss, d_logits


def _weighted_consistency(student_probs: np.ndarray, target_probs: np.ndarray,
                          sample_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of w_i * 0.5 * ||p_i - q_i||^2 with gradient through the student only."""
    student_probs = np.asarray(student_probs, dtype=np.float64)
    target_probs = np.asarray(target_probs, dtype=np.float64)
    if student_probs.shape != target_probs.shape or student_probs.ndim != 2:
        raise ValueError("student and target probabilities must share a (batch, classes) shape")
    batch = student_probs.shape[0]
    if batch == 0:
        raise ValueError("batch must be nonempty")
    diff = student_probs - target_probs
    per_sample = 0.5 * (diff * diff).sum(axis=1)
    # the bits of .mean(), without its Python-level overhead
    loss = float((sample_weights * per_sample).sum() / batch)
    d_probs = diff * (sample_weights / batch)[:, None]
    return loss, grad_through_softmax(d_probs, student_probs)


def consistency_l2(student_probs: np.ndarray, target_probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared-L2 distance between student and target probability rows.

    The target branch is treated as a constant: the gradient (with respect to
    the student's logits) flows through the student probabilities only.
    """
    batch = np.asarray(student_probs).shape[0]
    return _weighted_consistency(student_probs, target_probs, np.ones(batch, dtype=np.float64))


def scl_weights(counts: np.ndarray, predictions: np.ndarray, scl: SclShape) -> np.ndarray:
    """Suppression factor of each sample given its predicted class.

    Uses the labeled per-class counts: n_c of the predicted class against the
    largest class size n_max.  Constant with respect to the model parameters.
    """
    counts = np.asarray(counts, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if np.any(counts < 1):
        raise ValueError("counts must be positive")
    if predictions.size and (predictions.min() < 0 or predictions.max() >= counts.size):
        raise ValueError("predictions out of range")
    n_c = counts.astype(np.float64)[predictions]
    n_max = float(counts.max())
    if scl.shape == "linear":
        return n_c / n_max
    return np.power(scl.beta, 1.0 - n_c / n_max)


def scl_consistency(student_probs: np.ndarray, target_probs: np.ndarray,
                    predictions: np.ndarray, counts: np.ndarray,
                    scl: SclShape) -> tuple[float, np.ndarray]:
    """Consistency loss with per-sample suppression by predicted-class frequency.

    predictions are the argmax classes the caller computed (no gradient flows
    through them).  With balanced counts every suppression factor is exactly
    1 and the result is bit-identical to consistency_l2.
    """
    weights = scl_weights(counts, predictions, scl)
    if weights.shape != (np.asarray(student_probs).shape[0],):
        raise ValueError("predictions must align with the batch")
    return _weighted_consistency(student_probs, target_probs, weights)
