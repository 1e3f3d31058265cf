"""How per-step gradients accumulate into student and EMA-target parameters.

For a fixed gradient sequence g_0 .. g_{t-1} and unit base step, both the
directly updated parameters and their exponential-moving-average shadow are
linear in the gradients.  This module gives each gradient's coefficient in
closed form and an independently coded literal unroll to check against.

Reference points.  The unrolled loop performs, per iteration,
    v <- delta * v + g;  theta <- theta - v;  target <- gamma * target + (1 - gamma) * theta
so after t iterations the target has absorbed theta_1 .. theta_t.

* momentum_coefficients(t, k, delta, gamma) describes exactly that
  end-of-iteration-t target (and the student at iteration t).
* sgd_coefficients(t, gamma) uses the start-of-iteration convention: its
  target is the shadow available when step t begins, i.e. the end state of
  iteration t-1, which is why the most recent gradient carries coefficient
  zero and target_coeff(k) = 1 - gamma^(t-k-1).  In the momentum-free limit
  the two conventions sit one step apart:
      momentum_coefficients(t, k, 0, gamma).target == sgd_coefficients(t + 1, gamma).target[k].

coefficient_gap follows the end-of-iteration (momentum) convention for both
terms; it is nonnegative over the whole domain, meaning the EMA target always
underweights recent gradients relative to the student.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import consistency_l2
from .mlp import MlpParams, backward, forward, softmax


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Coefficient of gradient g_k (k = 0..t-1) in the student and target
    displacements from the initial parameters, momentum-free case."""

    t: int
    student: np.ndarray
    target: np.ndarray

    def __post_init__(self) -> None:
        if self.student.shape != (self.t,) or self.target.shape != (self.t,):
            raise ValueError("coefficient arrays must have one entry per step")


def sgd_coefficients(t: int, gamma: float) -> CoefficientTable:
    """Momentum-free coefficients at the start-of-iteration-t reference point.

    student_coeff(k) = 1, target_coeff(k) = 1 - gamma^(t-k-1); the target has
    not yet absorbed the most recent step, so g_{t-1} carries zero.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0,1]")
    k = np.arange(t, dtype=np.float64)
    student = np.ones(t, dtype=np.float64)
    target = 1.0 - gamma ** (t - k - 1.0)
    return CoefficientTable(t=t, student=student, target=target)


def momentum_coefficients(t: int, k: int, delta: float, gamma: float) -> tuple[float, float]:
    """Coefficients of g_k after t full iterations of the momentum loop.

    student: (1 - delta^(t-k)) / (1 - delta)
    target:  (1 - gamma) * sum_{j=0}^{t-k-1} gamma^(t-k-1-j) * (1 - delta^(j+1)) / (1 - delta)
    """
    _check_momentum_args(t, delta, gamma)
    if not 0 <= k < t:
        raise ValueError("k must lie in [0, t)")
    m = t - k
    student = float((1.0 - delta ** m) / (1.0 - delta))
    j = np.arange(m, dtype=np.float64)
    inner = (1.0 - delta ** (j + 1.0)) / (1.0 - delta)
    target = float((1.0 - gamma) * np.sum(gamma ** (m - 1.0 - j) * inner))
    return student, target


def _check_momentum_args(t: int, delta: float, gamma: float) -> None:
    if t < 1:
        raise ValueError("t must be positive")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0,1)")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0,1]")


def coefficient_gap(t: int, k: int, delta: float, gamma: float) -> float:
    """Student coefficient minus target coefficient for gradient g_k.

    Nonnegative everywhere: the shadow never weights a gradient more heavily
    than the directly updated parameters do.
    """
    student, target = momentum_coefficients(t, k, delta, gamma)
    return student - target


def gap_curve(max_lag: int, delta: float, gamma: float) -> np.ndarray:
    """coefficient_gap as a function of the step lag m = t - k, m = 1..max_lag.

    Uses the recurrence S_{m+1} = gamma * S_m + (1 - delta^{m+1}) for the
    target sum, so long curves stay O(max_lag).
    """
    if max_lag < 1:
        raise ValueError("max_lag must be positive")
    _check_momentum_args(max_lag, delta, gamma)
    gaps = np.empty(max_lag, dtype=np.float64)
    s = 0.0
    delta_pow = 1.0
    for m in range(1, max_lag + 1):
        delta_pow *= delta
        student = (1.0 - delta_pow) / (1.0 - delta)
        s = gamma * s + student
        gaps[m - 1] = student - (1.0 - gamma) * s
    return gaps


def write_gap_curve(path: str, max_lag: int, delta: float, gamma: float) -> None:
    """CSV export of the gap curve: one row per lag."""
    from .ioutil import fmt, write_csv

    gaps = gap_curve(max_lag, delta, gamma)
    rows = [(str(m + 1), fmt(g)) for m, g in enumerate(gaps)]
    write_csv(path, ("iteration", "gap"), rows)


def brute_force_unroll(t: int, gamma: float, delta: float,
                       grad_sequence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Literally iterate the training loop on a supplied gradient sequence.

    Unit base step.  Returns (student displacement, target displacement) from
    the shared start, i.e. theta_t - theta_0 and target_t - theta_0 after t
    full iterations.
    """
    _check_momentum_args(t, delta, gamma)
    grads = np.asarray(grad_sequence, dtype=np.float64)
    if grads.ndim == 1:
        grads = grads[:, None]
    if grads.shape[0] < t:
        raise ValueError("grad_sequence must supply at least t gradients")
    theta = np.zeros(grads.shape[1], dtype=np.float64)
    target = np.zeros(grads.shape[1], dtype=np.float64)
    velocity = np.zeros(grads.shape[1], dtype=np.float64)
    for step in range(t):
        velocity = delta * velocity + grads[step]
        theta = theta - velocity
        target = gamma * target + (1.0 - gamma) * theta
    return theta, target


@dataclass(frozen=True, eq=False)
class GapEstimate:
    """Exact consistency-gradient difference between an EMA-target branch and
    a shared-parameter branch, alongside its first-order prediction."""

    exact: np.ndarray
    linear: np.ndarray
    residual: float


def probability_jacobian(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Jacobian of the softmax outputs with respect to the flat parameters.

    Row (i * n_classes + c) holds d p[i, c] / d theta.  Built from one
    backward pass per output entry; fine at this scale.
    """
    logits, trace = forward(params, x)
    probs = softmax(logits)
    batch, n_classes = probs.shape
    rows = np.empty((batch * n_classes, params.n_params), dtype=np.float64)
    for i in range(batch):
        for c in range(n_classes):
            d_probs = np.zeros_like(probs)
            d_probs[i, c] = 1.0
            inner = (d_probs * probs).sum(axis=1, keepdims=True)
            d_logits = probs * (d_probs - inner)
            rows[i * n_classes + c] = backward(trace, d_logits).flat
    return rows


def gradient_gap_estimate(params: MlpParams, target_params: MlpParams,
                          batch: np.ndarray) -> GapEstimate:
    """Compare the two consistency-gradient routes on one shared input batch.

    exact: gradient of the consistency loss against the target-parameter
    branch minus the gradient against the shared-parameter branch (the latter
    is identically zero on a shared input).  linear: J^T J (theta - theta')
    scaled by 1/batch, with J the probability Jacobian at theta.  The
    residual between them shrinks quadratically in ||theta - theta'||.
    """
    logits, trace = forward(params, batch)
    student_probs = softmax(logits)
    target_logits, _ = forward(target_params, batch)
    target_probs = softmax(target_logits)

    _, d_target_branch = consistency_l2(student_probs, target_probs)
    grad_target_branch = backward(trace, d_target_branch).flat
    _, d_shared_branch = consistency_l2(student_probs, student_probs)
    grad_shared_branch = backward(trace, d_shared_branch).flat
    exact = grad_target_branch - grad_shared_branch

    jac = probability_jacobian(params, batch)
    dtheta = params.flat - target_params.flat
    linear = jac.T @ (jac @ dtheta) / batch.shape[0]
    residual = float(np.linalg.norm(exact - linear))
    return GapEstimate(exact=exact, linear=linear, residual=residual)
