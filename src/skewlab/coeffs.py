"""How per-step gradients accumulate into student and EMA-target parameters.

For a fixed gradient sequence g_0 .. g_{t-1} and unit base step, both the
directly updated parameters and their exponential-moving-average shadow are
linear in the gradients.  This module gives each gradient's coefficient in
closed form; the tests check it against a literal unroll of the loop.

Reference points.  The loop performs, per iteration,
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

from .losses import consistency_l2, grad_through_softmax
from .mlp import ForwardTrace, MlpParams, backward, forward, softmax


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
    _check_momentum_args(t, 0.0, gamma)
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


@dataclass(frozen=True, eq=False)
class GapEstimate:
    """Exact consistency-gradient difference between an EMA-target branch and
    a shared-parameter branch, alongside its first-order prediction."""

    exact: np.ndarray
    linear: np.ndarray
    residual: float


def _probability_tangent(trace: ForwardTrace, probs: np.ndarray,
                         direction: np.ndarray) -> np.ndarray:
    """J @ direction, with J the Jacobian of the softmax rows with respect to
    the flat parameters at trace.params: one forward-mode pass that carries
    each layer's tangent alongside the activations the trace stored."""
    params = trace.params
    d = MlpParams(params.layer_sizes, direction)
    layer_inputs = (trace.inputs,) + trace.activations
    d_h = None  # the input does not depend on the parameters
    for i, w in enumerate(params.weights):
        d_z = layer_inputs[i] @ d.weights[i] + d.biases[i]
        if d_h is not None:
            d_z += d_h @ w
        if i < len(trace.activations):
            # tanh'(z) through the stored activation: 1 - tanh(z)^2
            d_h = d_z * (1.0 - trace.activations[i] ** 2)
    return grad_through_softmax(d_z, probs)


def gradient_gap_estimate(params: MlpParams, target_params: MlpParams,
                          batch: np.ndarray) -> GapEstimate:
    """Compare the two consistency-gradient routes on one shared input batch.

    exact: gradient of the consistency loss against the target-parameter
    branch, which is also its difference from the shared-parameter branch:
    that one's gradient is identically zero on a shared input.  linear: J^T J
    (theta - theta') scaled by 1/batch, with J the probability Jacobian at
    theta, formed without J: a forward tangent pass gives J (theta - theta')
    and one backward pass through the softmax applies J^T to it.  The
    residual between them shrinks quadratically in ||theta - theta'||.
    """
    logits, trace = forward(params, batch)
    student_probs = softmax(logits)
    target_logits, _ = forward(target_params, batch)
    target_probs = softmax(target_logits)

    _, d_target_branch = consistency_l2(student_probs, target_probs)
    exact = backward(trace, d_target_branch).flat

    tangent = _probability_tangent(trace, student_probs, params.flat - target_params.flat)
    linear = backward(trace, grad_through_softmax(tangent, student_probs)).flat / batch.shape[0]
    residual = float(np.linalg.norm(exact - linear))
    return GapEstimate(exact=exact, linear=linear, residual=residual)
