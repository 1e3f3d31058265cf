"""A test oracle for ``skewlab.coeffs``: the training loop's parameter
updates, literally unrolled on a supplied gradient sequence."""

from __future__ import annotations

import numpy as np

from skewlab.coeffs import _check_momentum_args


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
