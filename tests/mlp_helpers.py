"""Parameter checks that only the tests use: exact equality and a
finite-difference gradient oracle for ``skewlab.mlp`` parameters."""

from __future__ import annotations

from typing import Callable

import numpy as np

from skewlab.mlp import MlpParams


def params_equal(a: MlpParams, b: MlpParams) -> bool:
    return a.layer_sizes == b.layer_sizes and np.array_equal(a.flat, b.flat)


def grad_check(params: MlpParams, loss_fn: Callable[[MlpParams], tuple[float, MlpParams]],
               eps: float = 1e-6, *, max_coords: int = 200, seed: int = 0) -> float:
    """Compare an analytic gradient against central finite differences.

    loss_fn maps parameters to (scalar loss, parameter-shaped gradient).  A
    subset of at most max_coords coordinates is probed; returns the maximum
    relative error |analytic - fd| / max(|analytic|, |fd|, 1e-8).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    _, analytic = loss_fn(params)
    flat = params.flat
    n = flat.size
    if n <= max_coords:
        coords = np.arange(n)
    else:
        coords = np.random.default_rng(seed).choice(n, size=max_coords, replace=False)
    worst = 0.0
    for idx in coords:
        probe = flat.copy()
        probe[idx] = flat[idx] + eps
        up, _ = loss_fn(params.with_flat(probe))
        probe[idx] = flat[idx] - eps
        down, _ = loss_fn(params.with_flat(probe))
        fd = (up - down) / (2.0 * eps)
        denom = max(abs(analytic.flat[idx]), abs(fd), 1e-8)
        worst = max(worst, abs(analytic.flat[idx] - fd) / denom)
    return worst
