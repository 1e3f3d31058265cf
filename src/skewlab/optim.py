"""SGD with classical momentum, EMA parameter tracking, and the run schedule.

Both updates work in place on flat parameter vectors that live for the whole
run.  Update order per training step is fixed: velocity and parameters move
first, then the EMA target absorbs the freshly updated parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schema import Settings, setting


@dataclass(frozen=True, kw_only=True)
class Schedule(Settings):
    """Iteration budget, consistency ramp-up, and the stepwise lr decay."""

    total_iters: int = setting(5000, bound=">=1")
    rampup_iters: int = setting(bound=">=0", derive=lambda s: round(0.4 * s.total_iters))
    base_lr: float = setting(0.1, bound=">0.0")
    lr_decay: tuple[tuple[int, float], ...] = setting(
        ((4000, 0.2),), form="a list of [iteration, factor] pairs",
        item=setting(bound=(">=0", ">0.0"), form="[iteration >= 0, positive factor]"))

    def __post_init__(self) -> None:
        super().__post_init__()
        if not decay_points_increase(self.lr_decay):
            raise ValueError("lr_decay points must be strictly increasing")


def decay_points_increase(lr_decay) -> bool:
    """Whether the iterations of the (iteration, factor) decay points strictly increase."""
    return all(a[0] < b[0] for a, b in zip(lr_decay, lr_decay[1:]))


def sgd_step(params: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float) -> None:
    """In place: velocity <- momentum * velocity + lr * grad; params <- params - velocity."""
    velocity *= momentum
    velocity += lr * grad
    params -= velocity


def ema_update(target: np.ndarray, params: np.ndarray, gamma: float) -> None:
    """In place: target <- gamma * target + (1 - gamma) * params."""
    target *= gamma
    target += (1.0 - gamma) * params


def rampup_weight(t: int, sched: Schedule, w_max: float) -> float:
    """Consistency coefficient at step t: w_max scaled by a squared-exponential
    ramp exp(-5 * (1 - t / rampup_iters)^2), saturating at w_max from
    rampup_iters onward.  rampup_iters == 0 disables the ramp entirely."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if sched.rampup_iters == 0 or t >= sched.rampup_iters:
        return w_max
    frac = t / sched.rampup_iters
    return w_max * math.exp(-5.0 * (1.0 - frac) ** 2)


def lr_at(t: int, sched: Schedule) -> float:
    """Learning rate at step t: base_lr times every decay factor whose point <= t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lr = sched.base_lr
    for point, factor in sched.lr_decay:
        if t >= point:
            lr *= factor
    return lr
