"""SGD with classical momentum, EMA parameter tracking, and the run schedule.

Update order per training step is fixed: velocity and parameters move first,
then the EMA target absorbs the freshly updated parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mlp import MlpParams
from .schema import Settings, setting


@dataclass(frozen=True, eq=False)
class SgdState:
    """Velocity plus the step-size settings used for the next step."""

    velocity: MlpParams
    lr: float
    momentum: float

    def __post_init__(self) -> None:
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0,1)")


@dataclass(frozen=True, eq=False)
class EmaState:
    target: MlpParams
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0,1]")


@dataclass(frozen=True, kw_only=True)
class Schedule(Settings):
    """Iteration budget, consistency ramp-up, and the stepwise lr decay."""

    total_iters: int = setting(5000, bound=">=1")
    rampup_iters: int = setting(bound=">=0")  # configs default it to 0.4 * total_iters
    w_max: float = setting(0.0, bound=">=0.0", key="")  # configs set it per algorithm
    base_lr: float = setting(0.1, bound=">0.0")
    lr_decay_points: tuple[tuple[int, float], ...] = setting(((4000, 0.2),), key="lr_decay")

    def __post_init__(self) -> None:
        super().__post_init__()
        last = -1
        for point, factor in self.lr_decay_points:
            if point <= last:
                raise ValueError("lr_decay_points must be strictly increasing")
            if factor <= 0.0:
                raise ValueError("lr decay factors must be positive")
            last = point


def init_sgd_state(params: MlpParams, lr: float, momentum: float) -> SgdState:
    velocity = MlpParams(params.layer_sizes, np.zeros_like(params.flat))
    return SgdState(velocity=velocity, lr=lr, momentum=momentum)


def sgd_step(params: MlpParams, grad: MlpParams, state: SgdState) -> tuple[MlpParams, SgdState]:
    """v <- momentum * v + lr * grad; params <- params - v."""
    if not np.all(np.isfinite(grad.flat)):
        raise FloatingPointError("non-finite gradient passed to sgd_step")
    velocity = state.momentum * state.velocity.flat + state.lr * grad.flat
    return (MlpParams(params.layer_sizes, params.flat - velocity),
            SgdState(velocity=MlpParams(params.layer_sizes, velocity), lr=state.lr,
                     momentum=state.momentum))


def init_ema(params: MlpParams, gamma: float) -> EmaState:
    return EmaState(target=params, gamma=gamma)


def ema_update(state: EmaState, params: MlpParams) -> EmaState:
    """target <- gamma * target + (1 - gamma) * params."""
    target = state.gamma * state.target.flat + (1.0 - state.gamma) * params.flat
    return EmaState(target=MlpParams(params.layer_sizes, target), gamma=state.gamma)


def rampup_weight(t: int, sched: Schedule) -> float:
    """Consistency coefficient at step t: w_max scaled by a squared-exponential
    ramp exp(-5 * (1 - t / rampup_iters)^2), saturating at w_max from
    rampup_iters onward.  rampup_iters == 0 disables the ramp entirely."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if sched.rampup_iters == 0 or t >= sched.rampup_iters:
        return sched.w_max
    frac = t / sched.rampup_iters
    return sched.w_max * math.exp(-5.0 * (1.0 - frac) ** 2)


def lr_at(t: int, sched: Schedule) -> float:
    """Learning rate at step t: base_lr times every decay factor whose point <= t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lr = sched.base_lr
    for point, factor in sched.lr_decay_points:
        if t >= point:
            lr *= factor
    return lr
