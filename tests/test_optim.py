"""Optimizer step algebra, EMA tracking, and schedule evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.datasets import gen_two_moons, make_cissl_split
from skewlab.mlp import init_params
from skewlab.optim import Schedule, ema_update, lr_at, rampup_weight, sgd_step
from skewlab.training import AlgorithmSpec, TrainConfig, train

from mlp_helpers import params_equal

RAMP_AT_ZERO = 0.006737946999085467   # exp(-5)


@pytest.fixture
def params():
    return init_params(8, 3, seed=0).flat


@pytest.fixture
def grad(params):
    return np.ones_like(params)


class TestSgdStep:
    def test_momentum_free_step_is_lr_times_grad(self, params, grad):
        moved = params.copy()
        sgd_step(moved, grad, np.zeros_like(params), lr=0.05, momentum=0.0)
        assert np.array_equal(moved, params - 0.05 * grad)

    def test_two_constant_gradient_steps_accumulate_velocity(self, params, grad):
        # v1 = a*g, v2 = 0.9*a*g + a*g, total displacement 2.9*a*g
        lr = 0.1
        moved, velocity = params.copy(), np.zeros_like(params)
        sgd_step(moved, grad, velocity, lr=lr, momentum=0.9)
        sgd_step(moved, grad, velocity, lr=lr, momentum=0.9)
        assert np.allclose(params - moved, 2.9 * lr, atol=1e-15)

    def test_zero_gradient_keeps_params_and_velocity(self, params):
        moved, velocity = params.copy(), np.zeros_like(params)
        sgd_step(moved, np.zeros_like(params), velocity, lr=0.1, momentum=0.9)
        assert np.array_equal(moved, params)
        assert np.array_equal(velocity, np.zeros_like(params))

    def test_velocity_state_carries_lr_factor(self, params, grad):
        velocity = np.zeros_like(params)
        sgd_step(params.copy(), grad, velocity, lr=0.25, momentum=0.5)
        assert np.array_equal(velocity, np.full_like(params, 0.25))


class TestEma:
    def test_gamma_one_never_moves(self, params):
        target = np.zeros_like(params)
        ema_update(target, params, gamma=1.0)
        assert np.array_equal(target, np.zeros_like(params))

    def test_init_starts_at_student(self):
        # train() starts the target as a copy of the initial student; gamma = 1
        # freezes it there while the student trains on
        split = make_cissl_split(gen_two_moons(100, 0.1, seed=0), np.array([6, 2]), "same",
                                 3.0, 20, 10, seed=1)
        config = TrainConfig(schedule=Schedule(total_iters=20, rampup_iters=0),
                             labeled_batch=4, unlabeled_batch=4, hidden_width=8)
        result = train(split, AlgorithmSpec(kind="mean-teacher", w_max=4.0, ema_gamma=1.0),
                       config, 2)
        derived = np.random.SeedSequence(2).generate_state(3)
        assert params_equal(result.ema_params, init_params(8, 2, int(derived[0])))
        assert not params_equal(result.params, result.ema_params)

    def test_single_update_mixes_scalar(self, params):
        target = np.zeros_like(params)
        ema_update(target, np.ones_like(params), gamma=0.95)
        assert np.allclose(target, 0.05, atol=1e-16)

    def test_iterated_updates_match_closed_form(self, params):
        gamma, n = 0.9, 37
        target = np.zeros_like(params)
        for _ in range(n):
            ema_update(target, params, gamma=gamma)
        assert np.abs(target - (1.0 - gamma ** n) * params).max() < 1e-10


def sched(**kwargs):
    base = dict(total_iters=5000, rampup_iters=2000, base_lr=0.1,
                lr_decay=((4000, 0.2),))
    base.update(kwargs)
    return Schedule(**base)


class TestRampup:
    def test_start_of_ramp(self):
        assert rampup_weight(0, sched(), 8.0) == pytest.approx(8.0 * RAMP_AT_ZERO, rel=1e-15)

    def test_saturates_at_rampup_iters(self):
        s = sched()
        assert rampup_weight(2000, s, 8.0) == 8.0
        assert rampup_weight(4999, s, 8.0) == 8.0

    def test_zero_rampup_disables_the_ramp(self):
        assert rampup_weight(0, sched(rampup_iters=0), 8.0) == 8.0

    def test_monotone_and_bounded(self):
        s = sched()
        values = [rampup_weight(t, s, 8.0) for t in range(0, 2100, 7)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 8.0 for v in values)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            rampup_weight(-1, sched(), 8.0)


class TestLrAt:
    def test_before_and_after_decay_point(self):
        s = sched()
        assert lr_at(3999, s) == 0.1
        assert lr_at(4000, s) == pytest.approx(0.02, rel=1e-15)

    def test_without_decay_points(self):
        assert lr_at(4500, sched(lr_decay=())) == 0.1

    def test_decay_factors_compound(self):
        s = sched(lr_decay=((100, 0.5), (200, 0.5)))
        assert lr_at(99, s) == 0.1
        assert lr_at(150, s) == pytest.approx(0.05, rel=1e-15)
        assert lr_at(200, s) == pytest.approx(0.025, rel=1e-15)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-3, sched())


class TestScheduleValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(total_iters=0),
        dict(rampup_iters=-1),
        dict(base_lr=0.0),
        dict(lr_decay=((200, 0.5), (100, 0.5))),
        dict(lr_decay=((100, 0.5), (100, 0.5))),
        dict(lr_decay=((100, 0.0),)),
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sched(**kwargs)

    def test_negative_w_max_rejected_on_the_algorithm(self):
        # the ramp's ceiling is a regime setting, bounded where it is declared
        with pytest.raises(ValueError, match="w_max must be at least 0.0"):
            AlgorithmSpec(kind="mean-teacher", w_max=-0.5)

    @given(total=st.integers(1, 10_000), frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_ramp_never_exceeds_w_max(self, total, frac):
        s = Schedule(total_iters=total, rampup_iters=total // 2, base_lr=0.1)
        t = int(frac * (total - 1))
        assert 0.0 <= rampup_weight(t, s, 3.0) <= 3.0
