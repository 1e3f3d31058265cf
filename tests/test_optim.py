"""Optimizer step algebra, EMA tracking, and schedule evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.mlp import MlpParams, init_params, params_equal
from skewlab.optim import (
    EmaState,
    Schedule,
    SgdState,
    ema_update,
    init_ema,
    init_sgd_state,
    lr_at,
    rampup_weight,
    sgd_step,
)

RAMP_AT_ZERO = 0.006737946999085467   # exp(-5)


def constant_params(template: MlpParams, value: float) -> MlpParams:
    return template.with_flat(np.full(template.n_params, value))


@pytest.fixture
def params():
    return init_params(8, 3, seed=0)


@pytest.fixture
def grad(params):
    return constant_params(params, 1.0)


class TestSgdStep:
    def test_momentum_free_step_is_lr_times_grad(self, params, grad):
        state = init_sgd_state(params, lr=0.05, momentum=0.0)
        moved, _ = sgd_step(params, grad, state)
        expected = params.with_flat(params.flat - 0.05 * grad.flat)
        assert params_equal(moved, expected)

    def test_two_constant_gradient_steps_accumulate_velocity(self, params, grad):
        # v1 = a*g, v2 = 0.9*a*g + a*g, total displacement 2.9*a*g
        lr = 0.1
        state = init_sgd_state(params, lr=lr, momentum=0.9)
        p1, state = sgd_step(params, grad, state)
        p2, _ = sgd_step(p1, grad, state)
        assert np.allclose(params.flat - p2.flat, 2.9 * lr, atol=1e-15)

    def test_zero_gradient_keeps_params_and_velocity(self, params):
        state = init_sgd_state(params, lr=0.1, momentum=0.9)
        moved, new_state = sgd_step(params, constant_params(params, 0.0), state)
        assert params_equal(moved, params)
        assert params_equal(new_state.velocity, constant_params(params, 0.0))

    def test_velocity_state_carries_lr_factor(self, params, grad):
        state = init_sgd_state(params, lr=0.25, momentum=0.5)
        _, new_state = sgd_step(params, grad, state)
        assert params_equal(new_state.velocity, constant_params(params, 0.25))

    def test_non_finite_gradient_is_rejected(self, params, grad):
        values = grad.flat.copy()
        values[0] = np.nan
        bad = grad.with_flat(values)
        state = init_sgd_state(params, lr=0.1, momentum=0.0)
        with pytest.raises(FloatingPointError):
            sgd_step(params, bad, state)

    @pytest.mark.parametrize("lr,momentum", [(0.0, 0.0), (-0.1, 0.0),
                                             (0.1, 1.0), (0.1, -0.2)])
    def test_state_validation(self, params, lr, momentum):
        with pytest.raises(ValueError):
            SgdState(velocity=constant_params(params, 0.0), lr=lr, momentum=momentum)


class TestEma:
    def test_gamma_one_never_moves(self, params):
        state = init_ema(constant_params(params, 0.0), gamma=1.0)
        state = ema_update(state, params)
        assert params_equal(state.target, constant_params(params, 0.0))

    def test_init_starts_at_student(self, params):
        assert params_equal(init_ema(params, gamma=0.95).target, params)

    def test_single_update_mixes_scalar(self, params):
        state = EmaState(target=constant_params(params, 0.0), gamma=0.95)
        state = ema_update(state, constant_params(params, 1.0))
        assert np.allclose(state.target.flat, 0.05, atol=1e-16)

    def test_iterated_updates_match_closed_form(self, params):
        gamma, n = 0.9, 37
        state = EmaState(target=constant_params(params, 0.0), gamma=gamma)
        for _ in range(n):
            state = ema_update(state, params)
        assert np.abs(state.target.flat - (1.0 - gamma ** n) * params.flat).max() < 1e-10

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_gamma_validation(self, params, gamma):
        with pytest.raises(ValueError):
            EmaState(target=params, gamma=gamma)


def sched(**kwargs):
    base = dict(total_iters=5000, rampup_iters=2000, w_max=8.0, base_lr=0.1,
                lr_decay_points=((4000, 0.2),))
    base.update(kwargs)
    return Schedule(**base)


class TestRampup:
    def test_start_of_ramp(self):
        assert rampup_weight(0, sched()) == pytest.approx(8.0 * RAMP_AT_ZERO, rel=1e-15)

    def test_saturates_at_rampup_iters(self):
        s = sched()
        assert rampup_weight(2000, s) == 8.0
        assert rampup_weight(4999, s) == 8.0

    def test_zero_rampup_disables_the_ramp(self):
        assert rampup_weight(0, sched(rampup_iters=0)) == 8.0

    def test_monotone_and_bounded(self):
        s = sched()
        values = [rampup_weight(t, s) for t in range(0, 2100, 7)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 8.0 for v in values)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            rampup_weight(-1, sched())


class TestLrAt:
    def test_before_and_after_decay_point(self):
        s = sched()
        assert lr_at(3999, s) == 0.1
        assert lr_at(4000, s) == pytest.approx(0.02, rel=1e-15)

    def test_without_decay_points(self):
        assert lr_at(4500, sched(lr_decay_points=())) == 0.1

    def test_decay_factors_compound(self):
        s = sched(lr_decay_points=((100, 0.5), (200, 0.5)))
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
        dict(w_max=-0.5),
        dict(base_lr=0.0),
        dict(lr_decay_points=((200, 0.5), (100, 0.5))),
        dict(lr_decay_points=((100, 0.5), (100, 0.5))),
        dict(lr_decay_points=((100, 0.0),)),
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sched(**kwargs)

    @given(total=st.integers(1, 10_000), frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_ramp_never_exceeds_w_max(self, total, frac):
        s = Schedule(total_iters=total, rampup_iters=total // 2, w_max=3.0,
                     base_lr=0.1)
        t = int(frac * (total - 1))
        assert 0.0 <= rampup_weight(t, s) <= 3.0
