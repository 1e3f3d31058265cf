"""Closed-form gradient coefficients against a literal unroll of the loop."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.coeffs import (
    brute_force_unroll,
    coefficient_gap,
    gap_curve,
    gradient_gap_estimate,
    momentum_coefficients,
    sgd_coefficients,
    write_gap_curve,
)
from skewlab.mlp import init_params

GAMMAS = (0.5, 0.95, 0.999)
DELTAS = (0.0, 0.5, 0.9)
STEPS = (1, 2, 3, 7, 31, 200)


def random_grads(t, seed, dim=1):
    return np.random.default_rng(seed).normal(size=(t, dim))


class TestSgdCoefficients:
    def test_most_recent_gradient_not_yet_absorbed(self):
        table = sgd_coefficients(9, 0.95)
        assert table.target[-1] == 0.0
        assert np.all(table.student == 1.0)

    def test_oldest_gradient_three_steps_half_gamma(self):
        assert sgd_coefficients(3, 0.5).target[0] == 0.75

    def test_gamma_one_freezes_the_target(self):
        assert np.all(sgd_coefficients(12, 1.0).target == 0.0)

    @pytest.mark.parametrize("t", STEPS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_unrolled_loop(self, t, gamma):
        grads = random_grads(t, seed=t)
        table = sgd_coefficients(t, gamma)
        student, _ = brute_force_unroll(t, gamma, 0.0, grads)
        assert abs(student[0] + table.student @ grads[:, 0]) < 1e-10
        if t > 1:
            # the table's target is the shadow before step t runs
            _, target = brute_force_unroll(t - 1, gamma, 0.0, grads)
            assert abs(target[0] + table.target @ grads[:, 0]) < 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sgd_coefficients(0, 0.9)
        with pytest.raises(ValueError):
            sgd_coefficients(5, 0.0)


class TestMomentumCoefficients:
    def test_lag_one_values(self):
        for delta in DELTAS:
            assert momentum_coefficients(7, 6, delta, 0.95) == (1.0, pytest.approx(0.05))

    @pytest.mark.parametrize("t", STEPS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_matches_unrolled_loop(self, t, gamma, delta):
        grads = random_grads(t, seed=1000 + t)
        student_coeffs = np.array([momentum_coefficients(t, k, delta, gamma)[0]
                                   for k in range(t)])
        target_coeffs = np.array([momentum_coefficients(t, k, delta, gamma)[1]
                                  for k in range(t)])
        student, target = brute_force_unroll(t, gamma, delta, grads)
        assert abs(student[0] + student_coeffs @ grads[:, 0]) < 1e-10
        assert abs(target[0] + target_coeffs @ grads[:, 0]) < 1e-10

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_momentum_free_limit_shifts_one_step(self, gamma):
        t = 11
        table = sgd_coefficients(t + 1, gamma)
        for k in range(t):
            student, target = momentum_coefficients(t, k, 0.0, gamma)
            assert student == table.student[k]
            assert target == pytest.approx(table.target[k], abs=1e-14)

    def test_target_absorption_grows_with_lag(self):
        t = 60
        for delta, gamma in ((0.0, 0.95), (0.9, 0.95), (0.5, 0.5)):
            targets = [momentum_coefficients(t, k, delta, gamma)[1]
                       for k in reversed(range(t))]
            assert all(a <= b + 1e-14 for a, b in zip(targets, targets[1:]))

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            momentum_coefficients(5, 5, 0.9, 0.95)
        with pytest.raises(ValueError):
            momentum_coefficients(5, -1, 0.9, 0.95)


class TestCoefficientGap:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_lag_one_momentum_free_gap_is_gamma(self, gamma):
        assert coefficient_gap(4, 3, 0.0, gamma) == gamma

    def test_vanishes_as_gamma_approaches_zero(self):
        for t, k in ((5, 0), (5, 4), (50, 17)):
            assert abs(coefficient_gap(t, k, 0.7, 1e-10)) < 1e-8

    def test_nonnegative_over_dense_grid(self):
        # 20 (delta, gamma) pairs x 500 lags
        for delta in (0.0, 0.3, 0.6, 0.9, 0.99):
            for gamma in (0.5, 0.9, 0.95, 0.999):
                assert gap_curve(500, delta, gamma).min() >= -1e-12

    @given(delta=st.floats(0.0, 0.99), gamma=st.floats(0.01, 1.0),
           lag=st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_property(self, delta, gamma, lag):
        assert coefficient_gap(lag, 0, delta, gamma) >= -1e-12


class TestGapCurve:
    def test_reference_curve_head(self):
        head = gap_curve(5, 0.9, 0.95)
        assert head == pytest.approx(
            [0.95, 1.7575, 2.439125, 3.00971875, 3.4825278125], rel=1e-12)

    def test_agrees_with_per_lag_gap(self):
        max_lag = 40
        curve = gap_curve(max_lag, 0.9, 0.95)
        for m in (1, 2, 7, 23, 40):
            assert curve[m - 1] == pytest.approx(
                coefficient_gap(max_lag, max_lag - m, 0.9, 0.95), rel=1e-12)

    def test_rises_then_decays_toward_zero(self):
        curve = gap_curve(500, 0.9, 0.95)
        peak = int(curve.argmax())
        assert 0 < peak < 499
        assert curve[-1] < 0.05 * curve[peak]

    def test_csv_export_round_trips(self, tmp_path):
        path = tmp_path / "gap.csv"
        write_gap_curve(str(path), 10, 0.9, 0.95)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "gap"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, 11))
        values = np.array([float(r[1]) for r in rows[1:]])
        assert values == pytest.approx(gap_curve(10, 0.9, 0.95), rel=1e-12)


class TestBruteForceUnroll:
    def test_zero_gradients_go_nowhere(self):
        student, target = brute_force_unroll(6, 0.95, 0.9, np.zeros((6, 3)))
        assert np.all(student == 0.0)
        assert np.all(target == 0.0)

    def test_single_step_displacements(self):
        g = np.array([[2.0, -1.0]])
        student, target = brute_force_unroll(1, 0.95, 0.9, g)
        assert np.allclose(student, -g[0], atol=1e-15)
        assert np.allclose(target, -0.05 * g[0], atol=1e-15)

    def test_requires_enough_gradients(self):
        with pytest.raises(ValueError):
            brute_force_unroll(4, 0.95, 0.0, np.zeros((3, 1)))


class TestGradientGapEstimate:
    @pytest.fixture
    def setup(self):
        params = init_params(8, 3, seed=5)
        batch = np.random.default_rng(6).normal(size=(16, 2))
        return params, batch

    def test_identical_branches_give_exact_zero(self, setup):
        params, batch = setup
        est = gradient_gap_estimate(params, params, batch)
        assert np.all(est.exact == 0.0)
        assert np.allclose(est.linear, 0.0, atol=1e-15)
        assert est.residual < 1e-15

    def test_real_offset_produces_signal(self, setup):
        params, batch = setup
        direction = np.random.default_rng(7).normal(size=params.n_params)
        direction /= np.linalg.norm(direction)
        shifted = params.with_flat(params.flat + 0.01 * direction)
        est = gradient_gap_estimate(params, shifted, batch)
        assert np.linalg.norm(est.exact) > 1e-6
        assert est.residual < 0.05 * np.linalg.norm(est.exact)

    def test_residual_shrinks_at_second_order(self, setup):
        params, batch = setup
        direction = np.random.default_rng(8).normal(size=params.n_params)
        direction /= np.linalg.norm(direction)
        hs = np.array([1e-2, 1e-3, 1e-4])
        residuals = []
        for h in hs:
            shifted = params.with_flat(params.flat + h * direction)
            residuals.append(gradient_gap_estimate(params, shifted, batch).residual)
        slope = np.polyfit(np.log(hs), np.log(residuals), 1)[0]
        assert slope >= 1.8
