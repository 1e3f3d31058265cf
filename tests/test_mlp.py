"""Network forward/backward exactness and the finite-difference oracle."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from skewlab.losses import ReweightSpec, supervised_loss
from skewlab.mlp import (
    MlpParams,
    backward,
    forward,
    grad_check,
    init_params,
    layer_buffers,
    load_params,
    param_add,
    param_scale,
    params_equal,
    save_params,
    softmax,
)


@pytest.fixture
def params():
    return init_params(8, 4, seed=0)


@pytest.fixture
def batch():
    return np.random.default_rng(1).normal(size=(5, 2))


class TestInit:
    def test_deterministic(self):
        assert params_equal(init_params(16, 3, seed=5), init_params(16, 3, seed=5))
        assert not params_equal(init_params(16, 3, seed=5), init_params(16, 3, seed=6))

    def test_biases_zero(self, params):
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_parameter_count(self):
        # 2->64, 64->64, 64->4: (2*64+64) + (64*64+64) + (64*4+4)
        assert init_params(64, 4, seed=0).n_params == 4612

    def test_layer_sizes(self):
        assert init_params(16, 3, seed=0).layer_sizes == (2, 16, 16, 3)
        assert init_params(16, 3, seed=0, hidden_layers=1).layer_sizes == (2, 16, 3)


class TestForward:
    def test_zero_params_give_uniform_softmax(self, params, batch):
        zero = params.with_flat(np.zeros(params.n_params))
        logits, _ = forward(zero, batch)
        assert np.all(logits == 0.0)
        assert np.allclose(softmax(logits), 0.25, atol=0.0)

    def test_rows_are_independent(self, params, batch):
        logits, _ = forward(params, batch)
        doubled, _ = forward(params, np.vstack([batch, batch[2:3]]))
        assert np.array_equal(doubled[-1], logits[2])
        assert np.array_equal(doubled[:5], logits)

    @pytest.mark.parametrize("hidden_layers", [1, 3])
    def test_matches_out_of_place_reference_bit_for_bit(self, hidden_layers):
        # random biases too, so the in-place bias add is exercised
        layout = init_params(16, 3, seed=0, hidden_layers=hidden_layers)
        rng = np.random.default_rng(hidden_layers)
        params = layout.with_flat(rng.normal(size=layout.n_params))
        x = rng.normal(scale=2.0, size=(257, 2))
        logits, trace = forward(params, x)
        h = x
        activations = []
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            h = np.tanh(h @ w + b)
            activations.append(h)
        reference = h @ params.weights[-1] + params.biases[-1]
        assert np.array_equal(logits, reference)
        assert trace.logits is logits
        assert len(trace.activations) == hidden_layers
        for got, want in zip(trace.activations, activations):
            assert np.array_equal(got, want)

        # into given buffers, filled with NaN so every entry must be written
        out = layer_buffers(params.layer_sizes, len(x))
        for buf in out:
            buf.fill(np.nan)
        into, into_trace = forward(params, x, out=out)
        assert into is out[-1] and np.array_equal(into, reference)
        assert len(into_trace.activations) == hidden_layers
        for got, buf, want in zip(into_trace.activations, out, activations):
            assert got is buf and np.array_equal(got, want)

    def test_softmax_rows_sum_to_one(self, params):
        x = np.random.default_rng(2).normal(scale=3.0, size=(50, 2))
        logits, _ = forward(params, x)
        assert np.abs(softmax(logits).sum(axis=1) - 1.0).max() < 1e-12

    def test_softmax_stable_at_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0], [-1000.0, -999.0]]))
        assert np.all(np.isfinite(probs))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_rejects_bad_batches(self, params):
        with pytest.raises(ValueError):
            forward(params, np.empty((0, 2)))
        with pytest.raises(ValueError):
            forward(params, np.zeros((3, 2)), out=layer_buffers(params.layer_sizes, 3)[1:])
        with pytest.raises(ValueError):
            forward(params, np.zeros((3, 2)), out=layer_buffers(params.layer_sizes, 4))
        with pytest.raises(ValueError):
            forward(params, np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            forward(params, np.zeros((3, 4)))


class TestBackward:
    def test_zero_output_gradient_gives_zero_parameter_gradient(self, params, batch):
        _, trace = forward(params, batch)
        grad = backward(trace, np.zeros((5, 4)))
        assert np.all(grad.flat == 0.0)

    def test_sum_of_logits_bias_gradient_equals_batch_size(self, params, batch):
        _, trace = forward(params, batch)
        grad = backward(trace, np.ones((5, 4)))
        assert np.allclose(grad.biases[-1], 5.0, atol=1e-12)

    def test_rejects_shape_mismatch(self, params, batch):
        _, trace = forward(params, batch)
        with pytest.raises(ValueError):
            backward(trace, np.ones((5, 3)))
        with pytest.raises(ValueError):
            backward(trace, np.ones((5, 4)), out=init_params(8, 4, seed=0, hidden_layers=1))

    @pytest.mark.parametrize("hidden_layers", [1, 3])
    def test_matches_out_of_place_reference_bit_for_bit(self, hidden_layers):
        layout = init_params(16, 3, seed=0, hidden_layers=hidden_layers)
        rng = np.random.default_rng(10 + hidden_layers)
        params = layout.with_flat(rng.normal(size=layout.n_params))
        x = rng.normal(scale=2.0, size=(257, 2))
        d_logits = rng.normal(size=(257, 3))
        _, trace = forward(params, x)
        inputs = (x,) + trace.activations
        parts = []
        delta = d_logits
        for i in range(len(params.weights) - 1, -1, -1):
            parts[:0] = [(inputs[i].T @ delta).ravel(), delta.sum(axis=0)]
            if i > 0:
                delta = (delta @ params.weights[i].T) * (1.0 - trace.activations[i - 1] ** 2)
        reference = np.concatenate(parts)

        assert np.array_equal(backward(trace, d_logits).flat, reference)
        out = layout.with_flat(np.full(layout.n_params, np.nan))
        assert backward(trace, d_logits, out=out) is out
        assert np.array_equal(out.flat, reference)

    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    def test_finite_differences_across_depths(self, batch, hidden_layers):
        params = init_params(6, 3, seed=4, hidden_layers=hidden_layers)
        labels = np.array([0, 2, 1, 0, 1])

        def loss_fn(p):
            logits, trace = forward(p, batch)
            loss, d_logits = supervised_loss(logits, labels,
                                             ReweightSpec(), np.array([3, 1, 1]))
            return loss, backward(trace, d_logits)

        assert grad_check(params, loss_fn) < 1e-5


class TestParamArithmetic:
    @pytest.mark.parametrize("hidden_layers", [1, 3])
    def test_out_matches_the_allocating_calls_bit_for_bit(self, hidden_layers):
        layout = init_params(16, 3, seed=0, hidden_layers=hidden_layers)
        rng = np.random.default_rng(20 + hidden_layers)
        a = layout.with_flat(rng.normal(size=layout.n_params))
        b = layout.with_flat(rng.normal(size=layout.n_params))
        total = param_add(a, b)
        scaled = param_scale(a, 0.37)
        assert np.array_equal(total.flat, a.flat + b.flat)
        assert np.array_equal(scaled.flat, a.flat * 0.37)
        assert not np.shares_memory(total.flat, a.flat)

        out = layout.with_flat(np.full(layout.n_params, np.nan))
        assert param_add(a, b, out=out) is out
        assert np.array_equal(out.flat, total.flat)
        assert param_scale(a, 0.37, out=out) is out
        assert np.array_equal(out.flat, scaled.flat)
        # the accumulation a training step runs: out may be an operand
        acc = a.with_flat(a.flat)
        assert param_add(acc, param_scale(b, 0.37, out=out), out=acc) is acc
        assert np.array_equal(acc.flat, a.flat + b.flat * 0.37)


class TestGradCheck:
    def test_quadratic_loss_is_numerically_clean(self, params):
        def loss_fn(p):
            return 0.5 * float(np.sum(p.flat ** 2)), p.with_flat(p.flat)

        # central differences are truncation-free on a quadratic, so a large
        # step avoids cancellation in the summed loss entirely
        assert grad_check(params, loss_fn, eps=1e-2) < 1e-9

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_step_size_robustness(self, params, batch, eps):
        labels = np.array([0, 3, 1, 2, 1])

        def loss_fn(p):
            logits, trace = forward(p, batch)
            loss, d_logits = supervised_loss(logits, labels,
                                             ReweightSpec(), np.ones(4, dtype=np.int64))
            return loss, backward(trace, d_logits)

        assert grad_check(params, loss_fn, eps=eps) < 1e-5

    def test_detects_a_wrong_gradient(self, params):
        def bad_loss_fn(p):
            return 0.5 * float(np.sum(p.flat ** 2)), param_scale(p, 2.0)

        assert grad_check(params, bad_loss_fn) > 0.1


class TestFlatView:
    def test_round_trip(self, params):
        assert params_equal(params.with_flat(params.flat), params)

    def test_layers_are_views_in_weight_then_bias_order(self, params):
        assert params.flat.shape == (params.n_params,)
        assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)
        # 2->8 weights, then the 8 biases of the first layer
        assert np.array_equal(params.weights[0].ravel(), params.flat[:16])
        assert np.array_equal(params.biases[0], params.flat[16:24])
        assert params.weights[1].shape == (8, 8)

    def test_with_flat_copies_the_outside_vector(self, params):
        values = params.flat + 1.0
        moved = params.with_flat(values)
        values[0] = 99.0
        assert moved.flat[0] == params.flat[0] + 1.0
        assert moved.layer_sizes == params.layer_sizes

    def test_rejects_wrong_length(self, params):
        with pytest.raises(ValueError):
            MlpParams(params.layer_sizes, np.zeros(params.n_params + 1))
        with pytest.raises(ValueError):
            params.with_flat(np.zeros(params.n_params - 1))

    def test_pickle_keeps_views_and_stores_one_vector(self, params, batch):
        forward(params, batch)  # builds the per-layer views
        blob = pickle.dumps(params)
        restored = pickle.loads(blob)
        assert params_equal(restored, params)
        assert np.shares_memory(restored.weights[0], restored.flat)
        assert len(blob) < len(pickle.dumps(params.flat)) + 200


class TestSnapshot:
    def test_round_trip_is_bit_exact(self, tmp_path, params):
        path = tmp_path / "params.txt"
        save_params(params, path)
        restored = load_params(path)
        assert restored.layer_sizes == params.layer_sizes
        assert params_equal(restored, params)

    def test_rejects_truncated_snapshot(self, tmp_path, params):
        path = tmp_path / "params.txt"
        save_params(params, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(ValueError, match="value count"):
            load_params(path)

    def test_rejects_missing_header(self, tmp_path, params):
        path = tmp_path / "params.txt"
        save_params(params, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[1:]), encoding="utf-8")
        with pytest.raises(ValueError, match="missing layer header"):
            load_params(path)

    def test_snapshot_is_stable_text(self, tmp_path, params):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        save_params(params, first)
        save_params(params, second)
        assert first.read_bytes() == second.read_bytes()
