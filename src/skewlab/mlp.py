"""Small dense softmax classifier with handwritten forward and backward passes.

The network is input(2) -> tanh hidden layers -> linear output, float64
throughout.  All parameters live in one flat vector, laid out weight then bias,
layer by layer; the per-layer weights and biases are views into it.
Training owns its parameter vectors for the whole run and updates them in
place (``skewlab.optim``).  ``forward``, ``backward``, ``param_add`` and
``param_scale`` never modify their inputs.  Each takes an optional ``out=``:
given, it writes its result there (a run-lifetime workspace) and returns it;
omitted, it allocates fresh arrays.  Both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .ioutil import FLOAT, write_text


def _vector_size(layer_sizes: tuple[int, ...]) -> int:
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def layer_views(layer_sizes: tuple[int, ...], values: np.ndarray
                ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight and bias views into ``values``, whose last axis is laid
    out like a flat parameter vector: weight then bias, layer by layer.

    Leading axes carry through, so a stack of vectors of shape (..., n) gives
    weights of shape (..., fan_in, fan_out) and biases of shape (..., fan_out).
    """
    lead = values.shape[:-1]
    weights = []
    biases = []
    pos = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(values[..., pos:pos + fan_in * fan_out].reshape(lead + (fan_in, fan_out)))
        pos += fan_in * fan_out
        biases.append(values[..., pos:pos + fan_out])
        pos += fan_out
    return tuple(weights), tuple(biases)


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Layer sizes (inputs, hidden..., classes) and the flat parameter vector.

    The constructor takes ownership of ``flat``; ``with_flat`` copies an
    outside vector.  Gradients use the same container: backward returns an
    MlpParams whose vector holds per-parameter partial derivatives.
    """

    layer_sizes: tuple[int, ...]
    flat: np.ndarray

    def __post_init__(self) -> None:
        expected = _vector_size(self.layer_sizes)
        if self.flat.shape != (expected,):
            raise ValueError(f"expected {expected} values, got shape {self.flat.shape}")

    def __reduce__(self):
        # Pickle the vector alone; the views are rebuilt on first use.
        return MlpParams, (self.layer_sizes, self.flat)

    @cached_property
    def _views(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        return layer_views(self.layer_sizes, self.flat)

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Per-layer (fan_in, fan_out) weight matrices, views into ``flat``."""
        return self._views[0]

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        """Per-layer bias vectors, views into ``flat``."""
        return self._views[1]

    @property
    def n_params(self) -> int:
        return self.flat.size

    def with_flat(self, values: np.ndarray) -> MlpParams:
        """Parameters of this layout holding a copy of ``values``."""
        return MlpParams(self.layer_sizes, np.array(values, dtype=np.float64))


def _like(params: MlpParams) -> MlpParams:
    return MlpParams(params.layer_sizes, np.empty_like(params.flat))


def param_add(a: MlpParams, b: MlpParams, out: MlpParams | None = None) -> MlpParams:
    """a + b, written into ``out`` if given."""
    out = _like(a) if out is None else out
    np.add(a.flat, b.flat, out=out.flat)
    return out


def param_scale(params: MlpParams, factor: float, out: MlpParams | None = None) -> MlpParams:
    """params * factor, written into ``out`` if given."""
    out = _like(params) if out is None else out
    np.multiply(params.flat, factor, out=out.flat)
    return out


def params_equal(a: MlpParams, b: MlpParams) -> bool:
    return a.layer_sizes == b.layer_sizes and np.array_equal(a.flat, b.flat)


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Everything backward needs: parameters, input, hidden activations, logits."""

    params: MlpParams
    inputs: np.ndarray
    activations: tuple[np.ndarray, ...]
    logits: np.ndarray


def init_params(hidden_width: int, n_classes: int, seed: int, *,
                n_inputs: int = 2, hidden_layers: int = 2) -> MlpParams:
    """Fan-in-scaled normal weights (std 1/sqrt(fan_in)), zero biases."""
    if hidden_width < 1 or hidden_layers < 1 or n_classes < 2:
        raise ValueError("hidden_width and hidden_layers must be positive, n_classes >= 2")
    sizes = (n_inputs,) + (hidden_width,) * hidden_layers + (n_classes,)
    params = MlpParams(sizes, np.zeros(_vector_size(sizes)))
    rng = np.random.default_rng(seed)
    for w in params.weights:
        w[...] = rng.normal(0.0, 1.0 / math.sqrt(w.shape[0]), w.shape)
    return params


def layer_buffers(layer_sizes: tuple[int, ...], rows: int) -> tuple[np.ndarray, ...]:
    """One uninitialised (rows, fan_out) array per layer: forward's ``out``."""
    return tuple(np.empty((rows, fan_out)) for fan_out in layer_sizes[1:])


def forward(params: MlpParams, x: np.ndarray, out: tuple[np.ndarray, ...] | None = None
            ) -> tuple[np.ndarray, ForwardTrace]:
    """Compute logits for a batch of points; returns the trace for backward.

    Each layer's output goes into the matching array of ``out`` (see
    ``layer_buffers``); the last one holds the logits.  The trace reads those
    arrays, so it stays valid only until ``out`` is written again.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise ValueError(f"input must have shape (batch, {params.weights[0].shape[0]})")
    if x.shape[0] == 0:
        raise ValueError("input batch must be nonempty")
    if not np.isfinite(x).all():
        raise ValueError("input must be finite")
    if out is None:
        out = layer_buffers(params.layer_sizes, x.shape[0])
    elif len(out) != len(params.weights):
        raise ValueError("out must hold one array per layer")
    h = x
    for w, b, z in zip(params.weights[:-1], params.biases[:-1], out):
        # tanh in place over the pre-activation: the same values as
        # np.tanh(h @ w + b) without a second batch x width array
        np.matmul(h, w, out=z)
        z += b
        h = np.tanh(z, out=z)
    logits = np.matmul(h, params.weights[-1], out=out[-1])
    logits += params.biases[-1]
    return logits, ForwardTrace(params, x, tuple(out[:-1]), logits)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable log of the softmax, exact where the softmax underflows."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def backward(trace: ForwardTrace, d_logits: np.ndarray,
             out: MlpParams | None = None) -> MlpParams:
    """Backpropagate a loss gradient taken with respect to the logits.

    Returns a parameter-shaped gradient, written into ``out`` if given.
    d_logits must already include any batch averaging constant (the losses
    here fold in the 1/batch term).
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    if d_logits.shape != trace.logits.shape:
        raise ValueError("d_logits must match the logits shape")
    params = trace.params
    if out is None:
        out = _like(params)
    elif out.layer_sizes != params.layer_sizes:
        raise ValueError("out must have the parameters' layer sizes")
    layer_inputs = (trace.inputs,) + trace.activations
    delta = d_logits
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(layer_inputs[i].T, delta, out=out.weights[i])
        delta.sum(axis=0, out=out.biases[i])
        if i > 0:
            # tanh'(z) expressed through the stored activation: 1 - tanh(z)^2.
            delta = (delta @ params.weights[i].T) * (1.0 - trace.activations[i - 1] ** 2)
    return out


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


def save_params(params: MlpParams, path: str) -> None:
    """Write parameters as a text snapshot: a shape header then one value per line."""
    sizes = ",".join(str(s) for s in params.layer_sizes)
    line = FLOAT + "\n"
    write_text(path, "".join([f"layers={sizes}\n"] + [line % v for v in params.flat.tolist()]))


def load_params(path: str) -> MlpParams:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("layers="):
            raise ValueError(f"{path}: missing layer header")
        sizes = tuple(int(s) for s in header[len("layers="):].split(","))
        values = np.array([float(line) for line in fh if line.strip()], dtype=np.float64)
    try:
        return MlpParams(sizes, values)
    except ValueError as exc:
        raise ValueError(f"{path}: value count does not match the layer header ({exc})") from None
