"""Small dense softmax classifier with handwritten forward and backward passes.

The network is input(2) -> tanh hidden layers -> linear output, float64
throughout.  All parameters live in one flat vector, laid out weight then bias,
layer by layer; only ``MlpParams``' constructor builds views into it.  Passes of
the network share ``layer_step`` and losses ``softmax_parts``, bit for bit.
Training owns its parameter vectors for the whole run and updates them in
place (``skewlab.optim``).  ``forward``, ``backward``, ``param_add`` and
``param_scale`` never modify their inputs; they write their result into
``out`` (a run-lifetime workspace) and return it.  ``forward`` and
``backward`` may omit ``out`` to allocate fresh arrays, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ioutil import FLOAT, write_text


def vector_size(layer_sizes: tuple[int, ...]) -> int:
    """Length of the flat parameter vector of a network with these layer sizes."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Layer sizes (inputs, hidden..., classes) and the flat parameter vector.

    The constructor takes ownership of ``flat`` and builds ``weights`` and
    ``biases``, its per-layer views; ``with_flat`` copies an outside vector.
    Gradients use the same container: backward returns an MlpParams whose
    vector holds per-parameter partial derivatives.
    """

    layer_sizes: tuple[int, ...]
    flat: np.ndarray

    def __post_init__(self) -> None:
        if any(size < 1 for size in self.layer_sizes):
            raise ValueError(f"layer sizes must be at least 1, got {self.layer_sizes}")
        expected = vector_size(self.layer_sizes)
        if self.flat.shape != (expected,):
            raise ValueError(f"value count: expected {expected}, got shape {self.flat.shape}")
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(self.flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(self.flat[pos:pos + fan_out])
            pos += fan_out
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))

    def __reduce__(self):
        # Pickle the vector alone; the constructor rebuilds the views.
        return MlpParams, (self.layer_sizes, self.flat)

    @property
    def n_params(self) -> int:
        return self.flat.size

    def with_flat(self, values: np.ndarray) -> MlpParams:
        """Parameters of this layout holding a copy of ``values``."""
        return MlpParams(self.layer_sizes, np.array(values, dtype=np.float64))


def param_add(a: MlpParams, b: MlpParams, out: MlpParams) -> MlpParams:
    """a + b, written into ``out``."""
    np.add(a.flat, b.flat, out=out.flat)
    return out


def param_scale(params: MlpParams, factor: float, out: MlpParams) -> MlpParams:
    """params * factor, written into ``out``."""
    np.multiply(params.flat, factor, out=out.flat)
    return out


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Everything backward needs: parameters, input, hidden activations, logits."""

    params: MlpParams
    inputs: np.ndarray
    activations: tuple[np.ndarray, ...]
    logits: np.ndarray


def init_params(hidden_width: int, n_classes: int, seed: int, *,
                hidden_layers: int = 2) -> MlpParams:
    """Fan-in-scaled normal weights (std 1/sqrt(fan_in)), zero biases, for 2-D inputs."""
    if hidden_width < 1 or hidden_layers < 1 or n_classes < 2:
        raise ValueError("hidden_width and hidden_layers must be positive, n_classes >= 2")
    sizes = (2,) + (hidden_width,) * hidden_layers + (n_classes,)
    params = MlpParams(sizes, np.zeros(vector_size(sizes)))
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
        h = np.tanh(layer_step(h, w, b, out=z), out=z)
    logits = layer_step(h, params.weights[-1], params.biases[-1], out=out[-1])
    return logits, ForwardTrace(params, x, tuple(out[:-1]), logits)


def layer_step(h: np.ndarray, w: np.ndarray, b: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """h @ w + b, into ``out`` if given: every pass's calls for one layer."""
    z = np.matmul(h, w, out=out)
    z += b
    return z


def softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shifted logits (minus their row max), normalised rows and the (rows, 1)
    sums of exp(shifted): a log-softmax is then shifted - log(row sum)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    row_sum = probs.sum(axis=1, keepdims=True)
    probs /= row_sum
    return shifted, probs, row_sum


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    return softmax_parts(logits)[1]


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
        out = MlpParams(params.layer_sizes, np.empty_like(params.flat))
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


def save_params(params: MlpParams, path: str) -> None:
    """Write parameters as a text snapshot: a shape header then one value per line."""
    sizes = ",".join(str(s) for s in params.layer_sizes)
    rows = (FLOAT + "\n") * params.n_params % tuple(params.flat.tolist())
    write_text(path, f"layers={sizes}\n" + rows)


def load_params(path: str) -> MlpParams:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("layers="):
            raise ValueError(f"{path}: missing layer header")
        try:
            sizes = tuple(int(s) for s in header[len("layers="):].split(","))
            values = np.array([float(line) for line in fh if line.strip()], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if len(sizes) < 3:
        raise ValueError(f"{path}: {header}: the network has no hidden layer")
    try:
        return MlpParams(sizes, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {header}: {exc}") from None
