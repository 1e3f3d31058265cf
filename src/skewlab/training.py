"""Training loops for the five learning regimes on 2-D splits.

Regimes: plain supervised; consistency against a same-parameter branch with
an independent input perturbation ("pi-model"); consistency against an
EMA-parameter branch ("mean-teacher"); confidence-thresholded self-labeling
("pseudo-label"); and mean-teacher with frequency-suppressed consistency
("mt-scl").

RNG discipline: three streams derived from one seed cover init, batch
sampling, and input perturbation.  Batch sampling always draws labeled and
unlabeled indices in the same order regardless of the regime, and the
perturbation stream is consumed only when the consistency term actually
runs, so regimes whose extra terms vanish reproduce the supervised
trajectory bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import CisslSplit, Dataset2D
from .ioutil import fmt, read_csv, write_csv
from .losses import ReweightSpec, SclShape, consistency_l2, scl_consistency, supervised_loss
from .mlp import (
    MlpParams,
    backward,
    forward,
    init_params,
    layer_buffers,
    log_softmax,
    param_add,
    param_scale,
    softmax,
)
from .optim import Schedule, ema_update, lr_at, rampup_weight, sgd_step
from .schema import Settings, setting

CONSISTENCY_KINDS = ("pi-model", "mean-teacher", "mt-scl")
EMA_KINDS = ("mean-teacher", "mt-scl")


class TrainingDiverged(RuntimeError):
    """Raised when a loss or the gradient goes non-finite; carries a diagnostic snapshot."""

    def __init__(self, iteration: int, sup_loss: float, con_loss: float, param_scale_: float):
        self.iteration = iteration
        self.sup_loss = sup_loss
        self.con_loss = con_loss
        self.param_scale = param_scale_
        super().__init__(
            f"non-finite loss or gradient at iteration {iteration}: supervised {sup_loss}, "
            f"consistency {con_loss}, max |param| {param_scale_:g}")


@dataclass(frozen=True)
class AlgorithmSpec(Settings):
    """Which regime to run plus its regime-specific knobs."""

    kind: str = setting(
        choices=("supervised", "pi-model", "mean-teacher", "pseudo-label", "mt-scl"), required=True)
    reweight: ReweightSpec = setting(ReweightSpec())
    ema_gamma: float = setting(0.95, bound="(0,1]")
    pl_threshold: float = setting(0.95, bound="(0,1]")
    scl: SclShape = setting(SclShape())
    scl_pred_source: str = setting("student", choices=("student", "target"))


@dataclass(frozen=True)
class TrainConfig(Settings):
    schedule: Schedule
    labeled_batch: int = setting(32, bound=">=1")
    unlabeled_batch: int = setting(32, bound=">=1")
    perturb_std: float = setting(0.1, bound=">=0.0")
    momentum: float = setting(0.9, bound="[0,1)")
    weight_decay: float = setting(0.0, bound=">=0.0")
    hidden_width: int = setting(64, bound=">=1")
    hidden_layers: int = setting(2, bound=">=1")
    eval_every: int = setting(500, bound=">=1")
    sample_with_replacement: bool = setting(True)
    seed: int = 0


@dataclass(frozen=True, eq=False)
class HistoryPoint:
    """Validation snapshot after `iteration` completed steps."""

    iteration: int
    lr: float
    w: float
    sup_loss: float
    con_loss: float
    student_errors: np.ndarray
    ema_errors: np.ndarray | None


@dataclass(frozen=True, eq=False)
class RunResult:
    params: MlpParams
    ema_params: MlpParams | None
    history: tuple[HistoryPoint, ...]
    wall_seconds: float


def sample_batch(split: CisslSplit, config: TrainConfig,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one labeled batch (with labels) and one unlabeled batch (points only).

    Uniform over each partition, independently; with replacement unless the
    config turns it off.  The labeled draw always precedes the unlabeled one
    so every regime consumes the stream identically.
    """
    replace = config.sample_with_replacement
    rows_lab = _draw_rows(rng, len(split.labeled), config.labeled_batch, replace)
    unlabeled = split.unlabeled_points()
    if unlabeled.shape[0] == 0:
        rows_unl = np.empty(0, dtype=np.int64)
    else:
        rows_unl = _draw_rows(rng, unlabeled.shape[0], config.unlabeled_batch, replace)
    return (split.labeled.points[rows_lab], split.labeled.labels[rows_lab],
            unlabeled[rows_unl])


def _draw_rows(rng: np.random.Generator, n: int, size: int, replace: bool) -> np.ndarray:
    if replace:
        # the same stream as rng.choice(n, size), without its argument handling
        return rng.integers(0, n, size)
    return rng.choice(n, size=size, replace=False)


def perturb(x: np.ndarray, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Additive isotropic Gaussian input noise; identity when noise_std == 0."""
    if not noise_std >= 0.0:  # also rejects NaN
        raise ValueError("noise_std must be nonnegative")
    if noise_std == 0.0:
        return x
    return x + rng.normal(0.0, noise_std, x.shape)


def evaluate(params: MlpParams, dataset: Dataset2D) -> np.ndarray:
    """Per-class error rates under argmax prediction; NaN for absent classes."""
    logits, _ = forward(params, dataset.points)
    predicted = logits.argmax(axis=1)
    errors = np.full(dataset.n_classes, np.nan, dtype=np.float64)
    for cls in range(dataset.n_classes):
        mask = dataset.labels == cls
        if mask.any():
            errors[cls] = float(np.mean(predicted[mask] != cls))
    return errors


def _pseudo_label_loss(logits: np.ndarray, threshold: float) -> tuple[float, np.ndarray | None]:
    """CE of confident samples against their own argmax, averaged over the
    whole batch; samples below the confidence threshold contribute nothing."""
    probs = softmax(logits)
    batch = probs.shape[0]
    confidence = probs.max(axis=1)
    mask = confidence >= threshold
    if not mask.any():
        return 0.0, None
    hard = probs.argmax(axis=1)
    log_confidence = log_softmax(logits)[mask, hard[mask]]
    loss = float(np.sum(-log_confidence) / batch)
    d_logits = np.zeros_like(probs)
    d_logits[mask] = probs[mask]
    d_logits[mask, hard[mask]] -= 1.0
    d_logits /= batch
    return loss, d_logits


def _max_abs_param(params: MlpParams) -> float:
    return float(np.max(np.abs(params.flat)))


def train(split: CisslSplit, algo: AlgorithmSpec, config: TrainConfig, *,
          step_callback=None) -> RunResult:
    """Run one training session and return final parameters plus history.

    Deterministic in (split, algo, config): all randomness flows from
    config.seed through fixed-order stream derivation.
    """
    started = time.perf_counter()
    sched = config.schedule
    n_classes = split.labeled.n_classes
    if not config.sample_with_replacement:
        if config.labeled_batch > len(split.labeled):
            raise ValueError("labeled_batch exceeds the labeled set without replacement")
        if len(split.unlabeled) and config.unlabeled_batch > len(split.unlabeled):
            raise ValueError("unlabeled_batch exceeds the unlabeled set without replacement")

    derived = np.random.SeedSequence(config.seed).generate_state(3)
    params = init_params(config.hidden_width, n_classes, int(derived[0]),
                         hidden_layers=config.hidden_layers)
    batch_rng = np.random.default_rng(int(derived[1]))
    noise_rng = np.random.default_rng(int(derived[2]))
    # the student, its velocity and the EMA target live for the whole run and
    # are updated in place; so does the step workspace: the gradient, one
    # buffer that the consistency, pseudo-label and decay terms take turns in,
    # and the layer outputs of the labeled, student and target batches (the
    # target's apart, since the student's trace must outlive the target's
    # forward pass)
    velocity = np.zeros_like(params.flat)
    ema = params.with_flat(params.flat) if algo.kind in EMA_KINDS else None
    grad = MlpParams(params.layer_sizes, np.empty(params.n_params))
    extra = MlpParams(params.layer_sizes, np.empty(params.n_params))
    lab_out = layer_buffers(params.layer_sizes, config.labeled_batch)
    student_out = layer_buffers(params.layer_sizes, config.unlabeled_batch)
    target_out = layer_buffers(params.layer_sizes, config.unlabeled_batch)
    counts = split.labeled_counts

    history: list[HistoryPoint] = []
    for t in range(sched.total_iters):
        lr = lr_at(t, sched)
        w = rampup_weight(t, sched)
        x_lab, y_lab, x_unl = sample_batch(split, config, batch_rng)

        logits, trace = forward(params, x_lab, out=lab_out)
        sup_loss, d_sup = supervised_loss(logits, y_lab, algo.reweight, counts)
        backward(trace, d_sup, out=grad)

        con_loss = 0.0
        if algo.kind in CONSISTENCY_KINDS and w > 0.0 and x_unl.shape[0] > 0:
            x_student = perturb(x_unl, config.perturb_std, noise_rng)
            x_target = perturb(x_unl, config.perturb_std, noise_rng)
            s_logits, s_trace = forward(params, x_student, out=student_out)
            s_probs = softmax(s_logits)
            t_logits, _ = forward(ema if ema is not None else params, x_target,
                                  out=target_out)
            t_probs = softmax(t_logits)
            if algo.kind == "mt-scl":
                source = t_probs if algo.scl_pred_source == "target" else s_probs
                predictions = source.argmax(axis=1)
                con_loss, d_con = scl_consistency(s_probs, t_probs, predictions,
                                                  counts, algo.scl)
            else:
                con_loss, d_con = consistency_l2(s_probs, t_probs)
            param_add(grad, param_scale(backward(s_trace, d_con, out=extra), w, out=extra),
                      out=grad)
        elif algo.kind == "pseudo-label" and w > 0.0 and x_unl.shape[0] > 0:
            u_logits, u_trace = forward(params, x_unl, out=student_out)
            con_loss, d_con = _pseudo_label_loss(u_logits, algo.pl_threshold)
            if d_con is not None:
                param_add(grad, param_scale(backward(u_trace, d_con, out=extra), w, out=extra),
                          out=grad)

        if config.weight_decay > 0.0:
            param_add(grad, param_scale(params, config.weight_decay, out=extra), out=grad)
        if not (math.isfinite(sup_loss) and math.isfinite(con_loss)
                and np.isfinite(grad.flat).all()):
            raise TrainingDiverged(t, sup_loss, con_loss, _max_abs_param(params))

        sgd_step(params.flat, grad.flat, velocity, lr, config.momentum)
        if ema is not None:
            ema_update(ema.flat, params.flat, algo.ema_gamma)
        if step_callback is not None:
            step_callback(t, params.with_flat(params.flat),
                          ema.with_flat(ema.flat) if ema is not None else None)

        if (t + 1) % config.eval_every == 0 or t + 1 == sched.total_iters:
            student_errors = evaluate(params, split.validation)
            ema_errors = evaluate(ema, split.validation) if ema is not None else None
            history.append(HistoryPoint(t + 1, lr, w, sup_loss, con_loss,
                                        student_errors, ema_errors))

    return RunResult(params=params,
                     ema_params=ema,
                     history=tuple(history),
                     wall_seconds=time.perf_counter() - started)


def history_header(n_classes: int, with_ema: bool) -> list[str]:
    header = ["iteration", "lr", "w", "sup_loss", "con_loss"]
    header += [f"student_err_{c}" for c in range(n_classes)]
    if with_ema:
        header += [f"ema_err_{c}" for c in range(n_classes)]
    return header


def write_history_csv(result: RunResult, path: str) -> None:
    """Serialize the history with full float precision; no timestamps, so the
    file is byte-identical across reruns of the same configuration."""
    if not result.history:
        raise ValueError("history is empty")
    n_classes = result.history[0].student_errors.size
    with_ema = result.history[0].ema_errors is not None
    rows = []
    for point in result.history:
        row = [str(point.iteration), fmt(point.lr), fmt(point.w),
               fmt(point.sup_loss), fmt(point.con_loss)]
        row += [fmt(e) for e in point.student_errors]
        if with_ema:
            assert point.ema_errors is not None
            row += [fmt(e) for e in point.ema_errors]
        rows.append(row)
    write_csv(path, history_header(n_classes, with_ema), rows)


def read_history_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Parse a history file back into (header, float matrix)."""
    header, rows = read_csv(path)
    return header, np.array([[float(cell) for cell in row] for row in rows], dtype=np.float64)
