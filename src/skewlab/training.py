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

from .datasets import CisslSplit, perturb
from .ioutil import FLOAT, read_csv, write_text
from .losses import (
    ReweightSpec,
    SclShape,
    class_weights,
    consistency_l2,
    pseudo_label_loss,
    scl_consistency,
    supervised_loss,
)
from .mlp import (
    MlpParams,
    backward,
    forward,
    init_params,
    layer_buffers,
    param_add,
    param_scale,
    softmax,
)
from .optim import Schedule, ema_update, lr_at, rampup_weight, sgd_step
from .report import evaluate
from .schema import Settings, setting

# kind -> (default w_max, unlabeled term, keeps an EMA target); the "l2" and "scl"
# consistency terms compare the student with its EMA target, or else with itself
REGIMES = {
    "supervised": (0.0, None, False),
    "pi-model": (20.0, "l2", False),
    "mean-teacher": (8.0, "l2", True),
    "pseudo-label": (1.0, "pseudo-label", False),
    "mt-scl": (8.0, "scl", True),
}


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

    kind: str = setting(choices=tuple(REGIMES), required=True)
    reweight: ReweightSpec = setting(ReweightSpec())
    w_max: float = setting(0.0, bound=">=0.0")  # consistency weight after the ramp-up
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
    rows_unl = _draw_rows(rng, unlabeled.shape[0], config.unlabeled_batch, replace)
    return (split.labeled.points[rows_lab], split.labeled.labels[rows_lab],
            unlabeled[rows_unl])


def _draw_rows(rng: np.random.Generator, n: int, size: int, replace: bool) -> np.ndarray:
    if replace:
        # the same stream as rng.choice(n, size), without its argument handling
        return rng.integers(0, n, size)
    return rng.choice(n, size=size, replace=False)


def train(split: CisslSplit, algo: AlgorithmSpec, config: TrainConfig, seed: int) -> RunResult:
    """Run one training session and return final parameters plus history.

    Deterministic in (split, algo, config, seed): all randomness flows from
    seed through fixed-order stream derivation.
    """
    started = time.perf_counter()
    sched = config.schedule
    if not config.sample_with_replacement:
        if config.labeled_batch > len(split.labeled):
            raise ValueError("labeled_batch exceeds the labeled set without replacement")
        if config.unlabeled_batch > len(split.unlabeled):
            raise ValueError("unlabeled_batch exceeds the unlabeled set without replacement")

    derived = np.random.SeedSequence(seed).generate_state(3)
    params = init_params(config.hidden_width, split.labeled.n_classes, int(derived[0]),
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
    _, term, keeps_ema = REGIMES[algo.kind]
    ema = params.with_flat(params.flat) if keeps_ema else None
    grad = MlpParams(params.layer_sizes, np.empty(params.n_params))
    extra = MlpParams(params.layer_sizes, np.empty(params.n_params))
    lab_out = layer_buffers(params.layer_sizes, config.labeled_batch)
    student_out = layer_buffers(params.layer_sizes, config.unlabeled_batch)
    target_out = layer_buffers(params.layer_sizes, config.unlabeled_batch)
    counts = split.labeled.class_counts()
    weights = class_weights(algo.reweight, counts)

    history: list[HistoryPoint] = []
    for t in range(sched.total_iters):
        lr = lr_at(t, sched)
        w = rampup_weight(t, sched, algo.w_max)
        x_lab, y_lab, x_unl = sample_batch(split, config, batch_rng)

        logits, trace = forward(params, x_lab, out=lab_out)
        sup_loss, d_sup = supervised_loss(logits, y_lab, algo.reweight, weights)
        backward(trace, d_sup, out=grad)

        con_loss, d_con = 0.0, None
        unlabeled = term is not None and w > 0.0
        if unlabeled and term == "pseudo-label":
            u_logits, u_trace = forward(params, x_unl, out=student_out)
            con_loss, d_con = pseudo_label_loss(u_logits, algo.pl_threshold)
        elif unlabeled:
            x_student = perturb(x_unl, config.perturb_std, noise_rng)
            x_target = perturb(x_unl, config.perturb_std, noise_rng)
            s_logits, u_trace = forward(params, x_student, out=student_out)
            s_probs = softmax(s_logits)
            t_logits, _ = forward(ema if ema is not None else params, x_target,
                                  out=target_out)
            t_probs = softmax(t_logits)
            if term == "scl":
                source = t_probs if algo.scl_pred_source == "target" else s_probs
                con_loss, d_con = scl_consistency(s_probs, t_probs, source.argmax(axis=1),
                                                  counts, algo.scl)
            else:
                con_loss, d_con = consistency_l2(s_probs, t_probs)
        if d_con is not None:
            param_add(grad, param_scale(backward(u_trace, d_con, out=extra), w, out=extra),
                      out=grad)

        if config.weight_decay > 0.0:
            param_add(grad, param_scale(params, config.weight_decay, out=extra), out=grad)
        if not (math.isfinite(sup_loss) and math.isfinite(con_loss)
                and np.isfinite(grad.flat).all()):
            raise TrainingDiverged(t, sup_loss, con_loss, float(np.abs(params.flat).max()))

        sgd_step(params.flat, grad.flat, velocity, lr, config.momentum)
        if ema is not None:
            ema_update(ema.flat, params.flat, algo.ema_gamma)

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
    header = history_header(n_classes, with_ema)
    row = ",".join(["%d"] + [FLOAT] * (len(header) - 1)) + "\n"
    parts = [",".join(header) + "\n"]
    for point in result.history:
        cells = [point.iteration, point.lr, point.w, point.sup_loss, point.con_loss]
        cells += point.student_errors.tolist()
        if with_ema:
            assert point.ema_errors is not None
            cells += point.ema_errors.tolist()
        parts.append(row % tuple(cells))
    write_text(path, "".join(parts))


def read_history_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Parse a history file back into (header, float matrix)."""
    header, rows = read_csv(path)
    return header, np.array([[float(cell) for cell in row] for row in rows], dtype=np.float64)
