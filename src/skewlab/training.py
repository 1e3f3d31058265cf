"""Training loops for the five learning regimes on 2-D splits.

Regimes: plain supervised; consistency against a same-parameter branch with
an independent input perturbation ("pi-model"); consistency against an
EMA-parameter branch ("mean-teacher"); confidence-thresholded self-labeling
("pseudo-label"); and mean-teacher with frequency-suppressed consistency
("mt-scl").

RNG discipline: three streams derived from one seed cover init, batch
sampling, and input perturbation.  Batch sampling always draws labeled and
unlabeled indices in the same order regardless of the regime, a chunk of
steps per call, on the same stream and with the same values as one call per
step; the perturbation stream is consumed only when the consistency term
actually runs, so regimes whose extra terms vanish reproduce the supervised
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

# about the rows, labeled and unlabeled together, that train draws per
# sample_batch call (at least one step's), whatever the batch sizes
DRAW_ROWS = 2048


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
    """Which regime to run, its knobs and its run name (default: the kind); w_max,
    the consistency weight after the ramp-up, defaults to REGIMES[kind][0]."""

    kind: str = setting(choices=tuple(REGIMES), required=True)
    reweight: ReweightSpec = setting(ReweightSpec())
    w_max: float = setting(bound=">=0.0", derive=lambda spec: REGIMES[spec.kind][0])
    ema_gamma: float = setting(0.95, bound="(0,1]")
    pl_threshold: float = setting(0.95, bound="(0,1]")
    scl: SclShape = setting(SclShape())
    scl_pred_source: str = setting("student", choices=("student", "target"))
    name: str = setting(derive=lambda spec: spec.kind)


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


# the leading columns of a history row: the completed steps, then the
# learning rate, consistency weight and both losses of the last step; the
# student's per-class validation errors follow, then the EMA target's
HISTORY_SCALARS = ("iteration", "lr", "w", "sup_loss", "con_loss")


@dataclass(frozen=True, eq=False)
class RunResult:
    params: MlpParams
    ema_params: MlpParams | None
    history: np.ndarray  # one float64 row per evaluation, in history_header's columns
    wall_seconds: float


def sample_batch(split: CisslSplit, config: TrainConfig, rng: np.random.Generator,
                 steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the labeled batches (with labels) and unlabeled batches (points
    only) of `steps` steps, stacked on a leading axis.

    Uniform over each partition, independently; with replacement unless the
    config turns it off.  Each step's labeled draw precedes its unlabeled one,
    so every regime consumes the stream identically, and k steps drawn at once
    leave the same rows and generator state as k one-step calls.
    """
    labeled, unlabeled = split.labeled, split.unlabeled_points()
    n_lab, n_unl = config.labeled_batch, config.unlabeled_batch
    if config.sample_with_replacement:
        # one call, step by step in row order; the same stream as
        # rng.choice(n, size) per partition, without its argument handling
        high = np.repeat((len(labeled), unlabeled.shape[0]), (n_lab, n_unl))
        rows = rng.integers(0, np.broadcast_to(high, (steps, n_lab + n_unl)))
    else:
        rows = np.array([np.concatenate((rng.choice(len(labeled), n_lab, replace=False),
                                         rng.choice(unlabeled.shape[0], n_unl, replace=False)))
                         for _ in range(steps)])
    rows_lab, rows_unl = rows[:, :n_lab], rows[:, n_lab:]
    return labeled.points[rows_lab], labeled.labels[rows_lab], unlabeled[rows_unl]


@np.errstate(over="ignore", invalid="ignore")
def train(split: CisslSplit, algo: AlgorithmSpec, config: TrainConfig, seed: int) -> RunResult:
    """Run one training session and return final parameters plus history.

    Deterministic in (split, algo, config, seed): all randomness flows from
    seed through fixed-order stream derivation.  numpy's overflow and invalid
    warnings are off, so a non-finite run fails with TrainingDiverged alone.
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

    chunk = max(1, DRAW_ROWS // (config.labeled_batch + config.unlabeled_batch))

    history: list[np.ndarray] = []
    for t in range(sched.total_iters):
        lr = lr_at(t, sched)
        w = rampup_weight(t, sched, algo.w_max)
        if t % chunk == 0:
            xs_lab, ys_lab, xs_unl = sample_batch(split, config, batch_rng,
                                                  min(chunk, sched.total_iters - t))
        x_lab, y_lab, x_unl = xs_lab[t % chunk], ys_lab[t % chunk], xs_unl[t % chunk]

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
            errors = [evaluate(model, split.validation) for model in (params, ema)
                      if model is not None]
            history.append(np.concatenate([(t + 1, lr, w, sup_loss, con_loss), *errors]))

    return RunResult(params=params,
                     ema_params=ema,
                     history=np.array(history, dtype=np.float64),
                     wall_seconds=time.perf_counter() - started)


def history_header(n_classes: int, with_ema: bool) -> list[str]:
    header = list(HISTORY_SCALARS) + [f"student_err_{c}" for c in range(n_classes)]
    if with_ema:
        header += [f"ema_err_{c}" for c in range(n_classes)]
    return header


def write_history_csv(result: RunResult, path: str) -> None:
    """Serialize the history with full float precision; no timestamps, so the
    file is byte-identical across reruns of the same configuration."""
    if not len(result.history):
        raise ValueError("history is empty")
    header = history_header(result.params.layer_sizes[-1], result.ema_params is not None)
    row = ",".join(["%d"] + [FLOAT] * (len(header) - 1)) + "\n"
    write_text(path, ",".join(header) + "\n"
               + "".join(row % tuple(cells) for cells in result.history.tolist()))


def read_history_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Parse a history file back into (header, float matrix): the run's history."""
    header, rows = read_csv(path)
    return header, np.array([[float(cell) for cell in row] for row in rows], dtype=np.float64)
