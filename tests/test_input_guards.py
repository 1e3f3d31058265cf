"""Input guards of the library functions: each rejects its bad input with its own message."""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest

from skewlab.coeffs import gap_curve, momentum_coefficients
from skewlab.config import preset_dict, validate_config
from skewlab.datasets import (
    Dataset2D,
    gen_two_moons,
    make_cissl_split,
    moon_arc_points,
    spin_arm_points,
)
from skewlab.losses import (
    ReweightSpec,
    SclShape,
    class_weights,
    consistency_l2,
    scl_consistency,
    scl_weights,
    supervised_loss,
)
from skewlab.mlp import init_params
from skewlab.optim import Schedule
from skewlab.report import group_errors
from skewlab.training import AlgorithmSpec, TrainConfig, train


def moon_split(**changes):
    """make_cissl_split of a small moons pool with its arguments changed."""
    arguments = dict(pool=gen_two_moons(400, 0.1, seed=30), labeled_counts=np.array([10, 2]),
                     unlabeled_type="same", rho_l=5.0, n_unlabeled_max=60, val_per_class=40,
                     seed=31)
    return make_cissl_split(**{**arguments, **changes})


def train_without_replacement(unlabeled_batch):
    config = TrainConfig(schedule=Schedule(total_iters=4, rampup_iters=0), labeled_batch=4,
                         unlabeled_batch=unlabeled_batch, hidden_width=8,
                         sample_with_replacement=False)
    return train(moon_split(), AlgorithmSpec(kind="pi-model"), config, 0)


two_rows = np.full((2, 2), 0.5)
GUARDS = {
    "momentum-delta-outside-unit-interval": (
        lambda: momentum_coefficients(5, 0, 1.0, 0.95), "delta must lie in [0,1)"),
    "gap-curve-max-lag-below-1": (
        lambda: gap_curve(0, 0.9, 0.95), "max_lag must be positive"),
    "dataset2d-misaligned-labels": (
        lambda: Dataset2D(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2),
        "labels must be a vector aligned with points"),
    "dataset2d-one-class": (
        lambda: Dataset2D(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), 1),
        "n_classes must be at least 2"),
    "moon-arc-label-2": (
        lambda: moon_arc_points(2, np.zeros(3)), "two moons has classes 0 and 1, got 2"),
    "spin-arm-label-4": (
        lambda: spin_arm_points(4, np.zeros(3)), "four spins has classes 0..3, got 4"),
    "split-rho-l-below-1": (
        lambda: moon_split(rho_l=0.5), "rho_l must be at least 1"),
    "split-negative-val-per-class": (
        lambda: moon_split(val_per_class=-1), "val_per_class must be nonnegative"),
    "class-weights-one-class": (
        lambda: class_weights(ReweightSpec(), np.array([5])),
        "counts must be a vector with one entry per class (>= 2 classes)"),
    "class-weights-zero-count": (
        lambda: class_weights(ReweightSpec(), np.array([5, 0])), "counts must be positive"),
    "supervised-loss-vector-logits": (
        lambda: supervised_loss(np.zeros(2), np.array([0]), ReweightSpec(), np.ones(2)),
        "logits must be (batch, classes) with one label per row"),
    "supervised-loss-empty-batch": (
        lambda: supervised_loss(np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                                ReweightSpec(), np.ones(2)),
        "batch must be nonempty"),
    "consistency-l2-empty-batch": (
        lambda: consistency_l2(np.zeros((0, 2)), np.zeros((0, 2))), "batch must be nonempty"),
    "scl-weights-zero-count": (
        lambda: scl_weights(np.array([5, 0]), np.array([0]), SclShape()),
        "counts must be positive"),
    "scl-weights-prediction-out-of-range": (
        lambda: scl_weights(np.array([5, 2]), np.array([2]), SclShape()),
        "predictions out of range"),
    "scl-consistency-misaligned-predictions": (
        lambda: scl_consistency(two_rows, two_rows, np.array([0]), np.array([5, 2]), SclShape()),
        "predictions must align with the batch"),
    "init-params-zero-width": (
        lambda: init_params(0, 2, seed=0),
        "hidden_width and hidden_layers must be positive, n_classes >= 2"),
    "group-errors-misaligned": (
        lambda: group_errors(np.zeros(3), np.ones(2)), "errors and counts must be aligned vectors"),
    "required-list-left-empty": (
        lambda: dataclasses.replace(validate_config(json.dumps(preset_dict("ema-gap"))),
                                    seeds=()),
        "seeds must be a nonempty list of integers"),
    "algorithm-spec-unknown-kind": (
        lambda: AlgorithmSpec(kind="bogus"),
        "kind must be one of ['mean-teacher', 'mt-scl', 'pi-model', 'pseudo-label', "
        "'supervised'], got 'bogus'"),
    "train-unlabeled-batch-above-the-set": (
        lambda: train_without_replacement(10_000),
        "unlabeled_batch exceeds the unlabeled set without replacement"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_rejects_its_input(guard):
    call, message = GUARDS[guard]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
