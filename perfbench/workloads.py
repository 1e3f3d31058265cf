"""The benchmark's workloads: each turns a workload seed into one campaign config.

The configs are written out here rather than taken from skewlab's presets, so
a change to a preset does not silently change what the benchmark measures.
The values mirror the ``toy-table1`` and ``toy-figure1-grids`` presets except
where a docstring below says otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The toy-table1 datasets and training block.
DATASETS = (
    {"name": "twomoons", "kind": "twomoons", "data_noise": 0.15,
     "labeled_max": 10, "rho_l": 5.0, "unlabeled_type": "same",
     "unlabeled_max": 2500, "val_per_class": 3000},
    {"name": "fourspins", "kind": "fourspins", "data_noise": 0.05,
     "labeled_max": 5, "rho_l": 5.0, "unlabeled_type": "same",
     "unlabeled_max": 1250, "val_per_class": 1500},
)
TRAINING = {"labeled_batch": 32, "unlabeled_batch": 32, "perturb_std": 0.1,
            "momentum": 0.9, "eval_every": 500, "hidden_width": 64}

# All five regimes; the presets omit pseudo-label, which runs at its default w_max.
ALGORITHMS = (
    {"name": "supervised", "kind": "supervised"},
    {"name": "pi-model", "kind": "pi-model", "w_max": 20.0},
    {"name": "mean-teacher", "kind": "mean-teacher", "w_max": 8.0},
    {"name": "pseudo-label", "kind": "pseudo-label", "w_max": 1.0},
    {"name": "mt-scl", "kind": "mt-scl", "w_max": 8.0, "scl": {"shape": "linear"}},
)
EMA_KINDS = ("mean-teacher", "mt-scl")

# Unlabeled points per coeffs.gradient_gap_estimate call on figure1-preview.
GAP_BATCH = 256


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def scaled_schedule(total_iters: int) -> dict:
    """The toy schedule's shape (ramp-up over 40%, lr x0.2 at 80%) at a shorter length."""
    return {"total_iters": total_iters, "rampup_iters": round(0.4 * total_iters),
            "base_lr": 0.1, "lr_decay": [[round(0.8 * total_iters), 0.2]]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    campaign: str
    total_iters: int
    pool: bool = False
    figure1: bool = False

    @property
    def workers(self) -> int:
        return nproc() if self.pool else 1

    def config(self, seed: int) -> dict:
        """The campaign config for one workload seed: one campaign seed per grid cell."""
        config = {
            "name": self.campaign,
            "output_dir": "out",
            "seeds": [seed],
            "datasets": [dict(d) for d in DATASETS],
            "algorithms": [dict(a) for a in ALGORITHMS],
            "schedule": scaled_schedule(self.total_iters),
            "training": dict(TRAINING),
        }
        if self.figure1:
            config["report"] = {"grids": True, "grid_resolution": [200, 200],
                                "dump_datasets": True}
            config["gap_curve"] = {"delta": 0.9, "gamma": 0.95, "max_lag": 500}
        return config


WORKLOADS = {w.name: w for w in (
    Workload("table1-serial",
             "table1 grid on one process: the training step (mlp, losses, optim) is "
             "nearly all the work, so a step-cost change shows here",
             campaign="perfbench-table1", total_iters=500),
    Workload("table1-pool",
             "same config on nproc pool workers: adds pickling and load imbalance, so a "
             "scheduling change shows here and not on table1-serial",
             campaign="perfbench-table1", total_iters=500, pool=True),
    Workload("figure1-preview",
             "200x200 grids, dataset dumps, gap curve and gap estimates: output, datasets "
             "and coeffs do much of the work, so output and streaming changes show here",
             campaign="perfbench-figure1", total_iters=500, figure1=True),
)}
