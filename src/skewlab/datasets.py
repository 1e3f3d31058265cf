"""Synthetic 2-D benchmarks and class-imbalanced semi-supervised splits.

Two generators are provided: interleaved moons (2 classes) and four spiral
arms (4 classes).  Both run through one skeleton, which draws every class's
arc parameters uniformly at random, in class order, and only then adds
isotropic Gaussian noise.  So for a fixed seed the noise-free loci are
identical across noise levels; a generator called with ``noise_std=0``
returns exactly the base points of the noisy dataset with the same seed.

Geometry constants (fixed, the generators' contract):

* Two moons: upper arc is the unit upper semicircle centered at the origin;
  the lower arc is its mirror image through the x-axis translated by
  (+0.5, -0.25).
* Four spins: class k's locus is an Archimedean spiral arm r = b * theta for
  theta in [SPIN_THETA_MIN, SPIN_THETA_MAX], rotated by k * pi / 2, with b
  chosen so the outer radius is SPIN_RADIUS_MAX.  Adjacent arms are separated
  by a constant radial gap of b * pi / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ioutil import FLOAT, write_text

MOON_LOWER_OFFSET = (0.5, -0.25)

SPIN_THETA_MIN = 0.4 * math.pi
SPIN_THETA_MAX = 1.6 * math.pi
SPIN_RADIUS_MAX = 1.0

UNLABELED_TYPES = ("uniform", "half", "same")


class SplitCapacityError(ValueError):
    """A partition request exceeds what the pool holds for some class."""


@dataclass(frozen=True, eq=False)
class Dataset2D:
    """Points in the plane with integer class labels in [0, n_classes)."""

    points: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {points.shape}")
        if labels.shape != (points.shape[0],):
            raise ValueError("labels must be a vector aligned with points")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.points.shape[0]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes).astype(np.int64)

    def subset(self, rows: np.ndarray) -> "Dataset2D":
        return Dataset2D(self.points[rows], self.labels[rows], self.n_classes)


@dataclass(frozen=True, eq=False)
class CisslSplit:
    """Labeled / unlabeled / validation partitions of one generated pool.

    The partitions are disjoint row sets of the pool; each one's class counts
    are its ``class_counts()``.  ``unlabeled`` keeps its labels purely for
    bookkeeping (dumps, audits); trainers must consume
    :meth:`unlabeled_points` only.
    """

    labeled: Dataset2D
    unlabeled: Dataset2D
    validation: Dataset2D

    def unlabeled_points(self) -> np.ndarray:
        """Trainer-facing view of the unlabeled partition: points only."""
        return self.unlabeled.points


def moon_arc_points(label: int, t: np.ndarray) -> np.ndarray:
    """Noise-free locus of a moons class at arc parameters t in [0, pi]."""
    t = np.asarray(t, dtype=np.float64)
    if label == 0:
        return np.column_stack((np.cos(t), np.sin(t)))
    if label == 1:
        ox, oy = MOON_LOWER_OFFSET
        return np.column_stack((ox + np.cos(t), oy - np.sin(t)))
    raise ValueError(f"two moons has classes 0 and 1, got {label}")


def spin_arm_points(label: int, theta: np.ndarray) -> np.ndarray:
    """Noise-free locus of a spiral arm at angles theta in the arm's range."""
    if not 0 <= label < 4:
        raise ValueError(f"four spins has classes 0..3, got {label}")
    theta = np.asarray(theta, dtype=np.float64)
    radius = SPIN_RADIUS_MAX * theta / SPIN_THETA_MAX
    angle = theta + label * (math.pi / 2.0)
    return np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))


def perturb(x: np.ndarray, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Additive isotropic Gaussian noise; identity when noise_std == 0.

    The generators add their noise through it, and training perturbs its
    unlabeled inputs with it.
    """
    if not noise_std >= 0.0:  # also rejects NaN
        raise ValueError("noise_std must be nonnegative")
    if noise_std == 0.0:
        return x
    return x + rng.normal(0.0, noise_std, x.shape)


def _generate(locus, bounds, n_classes, n_per_class, noise_std, seed) -> Dataset2D:
    """The generators' one skeleton: per class in order, n_per_class uniform
    draws within bounds mapped through locus(class, draws); then the noise."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    rng = np.random.default_rng(seed)
    base = np.vstack([locus(k, rng.uniform(*bounds, n_per_class)) for k in range(n_classes)])
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    return Dataset2D(perturb(base, noise_std, rng), labels, n_classes)


def gen_two_moons(n_per_class: int, noise_std: float, seed: int) -> Dataset2D:
    """Balanced two-moons sample: n_per_class points on each arc plus noise."""
    return _generate(moon_arc_points, (0.0, math.pi), 2, n_per_class, noise_std, seed)


def gen_four_spins(n_per_class: int, noise_std: float, seed: int) -> Dataset2D:
    """Balanced four-spins sample: n_per_class points on each arm plus noise."""
    return _generate(spin_arm_points, (SPIN_THETA_MIN, SPIN_THETA_MAX), 4, n_per_class,
                     noise_std, seed)


# kind -> (generator, number of classes)
KINDS = {"twomoons": (gen_two_moons, 2), "fourspins": (gen_four_spins, 4)}


def imbalance_counts(n_max: int, rho: float, n_classes: int) -> np.ndarray:
    """Per-rank class sizes decaying geometrically from n_max by factor rho.

    Rank k (0 = most frequent) receives round(n_max * rho ** (-k / (C - 1)))
    with round-half-up, clamped below at 1.  rho is the intended ratio of the
    largest to the smallest class; rho == 1 gives a uniform profile.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if rho < 1.0:
        raise ValueError("rho must be at least 1")
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    exact = n_max * rho ** (-np.arange(n_classes, dtype=np.float64) / (n_classes - 1))
    counts = np.floor(exact + 0.5).astype(np.int64)
    return np.maximum(counts, 1)


def unlabeled_rho(unlabeled_type: str, rho_l: float) -> float:
    """Imbalance factor of the unlabeled profile for a given unlabeled_type."""
    return {"uniform": 1.0, "half": max(1.0, rho_l / 2.0), "same": float(rho_l)}[unlabeled_type]


def make_cissl_split(pool: Dataset2D, labeled_counts: np.ndarray, unlabeled_type: str,
                     rho_l: float, n_unlabeled_max: int, val_per_class: int,
                     seed: int) -> CisslSplit:
    """Carve a pool into labeled / unlabeled / validation partitions.

    ``labeled_counts`` is rank-ordered (nonincreasing, rank 0 largest).  The
    unlabeled profile is imbalance_counts(n_unlabeled_max, rho_u, C) where
    rho_u is 1 ("uniform"), max(1, rho_l / 2) ("half"), or rho_l ("same").
    A seed-dependent permutation assigns ranks to classes, the same
    permutation for the labeled and unlabeled partitions, so the frequency
    orderings agree.  Validation is class-balanced at val_per_class.
    """
    n_classes = pool.n_classes
    labeled_counts = np.asarray(labeled_counts, dtype=np.int64)
    if labeled_counts.shape != (n_classes,):
        raise ValueError("labeled_counts must have one entry per class")
    if np.any(labeled_counts < 1):
        raise ValueError("labeled_counts entries must be positive")
    if np.any(np.diff(labeled_counts) > 0):
        raise ValueError("labeled_counts must be rank-ordered (nonincreasing)")
    if unlabeled_type not in UNLABELED_TYPES:
        raise ValueError(f"unlabeled_type must be one of {UNLABELED_TYPES}")
    if rho_l < 1.0:
        raise ValueError("rho_l must be at least 1")
    if val_per_class < 0:
        raise ValueError("val_per_class must be nonnegative")

    unlabeled_rank_counts = imbalance_counts(n_unlabeled_max, unlabeled_rho(unlabeled_type, rho_l),
                                             n_classes)

    rng = np.random.default_rng(seed)
    rank_to_class = rng.permutation(n_classes)
    labeled_by_class = np.empty(n_classes, dtype=np.int64)
    unlabeled_by_class = np.empty(n_classes, dtype=np.int64)
    labeled_by_class[rank_to_class] = labeled_counts
    unlabeled_by_class[rank_to_class] = unlabeled_rank_counts

    parts: tuple[list[np.ndarray], ...] = ([], [], [])
    for cls in range(n_classes):
        rows = np.flatnonzero(pool.labels == cls)
        n_lab = int(labeled_by_class[cls])
        n_unl = int(unlabeled_by_class[cls])
        need = n_lab + n_unl + val_per_class
        if rows.size < need:
            raise SplitCapacityError(
                f"class {cls}: pool holds {rows.size} samples but the split needs {need} "
                f"(labeled {n_lab}, unlabeled {n_unl}, validation {val_per_class})")
        order = rng.permutation(rows)
        for part, chunk in zip(parts, np.split(order[:need], [n_lab, n_lab + n_unl])):
            part.append(chunk)
    return CisslSplit(*(pool.subset(np.concatenate(part)) for part in parts))


def write_split_csv(split: CisslSplit, path: str) -> None:
    """Dump all partitions as rows of x, y, label, partition for plotting."""
    parts = ["x,y,label,partition\n"]
    for name, part in (("labeled", split.labeled), ("unlabeled", split.unlabeled),
                       ("validation", split.validation)):
        row = f"{FLOAT},{FLOAT},%d,{name}\n"
        parts += [row % cells for cells in zip(*part.points.T.tolist(), part.labels.tolist())]
    write_text(path, "".join(parts))
