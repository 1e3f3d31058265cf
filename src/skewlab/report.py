"""Per-class error grouping, multi-seed aggregation, and report files.

Groups: "all" is the unweighted mean over classes, "major" the error of the
single most frequent class, "minor" the single least frequent; frequency ties
resolve to the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .ioutil import FLOAT, fmt, read_csv, write_csv, write_text
from .mlp import MlpParams, forward, softmax

GROUP_NAMES = ("all", "major", "minor")


@dataclass(frozen=True)
class GroupErrors:
    all: float
    major: float
    minor: float

    def by_name(self, name: str) -> float:
        return {"all": self.all, "major": self.major, "minor": self.minor}[name]


@dataclass(frozen=True)
class AggregateResult:
    """Mean and sample standard deviation (absent for a single run)."""

    mean: GroupErrors
    std: GroupErrors | None
    n_runs: int


def group_errors(per_class_errors: np.ndarray, counts: np.ndarray) -> GroupErrors:
    """Collapse per-class errors into all/major/minor summaries."""
    errors = np.asarray(per_class_errors, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if errors.shape != counts.shape or errors.ndim != 1:
        raise ValueError("errors and counts must be aligned vectors")
    if errors.size < 2:
        raise ValueError("need at least two classes")
    if not np.all(np.isfinite(errors)):
        raise ValueError("per-class errors must be finite")
    return GroupErrors(all=float(np.mean(errors)), major=float(errors[int(np.argmax(counts))]),
                       minor=float(errors[int(np.argmin(counts))]))


def aggregate_runs(results: list[GroupErrors]) -> AggregateResult:
    """Mean and (n-1)-normalized standard deviation over repeated runs."""
    if not results:
        raise ValueError("no runs to aggregate")
    stacked = np.array([[r.all, r.major, r.minor] for r in results], dtype=np.float64)
    mean = stacked.mean(axis=0)
    mean_ge = GroupErrors(*map(float, mean))
    if len(results) == 1:
        return AggregateResult(mean=mean_ge, std=None, n_runs=1)
    std = stacked.std(axis=0, ddof=1)
    return AggregateResult(mean=mean_ge, std=GroupErrors(*map(float, std)), n_runs=len(results))


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Model outputs sampled on an axis-aligned grid of evaluation nodes.

    Nodes along each axis are start + i * step with step = extent / (n - 1),
    so doubling a resolution from n to 2n - 1 keeps every original node
    bit-identical (the refinement test relies on this).
    """

    xs: np.ndarray
    ys: np.ndarray
    max_prob: np.ndarray
    argmax: np.ndarray


def default_bbox(points: np.ndarray, margin: float = 0.2) -> tuple[float, float, float, float]:
    """Data bounding box expanded by `margin` of its extent on every side."""
    points = np.asarray(points, dtype=np.float64)
    x_min, y_min = points.min(axis=0)
    x_max, y_max = points.max(axis=0)
    dx = (x_max - x_min) * margin
    dy = (y_max - y_min) * margin
    return float(x_min - dx), float(x_max + dx), float(y_min - dy), float(y_max + dy)


def _axis_nodes(start: float, stop: float, n: int) -> np.ndarray:
    step = (stop - start) / (n - 1)
    return start + np.arange(n, dtype=np.float64) * step


def boundary_grid(params: MlpParams, bbox: tuple[float, float, float, float],
                  resolution: tuple[int, int] = (200, 200)) -> BoundaryGrid:
    """Evaluate max softmax probability and argmax class over a grid."""
    x_min, x_max, y_min, y_max = bbox
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    if not (x_max > x_min and y_max > y_min):
        raise ValueError("bbox must be nondegenerate")
    xs = _axis_nodes(x_min, x_max, nx)
    ys = _axis_nodes(y_min, y_max, ny)
    grid_x, grid_y = np.meshgrid(xs, ys)
    flat = np.column_stack((grid_x.ravel(), grid_y.ravel()))
    logits, _ = forward(params, flat)
    probs = softmax(logits)
    return BoundaryGrid(xs=xs, ys=ys,
                        max_prob=probs.max(axis=1).reshape(ny, nx),
                        argmax=probs.argmax(axis=1).reshape(ny, nx).astype(np.int64))


def write_grid_csv(grid: BoundaryGrid, path: str | Path) -> None:
    """One row per node, y outer and x inner: x, y, max_prob, argmax."""
    x_cells = [fmt(x) for x in grid.xs]
    parts = ["x,y,max_prob,argmax\n"]
    for y, probs, labels in zip(grid.ys, grid.max_prob.tolist(), grid.argmax.tolist()):
        row = f"%s,{fmt(y)},{FLOAT},%d\n"
        parts += [row % cells for cells in zip(x_cells, probs, labels)]
    write_text(path, "".join(parts))


def _format_cell(mean: float, std: float | None) -> str:
    if std is None:
        return fmt(mean)
    return f"{fmt(mean)}±{fmt(std)}"


def _parse_cell(cell: str) -> tuple[float, float | None]:
    if cell == "":
        return math.nan, None
    if "±" in cell:
        mean_s, std_s = cell.split("±")
        return float(mean_s), float(std_s)
    return float(cell), None


def write_report(aggregates: Mapping[str, Mapping[str, AggregateResult]],
                 destination: str | Path, *, table_name: str = "table.csv") -> list[Path]:
    """Write the summary table.

    aggregates maps dataset name -> algorithm name -> AggregateResult; the
    table has one row per dataset x group and one column per algorithm, cells
    holding mean±std at full precision.  Returns the files written.
    """
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)

    algorithms: list[str] = []
    for per_algo in aggregates.values():
        for name in per_algo:
            if name not in algorithms:
                algorithms.append(name)

    rows = []
    for dataset, per_algo in aggregates.items():
        for group in GROUP_NAMES:
            row = [dataset, group]
            for algo in algorithms:
                agg = per_algo.get(algo)
                if agg is None:
                    row.append("")
                else:
                    std = None if agg.std is None else agg.std.by_name(group)
                    row.append(_format_cell(agg.mean.by_name(group), std))
            rows.append(row)
    table_path = destination / table_name
    write_csv(table_path, ["dataset", "group"] + algorithms, rows)
    return [table_path]


def read_table(path: str | Path) -> dict[str, dict[str, dict[str, tuple[float, float | None]]]]:
    """Parse a table written by write_report.

    Returns dataset -> algorithm -> group -> (mean, std or None).
    """
    header, rows = read_csv(path)
    algorithms = header[2:]
    table: dict[str, dict[str, dict[str, tuple[float, float | None]]]] = {}
    for row in rows:
        dataset, group = row[0], row[1]
        for algo, cell in zip(algorithms, row[2:]):
            if cell == "":
                continue
            table.setdefault(dataset, {}).setdefault(algo, {})[group] = _parse_cell(cell)
    return table
