"""Per-class validation errors, their grouping, multi-seed aggregation,
decision-boundary grids, and report files.

Groups: "all" is the unweighted mean over classes, "major" the error of the
single most frequent class, "minor" the single least frequent; frequency ties
resolve to the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datasets import Dataset2D
from .ioutil import FLOAT, fmt, read_csv, write_csv, write_text
from .mlp import MlpParams, forward, layer_views, row_blocks, softmax

GROUP_NAMES = ("all", "major", "minor")


@dataclass(frozen=True)
class GroupErrors:
    all: float
    major: float
    minor: float


@dataclass(frozen=True)
class AggregateResult:
    """Mean and sample standard deviation (absent for a single run)."""

    mean: GroupErrors
    std: GroupErrors | None
    n_runs: int


def _block_logits(params: MlpParams, points: np.ndarray):
    """Yield (start, stop, logits) over row blocks that keep the bits of one
    whole forward over ``points`` (see mlp.row_blocks).

    One block-sized array holds the hidden activations.  Within each block
    the first hidden layer runs through ``forward`` on a view of it as a
    (inputs, width) network, in pieces, straight into that array; each later
    hidden layer then runs in place over it in row chunks, through one
    chunk-sized buffer, and the class layer once per block, each with the
    calls ``forward`` makes for a layer.  Where the class layer needs many
    rows at once (fourspins validation sets) only the hidden array and the
    logits span them.
    """
    sizes = params.layer_sizes
    if len(sizes) < 3 or len(set(sizes[1:-1])) > 1:
        raise ValueError(f"layers={','.join(map(str, sizes))}: the blocked pass "
                         "needs one or more hidden layers of one width")
    cut = (sizes[0] + 1) * sizes[1]
    first = MlpParams(sizes[:2], params.flat[:cut])
    weights, biases = layer_views(sizes[1:-1], params.flat[cut:])
    blocks = [(start, stop, [(lo, hi, row_blocks(sizes[1:-1], hi - lo))
                             for lo, hi in row_blocks(sizes[:-1], stop - start)])
              for start, stop in row_blocks(sizes, len(points))]
    last = np.empty((max(stop - start for start, stop, _ in blocks), sizes[-2]))
    z = np.empty((max(b - a for _, _, pieces in blocks for _, _, chunks in pieces
                      for a, b in chunks), sizes[-2]))
    for start, stop, pieces in blocks:
        for lo, hi, chunks in pieces:
            h, _ = forward(first, points[start + lo:start + hi], out=(last[lo:hi],))
            np.tanh(h, out=h)
            for a, b in chunks:
                for w, bias in zip(weights, biases):
                    np.matmul(last[lo + a:lo + b], w, out=z[:b - a])
                    z[:b - a] += bias
                    np.tanh(z[:b - a], out=last[lo + a:lo + b])
        logits = np.matmul(last[:stop - start], params.weights[-1])
        logits += params.biases[-1]
        yield start, stop, logits


def evaluate(params: MlpParams, dataset: Dataset2D) -> np.ndarray:
    """Per-class error rates under argmax prediction; NaN for absent classes."""
    predicted = np.empty(len(dataset), dtype=np.intp)
    for start, stop, logits in _block_logits(params, dataset.points):
        logits.argmax(axis=1, out=predicted[start:stop])
    errors = np.full(dataset.n_classes, np.nan, dtype=np.float64)
    for cls in range(dataset.n_classes):
        mask = dataset.labels == cls
        if mask.any():
            errors[cls] = float(np.mean(predicted[mask] != cls))
    return errors


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
    nodes = np.column_stack((grid_x.ravel(), grid_y.ravel()))
    max_prob = np.empty(nodes.shape[0])
    argmax = np.empty(nodes.shape[0], dtype=np.int64)
    for start, stop, logits in _block_logits(params, nodes):
        probs = softmax(logits)
        probs.max(axis=1, out=max_prob[start:stop])
        probs.argmax(axis=1, out=argmax[start:stop])
    return BoundaryGrid(xs=xs, ys=ys, max_prob=max_prob.reshape(ny, nx),
                        argmax=argmax.reshape(ny, nx))


def write_grid_csv(grid: BoundaryGrid, path: str | Path) -> None:
    """One row per node, y outer and x inner: x, y, max_prob, argmax."""
    nx = grid.xs.size
    cells: list = [None] * (3 * nx)
    cells[0::3] = [fmt(x) for x in grid.xs]

    def lines():  # one chunk per grid row, so no whole-file string is built
        yield "x,y,max_prob,argmax\n"
        for y, probs, labels in zip(grid.ys, grid.max_prob, grid.argmax):
            cells[1::3] = probs.tolist()
            cells[2::3] = labels.tolist()
            yield (f"%s,{fmt(y)},{FLOAT},%d\n" * nx) % tuple(cells)
    write_text(path, lines())


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
                 destination: str | Path, algorithms: Sequence[str], *,
                 table_name: str = "table.csv") -> list[Path]:
    """Write the summary table.

    aggregates maps dataset name -> algorithm name -> AggregateResult; the
    table has one row per dataset x group and one column per algorithm named
    in algorithms, in order, cells holding mean±std at full precision or
    nothing.  Returns the files written.
    """
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    rows = []
    for dataset, per_algo in aggregates.items():
        for group in GROUP_NAMES:
            row = [dataset, group]
            for algo in algorithms:
                agg = per_algo.get(algo)
                if agg is None:
                    row.append("")
                else:
                    std = None if agg.std is None else getattr(agg.std, group)
                    row.append(_format_cell(getattr(agg.mean, group), std))
            rows.append(row)
    table_path = destination / table_name
    write_csv(table_path, ["dataset", "group", *algorithms], rows)
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
