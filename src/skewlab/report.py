"""Per-class validation errors, their grouping, multi-seed aggregation,
decision-boundary grids, and report files.

Validation errors and grids come from one pass of the network over row
blocks (``row_blocks``) that keep the bits of one whole forward.

Groups: "all" is the unweighted mean over classes, "major" the error of the
single most frequent class, "minor" the single least frequent; frequency ties
resolve to the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datasets import Dataset2D
from .ioutil import FLOAT, fmt, read_csv, write_csv, write_text
from .mlp import MlpParams, forward, layer_step, softmax, vector_size

# The error groups; group errors and their seed aggregates are arrays in this order.
GROUP_NAMES = ("all", "major", "minor")


# Row blocks that give every row the bits of one whole forward (measured on
# numpy 2.4.6's OpenBLAS 0.3.31, SkylakeX core).  Its float64 matmul switches
# to a small-matrix kernel, which rounds differently, exactly when
# rows * fan_in * fan_out <= SMALL_MATMUL; that kernel also rounds the rows of
# a block's last partial group of 4 differently.  BLOCK_MIN_ROWS bounds the
# number of blocks and chunks.
SMALL_MATMUL = 10**6
BLOCK_ALIGN = 8
BLOCK_MIN_ROWS = 256


def row_blocks(layer_sizes: tuple[int, ...], rows: int) -> list[tuple[int, int]]:
    """(start, stop) of the smallest row blocks whose forward passes give the
    same bits as one forward over all ``rows``.

    Every block but the last starts and stops on a multiple of BLOCK_ALIGN
    rows, and the last ends at ``rows``, so the small-matrix kernel groups
    each row as it would in the whole batch.  Every block has at least
    BLOCK_MIN_ROWS rows, and for each layer whose whole-batch matmul is above
    SMALL_MATMUL, more than SMALL_MATMUL / (fan_in * fan_out) rows, so that
    layer stays off the small-matrix kernel.  Block sizes differ by at most
    BLOCK_ALIGN rows plus the last block's leftover; inputs too short for two
    such blocks stay one block.
    """
    need = BLOCK_MIN_ROWS
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        if rows * fan_in * fan_out > SMALL_MATMUL:
            need = max(need, SMALL_MATMUL // (fan_in * fan_out) + 1)
    groups = rows // BLOCK_ALIGN
    n_blocks = max(1, groups // -(-need // BLOCK_ALIGN))
    per_block, extra = divmod(groups, n_blocks)
    blocks = []
    start = 0
    for i in range(n_blocks):
        stop = start + (per_block + (i < extra)) * BLOCK_ALIGN
        blocks.append((start, stop))
        start = stop
    blocks[-1] = (blocks[-1][0], rows)
    return blocks


def _block_logits(params: MlpParams, points: np.ndarray):
    """Yield (start, stop, logits) per block of ``row_blocks``, with the bits
    of one whole forward over ``points``.

    The first hidden layer runs through ``forward`` on an (inputs, width) view
    of the network, straight into one block-sized hidden array; each later
    hidden layer runs in place over it in row chunks, and the class layer
    once per block, each through ``forward``'s ``layer_step``.
    """
    sizes = params.layer_sizes
    if len(sizes) < 3 or len(set(sizes[1:-1])) > 1:
        raise ValueError(f"layers={','.join(map(str, sizes))}: the blocked pass "
                         "needs one or more hidden layers of one width")
    first = MlpParams(sizes[:2], params.flat[:vector_size(sizes[:2])])
    blocks = row_blocks(sizes, len(points))
    hidden = np.empty((max(stop - start for start, stop in blocks), sizes[1]))
    for start, stop in blocks:
        h, _ = forward(first, points[start:stop], out=(hidden[:stop - start],))
        np.tanh(h, out=h)
        for a, b in row_blocks(sizes[1:-1], stop - start):
            chunk = h[a:b]
            for w, bias in zip(params.weights[1:-1], params.biases[1:-1]):
                # an output that overlaps the input reads a copy of it
                np.tanh(layer_step(chunk, w, bias, out=chunk), out=chunk)
        yield start, stop, layer_step(h, params.weights[-1], params.biases[-1])


def evaluate(params: MlpParams, dataset: Dataset2D) -> np.ndarray:
    """Per-class error rates under argmax prediction; NaN for absent classes."""
    predicted = np.empty(len(dataset), dtype=np.intp)
    for start, stop, logits in _block_logits(params, dataset.points):
        logits.argmax(axis=1, out=predicted[start:stop])
    labels = dataset.labels
    with np.errstate(invalid="ignore"):  # 0 / 0 for an absent class
        return (np.bincount(labels[predicted != labels], minlength=dataset.n_classes)
                / dataset.class_counts())


def group_errors(per_class_errors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Collapse per-class errors into their GROUP_NAMES summaries."""
    errors = np.asarray(per_class_errors, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if errors.shape != counts.shape or errors.ndim != 1:
        raise ValueError("errors and counts must be aligned vectors")
    if errors.size < 2:
        raise ValueError("need at least two classes")
    if not np.all(np.isfinite(errors)):
        raise ValueError("per-class errors must be finite")
    return np.array([np.mean(errors), errors[np.argmax(counts)], errors[np.argmin(counts)]])


def aggregate_runs(results: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean and (n-1)-normalized standard deviation of group errors over
    repeated runs; no standard deviation for a single run."""
    if not results:
        raise ValueError("no runs to aggregate")
    stacked = np.array(results, dtype=np.float64)
    return stacked.mean(axis=0), (stacked.std(axis=0, ddof=1) if len(results) > 1 else None)


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


def default_bbox(points: np.ndarray) -> tuple[float, float, float, float]:
    """Data bounding box expanded by 0.2 of its extent on every side."""
    points = np.asarray(points, dtype=np.float64)
    x_min, y_min = points.min(axis=0)
    x_max, y_max = points.max(axis=0)
    dx = (x_max - x_min) * 0.2
    dy = (y_max - y_min) * 0.2
    return float(x_min - dx), float(x_max + dx), float(y_min - dy), float(y_max + dy)


def _axis_nodes(start: float, stop: float, n: int) -> np.ndarray:
    step = (stop - start) / (n - 1)
    return start + np.arange(n, dtype=np.float64) * step


def boundary_grid(params: MlpParams, bbox: tuple[float, float, float, float],
                  resolution: tuple[int, int]) -> BoundaryGrid:
    """Evaluate max softmax probability and argmax class over a grid."""
    x_min, x_max, y_min, y_max = bbox
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    if not (x_max > x_min and y_max > y_min):
        raise ValueError("bbox must be nondegenerate")
    xs = _axis_nodes(x_min, x_max, nx)
    ys = _axis_nodes(y_min, y_max, ny)
    nodes = np.empty((ny, nx, 2))  # y outer, x inner, as meshgrid's ravelled axes
    nodes[:, :, 0] = xs
    nodes[:, :, 1] = ys[:, None]
    nodes = nodes.reshape(ny * nx, 2)
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
    if "±" in cell:
        mean_s, std_s = cell.split("±")
        return float(mean_s), float(std_s)
    return float(cell), None


def write_report(path: str | Path,
                 aggregates: Mapping[str, Mapping[str, tuple[np.ndarray, np.ndarray | None]]],
                 algorithms: Sequence[str]) -> None:
    """Write one summary table to path.

    aggregates maps dataset name -> algorithm name -> ``aggregate_runs``'
    (mean, std); the table has one row per dataset x group and one column per
    algorithm of algorithms that has a cell, in the order given, cells holding
    mean±std at full precision or nothing.
    """
    columns = [a for a in algorithms if any(a in per_algo for per_algo in aggregates.values())]
    rows = []
    for dataset, per_algo in aggregates.items():
        for i, group in enumerate(GROUP_NAMES):
            row = [dataset, group]
            for algo in columns:
                if algo not in per_algo:
                    row.append("")
                else:
                    mean, std = per_algo[algo]
                    row.append(_format_cell(mean[i], None if std is None else std[i]))
            rows.append(row)
    write_csv(path, ["dataset", "group", *columns], rows)


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
