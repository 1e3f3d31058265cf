"""Text output: the float format, reading CSVs back, and the bulk writers
against a cell-by-cell rendering through fmt and write_csv."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab.datasets import DUMP_BLOCK_ROWS, CisslSplit, Dataset2D, write_split_csv
from skewlab.ioutil import FLOAT, fmt, read_csv, write_csv, write_text
from skewlab.mlp import init_params, save_params
from skewlab.report import BoundaryGrid, boundary_grid, read_table, write_grid_csv
from skewlab.training import (
    RunResult,
    history_header,
    read_history_csv,
    write_history_csv,
)

# Values whose 17-digit renderings exercise rounding, signed zero, the
# smallest subnormal and a large exponent.
AWKWARD = np.array([1.0, 0.1, 1.0 / 3.0, -0.0, 5e-324, 1e300, -2.5, 7.0])


def reference_csv(tmp_path, header, rows) -> bytes:
    path = tmp_path / "reference.csv"
    write_csv(path, header, rows)
    return path.read_bytes()


def reference_grid(tmp_path, grid: BoundaryGrid) -> bytes:
    rows = [(fmt(x), fmt(y), fmt(grid.max_prob[iy, ix]), str(int(grid.argmax[iy, ix])))
            for iy, y in enumerate(grid.ys) for ix, x in enumerate(grid.xs)]
    return reference_csv(tmp_path, ("x", "y", "max_prob", "argmax"), rows)


class TestFloatFormat:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_template_matches_fmt(self, value):
        assert FLOAT % value == fmt(value)

    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                       1.7976931348623157e308, 0.1, 1.0 / 3.0])
    def test_template_matches_fmt_on_edge_values(self, value):
        assert FLOAT % value == fmt(value)
        assert FLOAT % np.float64(value) == fmt(np.float64(value))

    @given(st.floats(allow_nan=False, allow_infinity=True))
    def test_round_trips_exactly(self, value):
        assert float(FLOAT % value) == value


class TestReadCsv:
    @pytest.mark.parametrize("reader", [read_csv, read_table, read_history_csv])
    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file_names_the_path(self, tmp_path, reader, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty.csv: empty CSV file"):
            reader(path)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, ("a", "b"), [])
        assert read_csv(path) == (["a", "b"], [])


class TestAtomicWrite:
    # a lone surrogate cannot be encoded as UTF-8, so the write raises
    # after the file it writes to is open
    UNWRITABLE = "new\n" * 1000 + "\ud800"

    def test_failed_write_leaves_no_new_file(self, tmp_path):
        path = tmp_path / "fresh.csv"
        with pytest.raises(UnicodeEncodeError):
            write_text(path, self.UNWRITABLE)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "kept.csv"
        write_text(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(path, self.UNWRITABLE)
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    @staticmethod
    def chunks_then_failure(path):
        yield "new\n" * 1000
        assert os.path.exists(f"{path}.tmp")  # the failure comes mid-write
        raise RuntimeError("chunk source failed")

    def test_chunks_give_the_bytes_of_the_joined_text(self, tmp_path):
        chunks = ["x,y\n", "", "1,\u00e9\n" * 3000, "2,3\r\n"]
        write_text(tmp_path / "chunks.csv", iter(chunks))
        write_text(tmp_path / "joined.csv", "".join(chunks))
        assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()

    def test_failed_chunks_leave_no_new_file(self, tmp_path):
        path = tmp_path / "fresh.csv"
        with pytest.raises(RuntimeError, match="chunk source failed"):
            write_text(path, self.chunks_then_failure(path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_chunks_keep_the_old_bytes(self, tmp_path):
        path = tmp_path / "kept.csv"
        write_text(path, "old\n")
        with pytest.raises(RuntimeError, match="chunk source failed"):
            write_text(path, self.chunks_then_failure(path))
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_write_replaces_and_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "replaced.csv"
        write_text(path, "old\n")
        write_text(str(path), "new\r\n")
        assert path.read_bytes() == b"new\r\n"
        assert list(tmp_path.iterdir()) == [path]


class TestBulkWritersMatchFmt:
    def test_grid_rows(self, tmp_path):
        xs = AWKWARD[:4]
        ys = AWKWARD[4:7]
        max_prob = np.resize(AWKWARD[::-1], (3, 4))
        argmax = np.arange(12, dtype=np.int64).reshape(3, 4) % 3
        grid = BoundaryGrid(xs=xs, ys=ys, max_prob=max_prob, argmax=argmax)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        assert path.read_bytes() == reference_grid(tmp_path, grid)

    def test_params_snapshot(self, tmp_path):
        template = init_params(2, 3, seed=1, hidden_layers=1)
        values = np.resize(AWKWARD, template.n_params)
        params = template.with_flat(values)
        path = tmp_path / "params.txt"
        save_params(params, path)
        expected = "layers=2,2,3\n" + "".join(fmt(v) + "\n" for v in values)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_split_dump(self, tmp_path):
        def part(offset, n):
            points = np.resize(np.roll(AWKWARD, offset), (n, 2))
            return Dataset2D(points, np.arange(n, dtype=np.int64) % 2, 2)

        # the unlabeled partition spans two whole blocks and part of a third
        labeled, unlabeled, validation = (part(0, 3), part(3, 2 * DUMP_BLOCK_ROWS + 5),
                                          part(5, 2))
        split = CisslSplit(labeled=labeled, unlabeled=unlabeled, validation=validation)
        path = tmp_path / "split.csv"
        write_split_csv(split, path)
        rows = [(fmt(x), fmt(y), str(int(label)), name)
                for name, data in (("labeled", labeled), ("unlabeled", unlabeled),
                                   ("validation", validation))
                for (x, y), label in zip(data.points, data.labels)]
        assert path.read_bytes() == reference_csv(
            tmp_path, ("x", "y", "label", "partition"), rows)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3)])
    def test_grid_from_a_real_model(self, tmp_path, shape):
        grid = boundary_grid(init_params(4, 3, seed=9), (-1.5, 2.0, -1.0, 0.5), shape)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        assert path.read_bytes() == reference_grid(tmp_path, grid)

    @pytest.mark.parametrize("with_ema", [False, True], ids=["student", "ema"])
    def test_history(self, tmp_path, with_ema):
        header = history_header(3, with_ema)
        history = np.resize(AWKWARD, (3, len(header)))
        history[:, 0] = [500, 1000, 1500]
        params = init_params(2, 3, seed=1, hidden_layers=1)
        result = RunResult(params=params, ema_params=params if with_ema else None,
                           history=history, wall_seconds=0.0)
        path = tmp_path / "history.csv"
        write_history_csv(result, str(path))
        rows = [[str(int(row[0]))] + [fmt(v) for v in row[1:]] for row in history]
        assert path.read_bytes() == reference_csv(tmp_path, header, rows)
