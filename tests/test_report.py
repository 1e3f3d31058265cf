"""Error grouping, seed aggregation, row blocks, boundary grids, and report files."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.mlp import MlpParams, forward, init_params, softmax
from skewlab.numerics import blas_threads
from skewlab.report import (
    BLOCK_ALIGN,
    BLOCK_MIN_ROWS,
    SMALL_MATMUL,
    GROUP_NAMES,
    aggregate_runs,
    boundary_grid,
    default_bbox,
    group_errors,
    read_table,
    row_blocks,
    write_grid_csv,
    write_report,
)

STD_OF_02_04 = 0.14142135623730953   # ddof=1 over {0.2, 0.4}
ALGORITHMS = ["supervised", "pi-model", "mean-teacher", "mt-scl"]


def assert_groups(actual, expected):
    """Group errors or an aggregate row: a float64 array in GROUP_NAMES order, exactly."""
    assert isinstance(actual, np.ndarray) and actual.dtype == np.float64
    assert actual.tolist() == expected


class TestGroupErrors:
    def test_two_class_example(self):
        assert_groups(group_errors(np.array([0.0, 0.5]), np.array([10, 2])), [0.25, 0.0, 0.5])

    def test_four_class_example(self):
        g = group_errors(np.array([0.0, 0.0, 0.0, 1.0]), np.array([5, 3, 2, 1]))
        assert_groups(g, [0.25, 0.0, 1.0])

    @given(e=st.floats(0.0, 1.0), n=st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_equal_errors_collapse_to_that_error(self, e, n):
        counts = np.arange(n, 0, -1)
        all_, major, minor = group_errors(np.full(n, e), counts)
        assert all_ == pytest.approx(e) and major == e and minor == e

    def test_frequency_ties_resolve_to_lowest_index(self):
        g = group_errors(np.array([0.1, 0.2, 0.3]), np.array([4, 4, 4]))
        assert g[1] == 0.1 and g[2] == 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            group_errors(np.array([0.5]), np.array([3]))
        with pytest.raises(ValueError):
            group_errors(np.array([0.5, np.nan]), np.array([3, 1]))


class TestAggregateRuns:
    def test_mean_and_sample_std(self):
        mean, std = aggregate_runs([np.array([0.2, 0.1, 0.3]), np.array([0.4, 0.1, 0.5])])
        assert mean[0] == pytest.approx(0.3)
        assert std[0] == pytest.approx(STD_OF_02_04, rel=1e-15)
        assert std[1] == 0.0

    def test_identical_runs_have_zero_spread(self):
        _, std = aggregate_runs([np.array([0.2, 0.1, 0.3])] * 4)
        assert_groups(std, [0.0, 0.0, 0.0])

    def test_single_run_has_no_std(self):
        mean, std = aggregate_runs([np.array([0.2, 0.1, 0.3])])
        assert_groups(mean, [0.2, 0.1, 0.3])
        assert std is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestRowBlocks:
    @given(rows=st.integers(0, 200_000), width=st.integers(1, 64),
           n_classes=st.integers(2, 5), hidden_layers=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_blocks_tile_the_rows_within_the_bit_rules(self, rows, width, n_classes,
                                                       hidden_layers):
        sizes = init_params(width, n_classes, seed=0, hidden_layers=hidden_layers).layer_sizes
        blocks = row_blocks(sizes, rows)
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(stop % BLOCK_ALIGN == 0 for _, stop in blocks[:-1])
        lengths = [stop - start for start, stop in blocks]
        assert max(lengths[:-1], default=0) - min(lengths[:-1], default=0) <= BLOCK_ALIGN
        need = max([BLOCK_MIN_ROWS] + [SMALL_MATMUL // (i * o) + 1
                                       for i, o in zip(sizes[:-1], sizes[1:])
                                       if rows * i * o > SMALL_MATMUL])
        if len(blocks) > 1:
            assert min(lengths) >= need
        # the smallest such blocks: none could be split in two
        assert len(blocks) == 1 or max(lengths) < 2 * need + 4 * BLOCK_ALIGN
        assert len(blocks) > 1 or rows < 2 * need + 2 * BLOCK_ALIGN

    def test_preset_shapes(self):
        assert row_blocks((2, 64, 64, 2), 40_000) == [(i * 8000, (i + 1) * 8000)
                                                      for i in range(5)]
        assert row_blocks((2, 64, 64, 4), 40_000) == row_blocks((2, 64, 64, 2), 40_000)
        assert row_blocks((2, 64, 64, 4), 6000) == [(0, 6000)]
        validation = row_blocks((2, 64, 64, 2), 6000)
        assert len(validation) == 23 and validation[-1] == (5744, 6000)
        assert row_blocks((2, 64, 64, 2), 300) == [(0, 300)]
        assert row_blocks((2, 64, 64, 2), 0) == [(0, 0)]


class TestBoundaryGrid:
    @pytest.fixture(autouse=True, scope="class")
    def one_blas_thread(self):
        """Compute at one BLAS thread, as a campaign's runs do: on some cores
        (Haswell) OpenBLAS's split of a product's rows between threads changes
        bits, and the one whole forward these tests compare with is such a
        product.  The caller's thread count comes back afterwards."""
        threads = blas_threads(1)
        yield
        blas_threads(threads)

    @pytest.fixture
    def params(self):
        return init_params(8, 3, seed=20)

    def test_zero_parameters_give_uniform_probabilities(self, params):
        zeroed = params.with_flat(np.zeros(params.n_params))
        grid = boundary_grid(zeroed, (-1.0, 1.0, -1.0, 1.0), resolution=(5, 4))
        assert grid.max_prob.shape == (4, 5)
        assert np.allclose(grid.max_prob, 1.0 / 3.0, atol=1e-15)
        assert np.all(grid.argmax == 0)

    def test_nodes_span_the_bbox_inclusively(self, params):
        grid = boundary_grid(params, (0.0, 2.0, -1.0, 3.0), resolution=(5, 9))
        assert grid.xs[0] == 0.0 and grid.xs[-1] == 2.0
        assert grid.ys[0] == -1.0 and grid.ys[-1] == 3.0
        assert np.allclose(np.diff(grid.xs), 0.5, atol=1e-15)

    def test_refinement_keeps_original_nodes_bit_identical(self, params):
        bbox = (-1.3, 0.9, -0.7, 1.1)
        coarse = boundary_grid(params, bbox, resolution=(7, 5))
        fine = boundary_grid(params, bbox, resolution=(13, 9))
        assert np.array_equal(fine.xs[::2], coarse.xs)
        assert np.array_equal(fine.ys[::2], coarse.ys)
        assert np.array_equal(fine.max_prob[::2, ::2], coarse.max_prob)
        assert np.array_equal(fine.argmax[::2, ::2], coarse.argmax)

    @staticmethod
    def assert_matches_one_forward(params, resolution):
        bbox = (-2.5, 2.0, -1.5, 3.0)
        grid = boundary_grid(params, bbox, resolution=resolution)
        grid_x, grid_y = np.meshgrid(grid.xs, grid.ys)
        probs = softmax(forward(params, np.column_stack((grid_x.ravel(), grid_y.ravel())))[0])
        nx, ny = resolution
        assert np.array_equal(grid.max_prob, probs.max(axis=1).reshape(ny, nx))
        assert np.array_equal(grid.argmax, probs.argmax(axis=1).reshape(ny, nx))

    @pytest.mark.parametrize("width", [1, 8, 64])
    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_blocked_grid_matches_one_forward_bitwise(self, n_classes, hidden_layers, width):
        # a node count that is not a whole number of aligned row groups; every
        # shape but the three 4-class width-8 ones, whose 8 x 4 class layer
        # sits just above the small-matrix line, runs in several row blocks
        params = init_params(width, n_classes, seed=23, hidden_layers=hidden_layers)
        self.assert_matches_one_forward(params, (67, 467))

    # node counts just below and just above the small-matrix line of the
    # class layer (7,812 rows for 64 x 2, 3,906 for 64 x 4), and on either
    # side of the first split into two blocks above the line
    @pytest.mark.parametrize("n_classes, nodes, n_blocks", [
        (2, 7812, 30), (2, 7814, 1), (2, 15630, 1), (2, 15632, 2),
        (4, 3906, 15), (4, 3908, 1), (4, 15630, 1), (4, 15632, 2)])
    def test_grid_straddling_the_small_matmul_line_matches_one_forward(
            self, n_classes, nodes, n_blocks):
        params = init_params(64, n_classes, seed=24)
        assert len(row_blocks(params.layer_sizes, nodes)) == n_blocks
        self.assert_matches_one_forward(params, (nodes // 2, 2))

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_full_200_by_200_grid_matches_one_forward(self, n_classes):
        params = init_params(64, n_classes, seed=25)
        assert len(row_blocks(params.layer_sizes, 200 * 200)) > 1
        self.assert_matches_one_forward(params, (200, 200))

    def test_grid_memory_stays_below_one_full_size_hidden_array(self):
        # measured peak 6.6 MB for a 200 x 200 grid at width 64 (10.6 MB with
        # a second block-sized hidden array); one full-size 40,000 x 64 hidden
        # array alone is 20.5 MB
        params = init_params(64, 2, seed=26)
        tracemalloc.start()
        try:
            boundary_grid(params, (-2.0, 2.0, -2.0, 2.0), resolution=(200, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13e6

    def test_grid_memory_keeps_one_block_sized_hidden_array_at_three_hidden_layers(self):
        # the later hidden layers run in place over the block's one hidden
        # array: measured peak 6.6 MB, as at two hidden layers; with a
        # block-sized array per hidden layer but the last it was 14.7 MB
        params = init_params(64, 2, seed=26, hidden_layers=3)
        tracemalloc.start()
        try:
            boundary_grid(params, (-2.0, 2.0, -2.0, 2.0), resolution=(200, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8.5e6

    def test_network_without_a_hidden_layer_is_rejected(self):
        params = MlpParams((2, 3), np.ones(9))
        with pytest.raises(ValueError, match="layers=2,3: .*hidden layer"):
            boundary_grid(params, (-1.0, 1.0, -1.0, 1.0), resolution=(5, 5))

    def test_hidden_layers_of_different_widths_are_rejected(self):
        params = MlpParams((2, 8, 4, 3), np.ones(3 * 8 + 9 * 4 + 5 * 3))
        with pytest.raises(ValueError, match="layers=2,8,4,3: .*one width"):
            boundary_grid(params, (-1.0, 1.0, -1.0, 1.0), resolution=(5, 5))

    def test_overflowing_nodes_are_rejected_by_forwards_input_check(self, params):
        # the nodes of this bbox overflow to inf and nan
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="input must be finite"):
            boundary_grid(params, (-1e308, 1e308, -1.0, 1.0), resolution=(200, 200))

    def test_degenerate_inputs_rejected(self, params):
        with pytest.raises(ValueError):
            boundary_grid(params, (0.0, 0.0, -1.0, 1.0), resolution=(200, 200))
        with pytest.raises(ValueError):
            boundary_grid(params, (-1.0, 1.0, -1.0, 1.0), resolution=(1, 5))

    def test_default_bbox_adds_margin(self):
        # 0.2 of the extent on every side
        points = np.array([[0.0, -1.0], [2.0, 3.0]])
        assert default_bbox(points) == (-0.4, 2.4, -1.8, 3.8)

    def test_trained_style_boundary_is_a_single_frontier(self):
        # a near-linear decision function must split the grid into exactly
        # two connected argmax regions
        params = init_params(8, 2, seed=21)
        tilted = params.with_flat(params.flat * 0.05)
        grid = boundary_grid(tilted, (-2.0, 2.0, -2.0, 2.0), resolution=(40, 40))
        labels = grid.argmax
        seen = np.zeros_like(labels, dtype=bool)
        components = 0
        for iy in range(labels.shape[0]):
            for ix in range(labels.shape[1]):
                if seen[iy, ix]:
                    continue
                components += 1
                stack = [(iy, ix)]
                seen[iy, ix] = True
                while stack:
                    cy, cx = stack.pop()
                    for ny, nx in ((cy + 1, cx), (cy - 1, cx), (cy, cx + 1), (cy, cx - 1)):
                        if (0 <= ny < labels.shape[0] and 0 <= nx < labels.shape[1]
                                and not seen[ny, nx] and labels[ny, nx] == labels[cy, cx]):
                            seen[ny, nx] = True
                            stack.append((ny, nx))
        assert components == len(np.unique(labels))


class TestReportFiles:
    @pytest.fixture
    def aggregates(self):
        def agg(base):
            return np.array([base, base / 2, base * 2]), np.array([0.01, 0.02, 0.03])

        return {
            "twomoons": {"supervised": agg(0.10), "pi-model": agg(0.08),
                         "mean-teacher": agg(0.06), "mt-scl": agg(0.04)},
            "fourspins": {"supervised": agg(0.30), "pi-model": agg(0.28),
                          "mean-teacher": agg(0.26), "mt-scl": agg(0.24)},
        }

    def test_table_layout_and_round_trip(self, aggregates, tmp_path):
        # an algorithm with no cell gets no column; the rest keep their order
        path = tmp_path / "table.csv"
        write_report(path, aggregates, ["pseudo-label", *ALGORITHMS])
        assert path.read_text().split("\n")[0] == "dataset,group," + ",".join(ALGORITHMS)
        table = read_table(path)
        assert set(table) == {"twomoons", "fourspins"}
        assert set(table["twomoons"]) == {"supervised", "pi-model",
                                          "mean-teacher", "mt-scl"}
        cells = [table[d][a][g] for d in table for a in table[d] for g in table[d][a]]
        assert len(cells) == 24
        mean, std = table["fourspins"]["mt-scl"]["minor"]
        assert mean == 0.48 and std == 0.03

    def test_an_absent_cell_is_left_out_and_the_rest_round_trip(self, tmp_path):
        # mt-scl has a cell for twomoons and none for fourspins
        aggs = {"twomoons": {"supervised": (np.array([0.1, 0.05, 0.2]), None),
                             "mt-scl": (np.array([1 / 3, 0.1, 0.7]), np.array([0.01, 0.0, 2 / 3]))},
                "fourspins": {"supervised": (np.array([0.3, 0.25, 0.9]), None)}}
        path = tmp_path / "table.csv"
        write_report(path, aggs, ["supervised", "mt-scl"])
        assert path.read_text().split("\n")[4].endswith(",")  # fourspins' empty mt-scl cell
        table = read_table(path)
        assert {d: set(per_algo) for d, per_algo in table.items()} == {
            "twomoons": {"supervised", "mt-scl"}, "fourspins": {"supervised"}}
        for dataset, per_algo in aggs.items():
            for algo, (mean, std) in per_algo.items():
                assert table[dataset][algo] == {
                    group: (mean[i], None if std is None else std[i])
                    for i, group in enumerate(GROUP_NAMES)}

    def test_single_run_cells_have_no_spread(self, tmp_path):
        aggs = {"twomoons": {"supervised": (np.array([0.1, 0.05, 0.2]), None)}}
        path = tmp_path / "table.csv"
        write_report(path, aggs, ["supervised"])
        assert read_table(path)["twomoons"]["supervised"]["all"] == (0.1, None)
        assert "±" not in path.read_text()

    def test_grid_files_written_per_run(self, tmp_path):
        params = init_params(4, 2, seed=22)
        grid = boundary_grid(params, (-1.0, 1.0, -1.0, 1.0), resolution=(3, 3))
        path = tmp_path / "grid_twomoons__mt__seed0.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,max_prob,argmax"
        assert len(lines) == 1 + 9
        # rows iterate y-outer, x-inner
        first, second = lines[1].split(","), lines[2].split(",")
        assert first[1] == second[1] and first[0] != second[0]

    def test_grid_csv_memory_stays_at_one_grid_row(self, tmp_path):
        # rows are written as they are formatted: measured peak 0.06 MB for a
        # 200 x 200 grid, whose whole file (1.8 MB) used to be built as one
        # string first (peak 7.4 MB)
        grid = boundary_grid(init_params(64, 4, seed=27), (-2.0, 2.0, -2.0, 2.0),
                             resolution=(200, 200))
        tracemalloc.start()
        try:
            write_grid_csv(grid, tmp_path / "grid.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
