"""Error grouping, seed aggregation, boundary grids, and report files."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.mlp import init_params, param_scale
from skewlab.report import (
    AggregateResult,
    GroupErrors,
    aggregate_runs,
    boundary_grid,
    default_bbox,
    group_errors,
    read_table,
    write_grid_csv,
    write_report,
)

STD_OF_02_04 = 0.14142135623730953   # ddof=1 over {0.2, 0.4}


class TestGroupErrors:
    def test_two_class_example(self):
        g = group_errors(np.array([0.0, 0.5]), np.array([10, 2]))
        assert g == GroupErrors(all=0.25, major=0.0, minor=0.5)

    def test_four_class_example(self):
        g = group_errors(np.array([0.0, 0.0, 0.0, 1.0]), np.array([5, 3, 2, 1]))
        assert g.all == 0.25
        assert g.major == 0.0
        assert g.minor == 1.0

    @given(e=st.floats(0.0, 1.0), n=st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_equal_errors_collapse_to_that_error(self, e, n):
        counts = np.arange(n, 0, -1)
        g = group_errors(np.full(n, e), counts)
        assert g.all == pytest.approx(e) and g.major == e and g.minor == e

    def test_frequency_ties_resolve_to_lowest_index(self):
        g = group_errors(np.array([0.1, 0.2, 0.3]), np.array([4, 4, 4]))
        assert g.major == 0.1
        assert g.minor == 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            group_errors(np.array([0.5]), np.array([3]))
        with pytest.raises(ValueError):
            group_errors(np.array([0.5, np.nan]), np.array([3, 1]))


class TestAggregateRuns:
    def test_mean_and_sample_std(self):
        runs = [GroupErrors(0.2, 0.1, 0.3), GroupErrors(0.4, 0.1, 0.5)]
        agg = aggregate_runs(runs)
        assert agg.n_runs == 2
        assert agg.mean.all == pytest.approx(0.3)
        assert agg.std.all == pytest.approx(STD_OF_02_04, rel=1e-15)
        assert agg.std.major == 0.0

    def test_identical_runs_have_zero_spread(self):
        agg = aggregate_runs([GroupErrors(0.2, 0.1, 0.3)] * 4)
        assert agg.std == GroupErrors(0.0, 0.0, 0.0)

    def test_single_run_has_no_std(self):
        agg = aggregate_runs([GroupErrors(0.2, 0.1, 0.3)])
        assert agg.std is None and agg.n_runs == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestBoundaryGrid:
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

    def test_degenerate_inputs_rejected(self, params):
        with pytest.raises(ValueError):
            boundary_grid(params, (0.0, 0.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            boundary_grid(params, (-1.0, 1.0, -1.0, 1.0), resolution=(1, 5))

    def test_default_bbox_adds_margin(self):
        points = np.array([[0.0, -1.0], [2.0, 3.0]])
        assert default_bbox(points, margin=0.25) == (-0.5, 2.5, -2.0, 4.0)

    def test_trained_style_boundary_is_a_single_frontier(self):
        # a near-linear decision function must split the grid into exactly
        # two connected argmax regions
        params = init_params(8, 2, seed=21)
        tilted = param_scale(params, 0.05)
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
            mean = GroupErrors(base, base / 2, base * 2)
            std = GroupErrors(0.01, 0.02, 0.03)
            return AggregateResult(mean=mean, std=std, n_runs=5)

        return {
            "twomoons": {"supervised": agg(0.10), "pi-model": agg(0.08),
                         "mean-teacher": agg(0.06), "mt-scl": agg(0.04)},
            "fourspins": {"supervised": agg(0.30), "pi-model": agg(0.28),
                          "mean-teacher": agg(0.26), "mt-scl": agg(0.24)},
        }

    def test_table_layout_and_round_trip(self, aggregates, tmp_path):
        files = write_report(aggregates, tmp_path)
        assert [f.name for f in files] == ["table.csv"]
        table = read_table(files[0])
        assert set(table) == {"twomoons", "fourspins"}
        assert set(table["twomoons"]) == {"supervised", "pi-model",
                                          "mean-teacher", "mt-scl"}
        cells = [table[d][a][g] for d in table for a in table[d] for g in table[d][a]]
        assert len(cells) == 24
        mean, std = table["fourspins"]["mt-scl"]["minor"]
        assert mean == 0.48 and std == 0.03

    def test_single_run_cells_have_no_spread(self, tmp_path):
        aggs = {"twomoons": {"supervised": AggregateResult(
            mean=GroupErrors(0.1, 0.05, 0.2), std=None, n_runs=1)}}
        files = write_report(aggs, tmp_path)
        table = read_table(files[0])
        assert table["twomoons"]["supervised"]["all"] == (0.1, None)
        assert "±" not in files[0].read_text()

    def test_custom_table_name(self, aggregates, tmp_path):
        files = write_report(aggregates, tmp_path, table_name="table_ema.csv")
        assert files[0].name == "table_ema.csv"

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
