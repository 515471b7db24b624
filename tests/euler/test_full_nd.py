"""Tests for EulerApprox in d dimensions and its parity algebra."""

import numpy as np
import pytest

from repro.datasets.base import RectDataset
from repro.euler.full import EulerApprox, QueryEdge
from repro.euler.histogram import EulerHistogram
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND
from repro.grid.tiles_math import TileQuery

from tests.conftest import random_dataset


def _random_boxes(rng, grid, m, max_frac=0.6):
    d = grid.ndim
    lows = np.empty((m, d))
    highs = np.empty((m, d))
    for k in range(d):
        size = rng.uniform(0.0, grid.cells[k] * max_frac, size=m)
        lo = rng.uniform(0.0, grid.cells[k] - size)
        lows[:, k] = lo
        highs[:, k] = lo + size
    return lows, highs


def _random_query(rng, grid):
    lo = tuple(int(rng.integers(0, n)) for n in grid.cells)
    hi = tuple(int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, grid.cells))
    return BoxQuery(lo=lo, hi=hi)


class TestTwoDEquivalence:
    def test_matches_specialised_euler_approx(self, rng):
        """At d=2 with the low-x facet, EulerApprox over a GridND build
        must equal it over the 2-d build with QueryEdge.LEFT, query for
        query."""
        grid_nd = GridND.unit_cells([8, 6])
        grid_2d = Grid(Rect(0.0, 8.0, 0.0, 6.0), 8, 6)
        data = random_dataset(rng, grid_2d, 150, degenerate_fraction=0.2)
        hist_nd = EulerHistogram.from_boxes(
            grid_nd,
            np.column_stack([data.x_lo, data.y_lo]),
            np.column_stack([data.x_hi, data.y_hi]),
        )
        nd = EulerApprox(hist_nd, QueryEdge.LEFT)
        reference = EulerApprox(EulerHistogram.from_dataset(data, grid_2d), QueryEdge.LEFT)
        for _ in range(30):
            q = _random_query(rng, grid_nd)
            q2 = TileQuery(q.lo[0], q.hi[0], q.lo[1], q.hi[1])
            assert nd.estimate(q) == reference.estimate(q2)

    def test_bottom_edge_matches(self, rng):
        grid_nd = GridND.unit_cells([8, 6])
        grid_2d = Grid(Rect(0.0, 8.0, 0.0, 6.0), 8, 6)
        data = random_dataset(rng, grid_2d, 100)
        hist_nd = EulerHistogram.from_boxes(
            grid_nd,
            np.column_stack([data.x_lo, data.y_lo]),
            np.column_stack([data.x_hi, data.y_hi]),
        )
        nd = EulerApprox(hist_nd, QueryEdge.BOTTOM)
        reference = EulerApprox(EulerHistogram.from_dataset(data, grid_2d), QueryEdge.BOTTOM)
        for _ in range(20):
            q = _random_query(rng, grid_nd)
            q2 = TileQuery(q.lo[0], q.hi[0], q.lo[1], q.hi[1])
            assert nd.estimate(q) == reference.estimate(q2)


class TestParityAlgebra:
    @pytest.mark.parametrize("cells", [(7,), (7, 7), (7, 7, 7), (5, 5, 5, 5)])
    def test_single_container_recovered_in_any_dimension(self, cells):
        grid = GridND.unit_cells(cells)
        d = len(cells)
        lows = np.full((1, d), 0.5)
        highs = np.array([[n - 0.5 for n in cells]])
        hist = EulerHistogram.from_boxes(grid, lows, highs)
        estimator = EulerApprox(hist)
        center = tuple(n // 2 for n in cells)
        q = BoxQuery(lo=center, hi=tuple(c + 1 for c in center))
        counts = estimator.estimate(q)
        assert counts.n_cd == 1.0
        assert counts.n_cs == 0.0
        assert counts.n_o == 0.0

    @pytest.mark.parametrize("cells", [(6, 6, 6), (6, 4, 5)])
    def test_3d_mixed_workload(self, cells, rng):
        """Sub-query objects + containers in 3-d: the odd-parity algebra
        must keep n_d exact, totals conserved, and containers counted."""
        grid = GridND.unit_cells(cells)
        lows, highs = _random_boxes(rng, grid, 60, max_frac=0.25)
        big_lo = np.full((3, len(cells)), 0.4)
        big_hi = np.array([[n - 0.4 for n in cells]] * 3)
        lows = np.vstack([lows, big_lo])
        highs = np.vstack([highs, big_hi])

        hist = EulerHistogram.from_boxes(grid, lows, highs)
        estimator = EulerApprox(hist)
        exact = ExactEvaluator.from_boxes(grid, lows, highs)
        for _ in range(10):
            q = _random_query(rng, grid)
            truth = exact.estimate(q)
            counts = estimator.estimate(q)
            assert counts.n_d == truth.n_d
            assert counts.total == pytest.approx(63.0)
            # The three deliberate containers must show when they apply.
            if truth.n_cd == 3 and truth.n_o == 0:
                assert counts.n_cd == pytest.approx(truth.n_cd)

    def test_axis_validation(self):
        grid = GridND.unit_cells([4])
        hist = EulerHistogram.from_boxes(grid, np.zeros((0, 1)), np.zeros((0, 1)))
        for edge in (QueryEdge.BOTTOM, QueryEdge.TOP):
            with pytest.raises(ValueError, match="axis"):
                EulerApprox(hist, edge)

    def test_high_side_band(self, rng):
        grid = GridND.unit_cells([6, 6])
        lows, highs = _random_boxes(rng, grid, 50)
        hist = EulerHistogram.from_boxes(grid, lows, highs)
        low = EulerApprox(hist, QueryEdge.LEFT)
        high = EulerApprox(hist, QueryEdge.RIGHT)
        exact = ExactEvaluator.from_boxes(grid, lows, highs)
        for _ in range(10):
            q = _random_query(rng, grid)
            truth = exact.estimate(q)
            for estimator in (low, high):
                counts = estimator.estimate(q)
                assert counts.n_d == truth.n_d
                assert counts.total == pytest.approx(50.0)

    def test_name(self):
        grid = GridND.unit_cells([4, 4, 4])
        hist = EulerHistogram.from_boxes(grid, np.zeros((0, 3)), np.zeros((0, 3)))
        assert EulerApprox(hist).name == "EulerApprox"
