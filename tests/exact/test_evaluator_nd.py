"""Tests for the exact evaluator in d dimensions."""

import numpy as np
import pytest

from repro.datasets.base import RectDataset
from repro.exact.evaluator import ExactEvaluator
from repro.euler.histogram import EulerHistogram
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND

from tests.conftest import random_dataset, random_query


def _random_boxes(rng, grid, m):
    d = grid.ndim
    lows = np.empty((m, d))
    highs = np.empty((m, d))
    for k in range(d):
        size = rng.uniform(0.0, grid.cells[k] / 2, size=m)
        lo = rng.uniform(0.0, grid.cells[k] - size)
        lows[:, k] = lo
        highs[:, k] = lo + size
    return lows, highs


def test_2d_agrees_with_specialised_evaluator(rng):
    grid_nd = GridND.unit_cells([8, 6])
    grid_2d = Grid(Rect(0.0, 8.0, 0.0, 6.0), 8, 6)
    data = random_dataset(rng, grid_2d, 150, degenerate_fraction=0.2)
    nd = ExactEvaluator.from_boxes(
        grid_nd,
        np.column_stack([data.x_lo, data.y_lo]),
        np.column_stack([data.x_hi, data.y_hi]),
    )
    reference = ExactEvaluator(data, grid_2d)
    for _ in range(30):
        q = random_query(rng, grid_2d)
        nd_counts = nd.estimate(BoxQuery(lo=(q.qx_lo, q.qy_lo), hi=(q.qx_hi, q.qy_hi)))
        assert nd_counts == reference.estimate(q)


def test_3d_intersect_matches_histogram(rng):
    grid = GridND.unit_cells([5, 4, 6])
    lows, highs = _random_boxes(rng, grid, 120)
    evaluator = ExactEvaluator.from_boxes(grid, lows, highs)
    hist = EulerHistogram.from_boxes(grid, lows, highs)
    for _ in range(25):
        lo = tuple(int(rng.integers(0, n)) for n in grid.cells)
        hi = tuple(int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, grid.cells))
        q = BoxQuery(lo=lo, hi=hi)
        assert hist.intersect_count(q) == evaluator.estimate(q).n_intersect


def test_counts_partition(rng):
    grid = GridND.unit_cells([4, 4, 4])
    lows, highs = _random_boxes(rng, grid, 60)
    evaluator = ExactEvaluator.from_boxes(grid, lows, highs)
    q = BoxQuery(lo=(1, 1, 1), hi=(3, 3, 3))
    counts = evaluator.estimate(q)
    assert counts.total == 60
    assert counts.n_cs >= 0 and counts.n_cd >= 0 and counts.n_o >= 0


def test_full_space_query(rng):
    grid = GridND.unit_cells([4, 4, 4])
    lows, highs = _random_boxes(rng, grid, 40)
    evaluator = ExactEvaluator.from_boxes(grid, lows, highs)
    counts = evaluator.estimate(BoxQuery(lo=(0, 0, 0), hi=(4, 4, 4)))
    assert counts.n_cs == 40


def test_validation(rng):
    grid = GridND.unit_cells([4, 4])
    with pytest.raises(ValueError, match="corner arrays"):
        ExactEvaluator.from_boxes(grid, np.zeros((5, 3)), np.zeros((5, 3)))
    evaluator = ExactEvaluator.from_boxes(grid, np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        evaluator.estimate(BoxQuery(lo=(0, 0), hi=(5, 4)))
    assert evaluator.name == "Exact"
