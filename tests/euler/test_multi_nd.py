"""Tests for M-EulerApprox in d dimensions."""

import numpy as np
import pytest

from repro.datasets.base import RectDataset
from repro.euler.full import EulerApprox
from repro.euler.histogram import EulerHistogram
from repro.euler.multi import MEulerApprox
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND

from tests.conftest import random_dataset


def _random_boxes(rng, grid, m, max_frac=0.5):
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


def test_2d_matches_specialised_m_euler(rng):
    grid_nd = GridND.unit_cells([8, 6])
    grid_2d = Grid(Rect(0.0, 8.0, 0.0, 6.0), 8, 6)
    data = random_dataset(rng, grid_2d, 150, degenerate_fraction=0.2)
    nd = MEulerApprox.from_boxes(
        grid_nd,
        np.column_stack([data.x_lo, data.y_lo]),
        np.column_stack([data.x_hi, data.y_hi]),
        [1.0, 4.0, 16.0],
    )
    reference = MEulerApprox(data, grid_2d, [1.0, 4.0, 16.0])
    from repro.grid.tiles_math import TileQuery

    for _ in range(25):
        q = _random_query(rng, grid_nd)
        q2 = TileQuery(q.lo[0], q.hi[0], q.lo[1], q.hi[1])
        nd_counts = nd.estimate(q)
        ref_counts = reference.estimate(q2)
        assert nd_counts == ref_counts


def test_3d_containers_and_smalls(rng):
    grid = GridND.unit_cells([6, 6, 6])
    small_lo, small_hi = _random_boxes(rng, grid, 50, max_frac=0.15)
    big_lo = np.full((4, 3), 0.4)
    big_hi = np.full((4, 3), 5.6)
    lows = np.vstack([small_lo, big_lo])
    highs = np.vstack([small_hi, big_hi])

    multi = MEulerApprox.from_boxes(grid, lows, highs, [1.0, 27.0])
    exact = ExactEvaluator.from_boxes(grid, lows, highs)
    q = BoxQuery(lo=(2, 2, 2), hi=(4, 4, 4))  # volume 8 < 27
    truth = exact.estimate(q)
    counts = multi.estimate(q)
    assert truth.n_cd == 4
    assert counts.n_d == truth.n_d
    assert counts.n_cd == pytest.approx(truth.n_cd)
    assert counts.n_o == pytest.approx(truth.n_o)


def test_3d_invariants_on_random_queries(rng):
    grid = GridND.unit_cells([5, 4, 6])
    lows, highs = _random_boxes(rng, grid, 80)
    multi = MEulerApprox.from_boxes(grid, lows, highs, [1.0, 8.0, 64.0])
    exact = ExactEvaluator.from_boxes(grid, lows, highs)
    for _ in range(15):
        q = _random_query(rng, grid)
        truth = exact.estimate(q)
        counts = multi.estimate(q)
        assert counts.n_d == truth.n_d
        assert counts.total == pytest.approx(80.0)


def test_m1_equals_full_nd(rng):
    grid = GridND.unit_cells([5, 5, 5])
    lows, highs = _random_boxes(rng, grid, 60)
    multi = MEulerApprox.from_boxes(grid, lows, highs, [1.0])
    single = EulerApprox(EulerHistogram.from_boxes(grid, lows, highs))
    for _ in range(15):
        q = _random_query(rng, grid)
        assert multi.estimate(q) == single.estimate(q)


def test_validation(rng):
    grid = GridND.unit_cells([4, 4])
    with pytest.raises(ValueError, match="corner arrays"):
        MEulerApprox.from_boxes(grid, np.zeros((3, 3)), np.zeros((3, 3)), [1.0])
    with pytest.raises(ValueError, match="unit cell"):
        MEulerApprox.from_boxes(grid, np.zeros((0, 2)), np.zeros((0, 2)), [2.0])
    multi = MEulerApprox.from_boxes(grid, np.zeros((0, 2)), np.zeros((0, 2)), [1.0, 4.0])
    assert multi.name == "M-EulerApprox(m=2)"
    assert multi.area_thresholds == (1.0, 4.0)
    assert multi.num_objects == 0
