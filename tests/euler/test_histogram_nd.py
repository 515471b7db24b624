"""Tests for the Euler histogram in 1, 3 and 4 dimensions against brute
force, and for its agreement with the 2-d build path."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.datasets.base import RectDataset
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND
from repro.grid.lattice import lattice_sign
from repro.grid.tiles_math import TileQuery


def _random_boxes(rng, grid: GridND, m: int):
    """(M, d) open boxes inside the grid (cell units == world units)."""
    d = grid.ndim
    lows = np.empty((m, d))
    highs = np.empty((m, d))
    for k in range(d):
        size = rng.uniform(0.0, grid.cells[k], size=m)
        lo = rng.uniform(0.0, grid.cells[k] - size)
        lows[:, k] = lo
        highs[:, k] = lo + size
    return lows, highs


def _brute_counts(lows, highs, grid: GridND, query: BoxQuery):
    """Scalar per-axis predicates on snapped cell blocks."""
    n_int = n_cs = n_cd = 0
    for obj in range(lows.shape[0]):
        inter = within = covers = True
        for k in range(grid.ndim):
            lo, hi = lows[obj, k], highs[obj, k]
            c_lo = min(int(np.floor(lo)), grid.cells[k] - 1)
            c_hi = max(int(np.ceil(hi)) - 1, c_lo)
            q_lo, q_hi = query.lo[k], query.hi[k]
            inter &= c_lo <= q_hi - 1 and c_hi >= q_lo
            within &= c_lo >= q_lo and c_hi <= q_hi - 1
            covers &= c_lo < q_lo and c_hi >= q_hi
        n_int += inter
        n_cs += inter and within
        n_cd += inter and covers
    return n_int, n_cs, n_cd


class TestSignArray:
    def test_2d_matches_lattice_sign_matrix(self):
        # Section 5.1's 2-d pattern: edges (one odd coordinate) negated.
        a = np.arange(7)[:, None] % 2
        b = np.arange(5)[None, :] % 2
        np.testing.assert_array_equal(lattice_sign((7, 5)), 1 - 2 * (a ^ b))

    def test_3d_alternation(self):
        sign = lattice_sign((3, 3, 3))
        assert sign[0, 0, 0] == 1   # cell
        assert sign[1, 0, 0] == -1  # face
        assert sign[1, 1, 0] == 1   # edge
        assert sign[1, 1, 1] == -1  # vertex

    def test_total_is_one(self):
        # Interior Euler characteristic of the full grid block is 1 in
        # any dimension.
        for shape in [(5,), (5, 7), (3, 5, 7), (3, 3, 3, 3)]:
            assert int(lattice_sign(shape).sum()) == 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize("cells", [(8,), (6, 4), (4, 3, 3)])
    def test_intersect_exact(self, cells):
        rng = np.random.default_rng(42)
        grid = GridND.unit_cells(cells)
        lows, highs = _random_boxes(rng, grid, 80)
        hist = EulerHistogram.from_boxes(grid, lows, highs)
        assert hist.total_sum == 80

        for _ in range(20):
            lo = tuple(int(rng.integers(0, n)) for n in cells)
            hi = tuple(int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, cells))
            q = BoxQuery(lo=lo, hi=hi)
            n_int, _, _ = _brute_counts(lows, highs, grid, q)
            assert hist.intersect_count(q) == n_int

    @pytest.mark.parametrize("cells", [(8,), (6, 4), (4, 3, 3)])
    def test_s_euler_exact_for_subcell_objects(self, cells):
        rng = np.random.default_rng(7)
        grid = GridND.unit_cells(cells)
        d = grid.ndim
        m = 60
        lows = np.empty((m, d))
        highs = np.empty((m, d))
        for k in range(d):
            lo = rng.uniform(0.0, grid.cells[k] - 0.9, size=m)
            lows[:, k] = lo
            highs[:, k] = lo + rng.uniform(0.0, 0.9, size=m)
        estimator = SEulerApprox(EulerHistogram.from_boxes(grid, lows, highs))

        for _ in range(15):
            lo = tuple(int(rng.integers(0, n)) for n in cells)
            hi = tuple(int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, cells))
            q = BoxQuery(lo=lo, hi=hi)
            n_int, n_cs, n_cd = _brute_counts(lows, highs, grid, q)
            assert n_cd == 0
            counts = estimator.estimate(q)
            assert counts.n_cs == n_cs
            assert counts.n_d == m - n_int
            assert counts.n_o == n_int - n_cs

    def test_2d_agrees_with_specialised_histogram(self):
        rng = np.random.default_rng(3)
        grid_nd = GridND.unit_cells([6, 4])
        grid_2d = Grid(Rect(0.0, 6.0, 0.0, 4.0), 6, 4)
        lows, highs = _random_boxes(rng, grid_nd, 100)
        hist_nd = EulerHistogram.from_boxes(grid_nd, lows, highs)
        data = RectDataset(lows[:, 0], highs[:, 0], lows[:, 1], highs[:, 1], grid_2d.extent)
        hist_2d = EulerHistogram.from_dataset(data, grid_2d)

        np.testing.assert_array_equal(hist_nd.buckets(), hist_2d.buckets())
        for qx_lo, qy_lo in itertools.product(range(6), range(4)):
            for qx_hi, qy_hi in itertools.product(range(qx_lo + 1, 7), range(qy_lo + 1, 5)):
                q2 = TileQuery(qx_lo, qx_hi, qy_lo, qy_hi)
                qn = BoxQuery(lo=(qx_lo, qy_lo), hi=(qx_hi, qy_hi))
                assert hist_nd.intersect_count(qn) == hist_2d.intersect_count(q2)
                assert hist_nd.outside_sum(qn) == hist_2d.outside_sum(q2)


class TestLoopholeInHigherDimensions:
    @pytest.mark.parametrize(
        "cells,expected_outside",
        [
            ((9,), 2),          # 1-d: container = two exterior segments
            ((9, 9), 0),        # 2-d: the paper's loophole (annulus -> 0)
            ((9, 9, 9), 2),     # 3-d shell sums to 2
            ((5, 5, 5, 5), 0),  # 4-d: even dimension -> 0 again
        ],
    )
    def test_container_contribution_alternates_with_dimension(
        self, cells, expected_outside
    ):
        """A containing object's contribution to the outside sum is
        ``1 - (-1)^d``: the closed query region's signed sum under full
        coverage telescopes per axis to ``-1``, giving ``(-1)^d`` overall.
        The paper's loophole effect (contribution 0) is thus specific to
        even dimensions; in odd dimensions containers are *double*
        counted instead of dropped."""
        grid = GridND.unit_cells(cells)
        d = len(cells)
        lows = np.full((1, d), 0.5)
        highs = np.array([[n - 0.5 for n in cells]])
        hist = EulerHistogram.from_boxes(grid, lows, highs)
        center = tuple(n // 2 for n in cells)
        q = BoxQuery(lo=center, hi=tuple(c + 1 for c in center))
        assert hist.intersect_count(q) == 1
        assert hist.outside_sum(q) == expected_outside


class TestValidation:
    def test_shape_mismatch(self):
        grid = GridND.unit_cells([4, 4])
        with pytest.raises(ValueError, match="lattice"):
            EulerHistogram(grid, np.zeros((3, 3)), 0)

    def test_bad_corner_arrays(self):
        grid = GridND.unit_cells([4, 4])
        with pytest.raises(ValueError, match="corner arrays"):
            EulerHistogram.from_boxes(grid, np.zeros((3, 3)), np.zeros((3, 3)))

    def test_name(self):
        grid = GridND.unit_cells([4, 4, 4])
        hist = EulerHistogram.from_boxes(grid, np.zeros((0, 3)), np.zeros((0, 3)))
        assert SEulerApprox(hist).name == "S-EulerApprox"
        assert hist.num_buckets == 7 * 7 * 7
