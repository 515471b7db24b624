"""Tests for Euler histogram construction and region sums."""

import numpy as np
import pytest

from repro.datasets.base import RectDataset
from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

from tests.conftest import brute_force_counts, random_dataset, random_query


@pytest.fixture
def grid():
    return Grid(Rect(0.0, 6.0, 0.0, 4.0), 6, 4)


def _dataset(grid, rects):
    return RectDataset.from_rects(rects, grid.extent)


class TestConstruction:
    def test_figure_6_one_big_object(self, grid):
        # One object spanning cells [1,3) x [1,3): the 3x3 lattice block
        # around the crossed lines gets filled, edges negated.
        hist = EulerHistogram.from_dataset(_dataset(grid, [Rect(1.0, 3.0, 1.0, 3.0)]), grid)
        buckets = hist.buckets()
        block = buckets[2:5, 2:5]
        expected = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]])
        np.testing.assert_array_equal(block, expected)
        assert buckets.sum() == 1
        assert np.count_nonzero(buckets) == 9

    def test_figure_6_four_small_objects(self, grid):
        # Four per-cell objects in the same 2x2 cell block: only faces are
        # touched -- the histogram differs from the one-big-object case,
        # which is the whole point of keeping edge/vertex buckets.
        rects = [
            Rect(1.2, 1.8, 1.2, 1.8),
            Rect(2.2, 2.8, 1.2, 1.8),
            Rect(1.2, 1.8, 2.2, 2.8),
            Rect(2.2, 2.8, 2.2, 2.8),
        ]
        hist = EulerHistogram.from_dataset(_dataset(grid, rects), grid)
        buckets = hist.buckets()
        assert buckets.sum() == 4
        assert (buckets[3, :] == 0).all()  # the grid line x=2 is untouched
        assert buckets[2, 2] == 1 and buckets[4, 4] == 1

    def test_total_sum_counts_objects(self, grid, rng):
        data = random_dataset(rng, grid, 300)
        hist = EulerHistogram.from_dataset(data, grid)
        assert hist.total_sum == 300
        assert hist.num_objects == 300

    def test_empty_dataset(self, grid):
        hist = EulerHistogram.from_dataset(RectDataset.empty(grid.extent), grid)
        assert hist.total_sum == 0
        assert hist.intersect_count(TileQuery(0, 6, 0, 4)) == 0

    def test_num_buckets(self, grid):
        hist = EulerHistogram.from_dataset(RectDataset.empty(grid.extent), grid)
        assert hist.num_buckets == 11 * 7

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError, match="lattice"):
            EulerHistogram(grid, np.zeros((3, 3)), 0)

    def test_buckets_view_is_read_only(self, grid):
        hist = EulerHistogram.from_dataset(RectDataset.empty(grid.extent), grid)
        with pytest.raises(ValueError):
            hist.buckets()[0, 0] = 5


class TestBuilder:
    def test_incremental_matches_batch(self, grid, rng):
        data = random_dataset(rng, grid, 120)
        batch = EulerHistogram.from_dataset(data, grid)
        builder = EulerHistogramBuilder(grid)
        for rect in data:
            builder.add(rect)
        incremental = builder.build()
        np.testing.assert_array_equal(batch.buckets(), incremental.buckets())
        assert incremental.num_objects == 120

    def test_remove_restores_state(self, grid):
        builder = EulerHistogramBuilder(grid)
        obj = Rect(0.5, 3.5, 0.5, 3.5)
        builder.add(Rect(1.0, 2.0, 1.0, 2.0))
        before = builder.build().buckets().copy()
        builder.add(obj)
        builder.add(obj, weight=-1)
        np.testing.assert_array_equal(builder.build().buckets(), before)
        assert builder.num_objects == 1

    def test_builder_usable_after_build(self, grid):
        builder = EulerHistogramBuilder(grid)
        builder.add(Rect(0.5, 1.5, 0.5, 1.5))
        first = builder.build()
        builder.add(Rect(2.5, 3.5, 2.5, 3.5))
        second = builder.build()
        assert first.total_sum == 1
        assert second.total_sum == 2

    def test_remove_from_empty_builder_rejected(self, grid):
        builder = EulerHistogramBuilder(grid)
        with pytest.raises(ValueError, match="negative"):
            builder.add(Rect(0.5, 1.5, 0.5, 1.5), weight=-1)
        # The guard fires before the accumulator is touched: the builder
        # still produces a pristine empty histogram.
        hist = builder.build()
        assert builder.num_objects == 0
        assert hist.total_sum == 0
        assert np.count_nonzero(hist.buckets()) == 0

    def test_over_removal_rejected(self, grid):
        builder = EulerHistogramBuilder(grid)
        builder.add(Rect(0.5, 1.5, 0.5, 1.5))
        builder.add(Rect(0.5, 1.5, 0.5, 1.5), weight=-1)
        with pytest.raises(ValueError, match="negative"):
            builder.add(Rect(2.5, 3.5, 2.5, 3.5), weight=-1)
        assert builder.num_objects == 0

    def test_negative_bulk_weight_rejected(self, grid):
        builder = EulerHistogramBuilder(grid)
        builder.add(Rect(0.5, 1.5, 0.5, 1.5))
        builder.add(Rect(1.5, 2.5, 1.5, 2.5))
        with pytest.raises(ValueError, match="negative"):
            builder.add(Rect(0.5, 1.5, 0.5, 1.5), weight=-3)
        assert builder.num_objects == 2
        assert builder.build().total_sum == 2


class TestRegionSums:
    def test_intersect_count_is_exact(self, grid, rng):
        data = random_dataset(rng, grid, 150)
        hist = EulerHistogram.from_dataset(data, grid)
        for _ in range(30):
            q = random_query(rng, grid)
            expected = brute_force_counts(data, grid, q).n_intersect
            assert hist.intersect_count(q) == expected

    def test_outside_sum_without_containers_or_crossovers(self, grid):
        # Small objects, none containing or crossing the query: the
        # outside sum is exactly the number of objects meeting the
        # query's exterior.
        rects = [
            Rect(0.2, 0.8, 0.2, 0.8),     # disjoint, fully outside
            Rect(1.5, 2.5, 1.5, 2.5),     # overlaps the query boundary
            Rect(2.2, 2.8, 2.2, 2.8),     # inside the query
        ]
        hist = EulerHistogram.from_dataset(_dataset(grid, rects), grid)
        q = TileQuery(2, 5, 2, 4)
        assert hist.outside_sum(q) == 2

    def test_loophole_effect(self, grid):
        # An object containing the query contributes 0 to the outside sum
        # (Figure 10): its exterior footprint is an annulus.
        hist = EulerHistogram.from_dataset(_dataset(grid, [Rect(0.5, 5.5, 0.5, 3.5)]), grid)
        q = TileQuery(2, 4, 1, 3)
        assert hist.intersect_count(q) == 1
        assert hist.outside_sum(q) == 0

    def test_crossover_double_count(self, grid):
        # An object crossing the query horizontally (Figure 9(b)) counts
        # twice in the outside sum.
        hist = EulerHistogram.from_dataset(_dataset(grid, [Rect(0.5, 5.5, 1.2, 1.8)]), grid)
        q = TileQuery(2, 4, 0, 4)
        assert hist.intersect_count(q) == 1
        assert hist.outside_sum(q) == 2

    def test_contained_count_on_boundary_region(self, grid):
        rects = [Rect(0.2, 0.8, 0.2, 0.8), Rect(0.5, 2.5, 0.5, 2.5), Rect(4.0, 5.0, 1.0, 2.0)]
        hist = EulerHistogram.from_dataset(_dataset(grid, rects), grid)
        # Region touching the data-space corner: contained counts exact.
        region = TileQuery(0, 3, 0, 3)
        assert hist.contained_count(region) == 2

    def test_closed_region_sum_full_space(self, grid, rng):
        data = random_dataset(rng, grid, 80)
        hist = EulerHistogram.from_dataset(data, grid)
        q = TileQuery(0, 6, 0, 4)
        assert hist.closed_region_sum(q) == hist.total_sum
        assert hist.outside_sum(q) == 0

    def test_empty_lattice_range_sums_zero(self, grid):
        hist = EulerHistogram.from_dataset(_dataset(grid, [Rect(1.0, 2.0, 1.0, 2.0)]), grid)
        assert hist.lattice_range_sum((5, 0), (4, 3)) == 0


class TestDegenerateObjects:
    def test_point_counts_in_its_cell(self, grid):
        hist = EulerHistogram.from_dataset(_dataset(grid, [Rect.point(2.5, 1.5)]), grid)
        assert hist.intersect_count(TileQuery(2, 3, 1, 2)) == 1
        assert hist.intersect_count(TileQuery(0, 2, 0, 4)) == 0

    def test_point_on_grid_line_lower_cell(self, grid):
        hist = EulerHistogram.from_dataset(_dataset(grid, [Rect.point(2.0, 1.0)]), grid)
        assert hist.intersect_count(TileQuery(2, 3, 1, 2)) == 1
        assert hist.intersect_count(TileQuery(1, 2, 1, 2)) == 0

    def test_segment_spanning_cells(self, grid):
        hist = EulerHistogram.from_dataset(_dataset(grid, [Rect(0.5, 3.5, 1.5, 1.5)]), grid)
        assert hist.intersect_count(TileQuery(0, 6, 1, 2)) == 1
        # The segment crosses lines x=1,2,3; its footprint is cells 0..3.
        assert hist.intersect_count(TileQuery(3, 4, 1, 2)) == 1
        assert hist.intersect_count(TileQuery(4, 5, 1, 2)) == 0
