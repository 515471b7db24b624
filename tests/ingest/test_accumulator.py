"""Budgeted zone accumulation, spill round-trips and merge exactness."""

import zipfile

import numpy as np
import pytest

from repro.errors import SummaryCorruptError
from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.ingest.accumulator import ZoneAccumulator, ZonePartial, load_zone_partial
from repro.ingest.worker import snap_columns
from repro.ingest.zones import ZoneMap

from tests.conftest import flip_npz_member_byte


@pytest.fixture
def grid():
    return Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)


def _snapped(grid, n=400, seed=7):
    from tests.conftest import random_dataset

    data = random_dataset(np.random.default_rng(seed), grid, n, max_size_cells=4.0)
    return data, snap_columns(grid, data.x_lo, data.x_hi, data.y_lo, data.y_hi)


def _merge_all(grid, partials, spill_paths):
    builder = EulerHistogramBuilder(grid)
    for partial in partials:
        builder.add_partial(partial.a_lo, partial.b_lo, partial.patch, partial.num_objects)
    for path in spill_paths:
        partial = load_zone_partial(path, grid)
        builder.add_partial(partial.a_lo, partial.b_lo, partial.patch, partial.num_objects)
    return builder.build()


class TestZoneAccumulator:
    def test_budget_must_hold_one_builder(self, grid, tmp_path):
        with pytest.raises(ValueError, match="memory budget"):
            ZoneAccumulator(grid, 10, tmp_path)

    def test_no_spills_under_generous_budget(self, grid, tmp_path):
        data, (a_lo, a_hi, b_lo, b_hi) = _snapped(grid)
        zone_map = ZoneMap.for_grid(grid, 8)
        acc = ZoneAccumulator(grid, 1 << 24, tmp_path)
        acc.add_spans(zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi), a_lo, a_hi, b_lo, b_hi)
        assert acc.spills == 0
        assert acc.objects == len(data)
        direct = EulerHistogram.from_dataset(data, grid)
        merged = _merge_all(grid, acc.finish(), acc.spill_paths)
        np.testing.assert_array_equal(merged.buckets(), direct.buckets())

    def test_tight_budget_spills_but_merges_exactly(self, grid, tmp_path):
        data, (a_lo, a_hi, b_lo, b_hi) = _snapped(grid, n=600)
        zone_map = ZoneMap.for_grid(grid, 16)
        acc = ZoneAccumulator(grid, 2 * acc_builder_bytes(grid), tmp_path)
        # Feed in small batches to force builder churn across zones.
        zones = zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi)
        for start in range(0, len(data), 25):
            s = slice(start, start + 25)
            acc.add_spans(zones[s], a_lo[s], a_hi[s], b_lo[s], b_hi[s])
        assert acc.spills > 0
        # The budget is an invariant, not a soft target.
        assert acc.peak_bytes <= 2 * acc_builder_bytes(grid)
        assert all(p.endswith(".npz") for p in acc.spill_paths)
        merged = _merge_all(grid, acc.finish(), acc.spill_paths)
        direct = EulerHistogram.from_dataset(data, grid)
        np.testing.assert_array_equal(merged.buckets(), direct.buckets())
        assert merged.num_objects == len(data)

    def test_budget_caps_live_bytes(self, grid, tmp_path):
        data, (a_lo, a_hi, b_lo, b_hi) = _snapped(grid, n=600)
        zone_map = ZoneMap.for_grid(grid, 16)
        budget = 3 * acc_builder_bytes(grid)
        acc = ZoneAccumulator(grid, budget, tmp_path)
        zones = zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi)
        for start in range(0, len(data), 10):
            s = slice(start, start + 10)
            acc.add_spans(zones[s], a_lo[s], a_hi[s], b_lo[s], b_hi[s])
            assert acc.live_bytes <= budget
        acc.finish()
        assert acc.live_zones == 0

    def test_empty_batch_is_a_noop(self, grid, tmp_path):
        acc = ZoneAccumulator(grid, 1 << 24, tmp_path)
        empty = np.array([], dtype=np.int64)
        acc.add_spans(empty, empty, empty, empty, empty)
        assert acc.objects == 0 and acc.live_zones == 0


def acc_builder_bytes(grid):
    shape = grid.lattice_shape
    return (shape[0] + 1) * (shape[1] + 1) * 8


class TestZonePartialPersistence:
    def _partial(self, grid):
        builder = EulerHistogramBuilder(grid)
        a = np.array([3, 5]); b = np.array([2, 6])
        builder.add_spans(a, a + 2, b, b + 1, np.ones(2, dtype=np.int64))
        patch, count = builder.export_partial(3, 7, 2, 7)
        return ZonePartial(zone=4, a_lo=3, b_lo=2, patch=patch, num_objects=count)

    def test_round_trip(self, grid, tmp_path):
        partial = self._partial(grid)
        path = tmp_path / "p.npz"
        partial.save(path, grid)
        loaded = load_zone_partial(path, grid)
        assert (loaded.zone, loaded.a_lo, loaded.b_lo) == (4, 3, 2)
        assert loaded.num_objects == partial.num_objects
        np.testing.assert_array_equal(loaded.patch, partial.patch)

    def test_rejects_grid_mismatch(self, grid, tmp_path):
        partial = self._partial(grid)
        path = tmp_path / "p.npz"
        partial.save(path, grid)
        other = Grid(grid.extent, grid.n1 // 2, grid.n2)
        with pytest.raises(SummaryCorruptError, match="different grid"):
            load_zone_partial(path, other)
        shifted = Grid(Rect(0.0, 24.0, 0.0, 8.0), grid.n1, grid.n2)
        with pytest.raises(SummaryCorruptError, match="different grid"):
            load_zone_partial(path, shifted)

    def test_rejects_corruption(self, grid, tmp_path):
        partial = self._partial(grid)
        path = tmp_path / "p.npz"
        partial.save(path, grid)
        pristine = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            members = [
                name for name in archive.namelist()
                if name not in ("checksum.npy", "format_version.npy")
            ]
        assert "values.npy" in members and "positions.npy" in members
        for member in members:
            path.write_bytes(pristine)
            flip_npz_member_byte(path, member)
            with pytest.raises(SummaryCorruptError):
                load_zone_partial(path, grid)


class TestBuilderMergeApi:
    """Satellite coverage: merge/partial/dtype hygiene on the builder."""

    def test_merge_is_bit_exact(self, grid):
        data, (a_lo, a_hi, b_lo, b_hi) = _snapped(grid, n=500)
        whole = EulerHistogramBuilder(grid)
        whole.add_dataset(data)
        left = EulerHistogramBuilder(grid)
        right = EulerHistogramBuilder(grid)
        half = len(data) // 2
        ones = np.ones(half, dtype=np.int64)
        left.add_spans(a_lo[:half], a_hi[:half], b_lo[:half], b_hi[:half], ones)
        right.add_spans(
            a_lo[half:], a_hi[half:], b_lo[half:], b_hi[half:],
            np.ones(len(data) - half, dtype=np.int64),
        )
        left.merge(right)
        np.testing.assert_array_equal(left.build().buckets(), whole.build().buckets())
        # `right` stays usable after being merged from.
        assert right.build().num_objects == len(data) - half

    def test_merge_rejects_grid_mismatch(self, grid):
        other = Grid(grid.extent, grid.n1, grid.n2 * 2)
        with pytest.raises(ValueError, match="different grids"):
            EulerHistogramBuilder(grid).merge(EulerHistogramBuilder(other))

    def test_export_import_partial_round_trip(self, grid):
        data, (a_lo, a_hi, b_lo, b_hi) = _snapped(grid, n=300)
        builder = EulerHistogramBuilder(grid)
        builder.add_spans(a_lo, a_hi, b_lo, b_hi, np.ones(len(data), dtype=np.int64))
        bbox = (
            int(a_lo.min()), int(a_hi.max()), int(b_lo.min()), int(b_hi.max())
        )
        patch, count = builder.export_partial(*bbox)
        rebuilt = EulerHistogramBuilder(grid)
        rebuilt.add_partial(bbox[0], bbox[2], patch, count)
        np.testing.assert_array_equal(rebuilt.build().buckets(), builder.build().buckets())

    def test_add_partial_rejects_negative_count(self, grid):
        builder = EulerHistogramBuilder(grid)
        with pytest.raises(ValueError, match="non-negative"):
            builder.add_partial(0, 0, np.zeros((2, 2), dtype=np.int64), -1)

    def test_float_span_arrays_raise(self, grid):
        builder = EulerHistogramBuilder(grid)
        a = np.array([1.0]); w = np.ones(1, dtype=np.int64)
        ai = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            builder.add_spans(a, ai, ai, ai, w)
        with pytest.raises(ValueError):
            builder.add_spans(ai, ai, ai, ai, np.array([1.5]))

    def test_accumulator_nbytes_matches_budget_formula(self, grid):
        builder = EulerHistogramBuilder(grid)
        assert builder.accumulator_nbytes == acc_builder_bytes(grid)
