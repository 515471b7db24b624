"""Budgeted zone accumulation, spill records and merge exactness."""

import os
import struct
import zlib

import numpy as np
import pytest

from repro.errors import SummaryCorruptError
from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.ingest.accumulator import (
    RECORD_HEADER,
    ZoneAccumulator,
    ZonePartial,
    load_zone_partial,
)
from repro.ingest.worker import snap_columns
from repro.ingest.zones import ZoneMap
from repro.obs import MetricsRegistry, set_default_registry


@pytest.fixture
def grid():
    return Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)


def _snapped(grid, n=400, seed=7):
    from tests.conftest import random_dataset

    data = random_dataset(np.random.default_rng(seed), grid, n, max_size_cells=4.0)
    return data, snap_columns(grid, data.x_lo, data.x_hi, data.y_lo, data.y_hi)


def _merge_all(grid, partials):
    builder = EulerHistogramBuilder(grid)
    for partial in partials:
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
        merged = _merge_all(grid, acc.finish())
        np.testing.assert_array_equal(merged.buckets(), direct.buckets())
        assert not os.path.exists(acc.spill_path)

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
        # One log holds every spill, its records back to back.
        assert os.listdir(tmp_path) == ["ingest.spill"]
        assert len(acc.spill_records) == acc.spills
        ends = [0] + [offset + length for offset, length in acc.spill_records]
        assert [offset for offset, _ in acc.spill_records] == ends[:-1]
        assert os.path.getsize(acc.spill_path) == ends[-1]
        merged = _merge_all(grid, acc.finish())
        direct = EulerHistogram.from_dataset(data, grid)
        np.testing.assert_array_equal(merged.buckets(), direct.buckets())
        assert merged.num_objects == len(data)
        # The fold deletes the log once every record is folded.
        assert acc.spill_records == [] and os.listdir(tmp_path) == []

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
    def _partial(self, grid, zone=4):
        builder = EulerHistogramBuilder(grid)
        a = np.array([3, 5]); b = np.array([2, 6])
        builder.add_spans(a, a + 2, b, b + 1, np.ones(2, dtype=np.int64))
        patch, count = builder.export_partial(3, 7, 2, 7)
        return ZonePartial(zone=zone, a_lo=3, b_lo=2, patch=patch, num_objects=count)

    def _log(self, path, grid, *partials):
        """Write ``partials`` to one log; returns each record's
        ``(offset, length)``."""
        records = [p.to_record(grid) for p in partials]
        path.write_bytes(b"".join(records))
        offsets = np.cumsum([0] + [len(r) for r in records])
        return [(int(o), len(r)) for o, r in zip(offsets, records)]

    def test_round_trip(self, grid, tmp_path):
        first = self._partial(grid)
        empty = ZonePartial(
            zone=9, a_lo=0, b_lo=1, patch=np.zeros((3, 2), np.int64), num_objects=0
        )
        path = tmp_path / "p.spill"
        spans = self._log(path, grid, first, empty)
        loaded = load_zone_partial(path, grid, *spans[0])
        assert (loaded.zone, loaded.a_lo, loaded.b_lo) == (4, 3, 2)
        assert loaded.num_objects == first.num_objects
        np.testing.assert_array_equal(loaded.patch, first.patch)
        loaded = load_zone_partial(path, grid, *spans[1])
        assert (loaded.zone, loaded.a_lo, loaded.b_lo, loaded.num_objects) == (9, 0, 1, 0)
        np.testing.assert_array_equal(loaded.patch, empty.patch)

    def test_rejects_grid_mismatch(self, grid, tmp_path):
        path = tmp_path / "p.spill"
        (span,) = self._log(path, grid, self._partial(grid))
        other = Grid(grid.extent, grid.n1 // 2, grid.n2)
        with pytest.raises(SummaryCorruptError, match="different grid"):
            load_zone_partial(path, other, *span)
        shifted = Grid(Rect(0.0, 24.0, 0.0, 8.0), grid.n1, grid.n2)
        with pytest.raises(SummaryCorruptError, match="different grid"):
            load_zone_partial(path, shifted, *span)

    def test_rejects_corruption(self, grid, tmp_path):
        """Every single flipped byte -- header, positions, values or
        trailer -- fails the load."""
        path = tmp_path / "p.spill"
        (span,) = self._log(path, grid, self._partial(grid))
        pristine = path.read_bytes()
        entries = (len(pristine) - RECORD_HEADER.size - 4) // 16
        assert entries > 0
        for i in range(len(pristine)):
            rotten = bytearray(pristine)
            rotten[i] ^= 0xFF
            path.write_bytes(rotten)
            with pytest.raises(SummaryCorruptError, match="p.spill"):
                load_zone_partial(path, grid, *span)

    def test_rejects_a_log_cut_mid_record(self, grid, tmp_path):
        path = tmp_path / "p.spill"
        first, second = self._log(path, grid, self._partial(grid), self._partial(grid, 5))
        for cut in (second[0] + 7, second[0] + RECORD_HEADER.size + 3, sum(second) - 1):
            os.truncate(path, cut)
            with pytest.raises(SummaryCorruptError, match="truncated"):
                load_zone_partial(path, grid, *second)
        assert load_zone_partial(path, grid, *first).zone == 4

    def test_rejects_a_length_its_header_disagrees_with(self, grid, tmp_path):
        path = tmp_path / "p.spill"
        first, _ = self._log(path, grid, self._partial(grid), self._partial(grid, 5))
        with pytest.raises(SummaryCorruptError, match="claims"):
            load_zone_partial(path, grid, first[0], first[1] + 16)

    @pytest.mark.parametrize(
        "lie, match",
        [
            ({"a_lo": 30}, "malformed"),
            ({"rows": -1}, "malformed"),
            ({"num_objects": -1}, "malformed"),
            ({"swap": True}, "outside its patch"),
            ({"last": 10**6}, "outside its patch"),
        ],
        ids=[
            "offset-outside-lattice", "negative-shape", "negative-count", "unsorted", "past-patch"
        ],
    )
    def test_rejects_a_sealed_record_that_lies(self, grid, tmp_path, lie, match):
        """A record with a valid checksum is still checked against the
        lattice and its own patch."""
        record = bytearray(self._partial(grid).to_record(grid))
        fields = list(RECORD_HEADER.unpack_from(record))
        names = ("magic", "version", "zone", "a_lo", "b_lo", "rows", "cols", "num_objects")
        for name, value in lie.items():
            if name in names:
                fields[names.index(name)] = value
        RECORD_HEADER.pack_into(record, 0, *fields)
        entries = fields[8]
        positions = np.frombuffer(record, np.int64, entries, RECORD_HEADER.size).copy()
        if lie.get("swap"):
            positions[[0, 1]] = positions[[1, 0]]
        if "last" in lie:
            positions[-1] = lie["last"]
        record[RECORD_HEADER.size : RECORD_HEADER.size + positions.nbytes] = positions.tobytes()
        record[-4:] = struct.pack("=I", zlib.crc32(record[:-4]))
        path = tmp_path / "p.spill"
        path.write_bytes(record)
        with pytest.raises(SummaryCorruptError, match=match):
            load_zone_partial(path, grid, 0, len(record))

    def test_persistence_events(self, grid, tmp_path):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            path = tmp_path / "p.spill"
            (span,) = self._log(path, grid, self._partial(grid))
            load_zone_partial(path, grid, *span)
            pristine = path.read_bytes()
            path.write_bytes(pristine[:-1] + bytes([pristine[-1] ^ 1]))
            with pytest.raises(SummaryCorruptError, match="checksum"):
                load_zone_partial(path, grid, *span)
            path.write_bytes(pristine[:-1])
            with pytest.raises(SummaryCorruptError, match="truncated"):
                load_zone_partial(path, grid, *span)
        finally:
            set_default_registry(previous)
        ops = registry.get("repro_persistence_ops_total")
        kind = "zone partial"
        assert ops.labels(kind=kind, op="save", outcome="ok").value == 1
        assert ops.labels(kind=kind, op="load", outcome="ok").value == 1
        assert ops.labels(kind=kind, op="load", outcome="checksum_mismatch").value == 1
        assert ops.labels(kind=kind, op="load", outcome="unreadable").value == 1


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
