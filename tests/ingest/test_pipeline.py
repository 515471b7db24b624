"""End-to-end zoned builds: bit-parity, the merge pass, reports, metrics."""

import os

import numpy as np
import pytest

import repro.ingest.accumulator as accumulator
from repro.errors import SummaryCorruptError
from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder
from repro.grid.grid import Grid
from repro.ingest import DatasetChunkSource, SyntheticChunkSource, build_zoned
from repro.ingest.accumulator import ZoneAccumulator, ZonePartial
from repro.ingest.pool import IngestWorkerError
from repro.obs import IngestInstrumentation


@pytest.fixture(scope="module")
def source():
    return SyntheticChunkSource("sp_skew", 4000, 512, seed=13)


@pytest.fixture(scope="module")
def grid(source):
    return Grid(source.extent, 60, 30)


@pytest.fixture(scope="module")
def direct(source, grid):
    return EulerHistogram.from_dataset(source.materialize(), grid)


class TestInlineParity:
    @pytest.mark.parametrize("zones", [1, 7, 64, 10**6])
    def test_zone_count_never_changes_the_histogram(self, source, grid, direct, zones):
        result = build_zoned(source, grid, zones=zones, workers=0)
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())
        assert result.histogram.num_objects == direct.num_objects

    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    def test_curve_never_changes_the_histogram(self, source, grid, direct, curve):
        result = build_zoned(source, grid, zones=16, curve=curve)
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())

    def test_tight_budget_spills_and_still_matches(self, source, grid, direct):
        shape = grid.lattice_shape
        builder_mb = ((shape[0] + 1) * (shape[1] + 1) * 8) / (1 << 20)
        memory_mb = max(1, int(np.ceil(2 * builder_mb)))
        result = build_zoned(source, grid, zones=64, memory_mb=memory_mb)
        assert result.report.spills > 0
        assert result.report.peak_accumulator_bytes <= result.report.budget_bytes
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())

    def test_budget_too_small_for_one_builder(self, grid):
        big = Grid(grid.extent, 2000, 2000)
        source = SyntheticChunkSource("sp_skew", 10, 10)
        with pytest.raises(ValueError, match="memory"):
            build_zoned(source, big, memory_mb=1)

    def test_dataset_source_parity(self, source, grid, direct):
        materialized = source.materialize()
        result = build_zoned(DatasetChunkSource(materialized, 700), grid, zones=32)
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())


class TestReport:
    def test_report_accounts_for_every_chunk(self, source, grid):
        result = build_zoned(source, grid, zones=8)
        report = result.report
        assert report.chunks == source.num_chunks
        assert report.chunks_inline == source.num_chunks
        assert report.chunks_pool == report.chunks_replayed == 0
        assert report.workers == 0 and report.crashes == 0
        assert report.objects == 4000
        assert report.zones == 8 and report.curve == "morton"
        assert report.objects_per_second > 0
        doc = report.to_dict()
        assert doc["objects"] == 4000 and doc["source"] == "sp_skew"

    def test_instruments_record_the_build(self, source, grid):
        obs = IngestInstrumentation()
        build_zoned(source, grid, zones=8, instruments=obs)
        assert obs.objects.labels(source="sp_skew").value == 4000
        assert obs.chunks.labels(source="sp_skew", path="inline").value == source.num_chunks
        assert obs.chunks.labels(source="sp_skew", path="pool").value == 0
        assert obs.peak_accumulator_bytes.labels(source="sp_skew").value > 0
        assert obs.objects_per_second.labels(source="sp_skew").value > 0


class TestMergePass:
    def test_each_spilled_partial_is_folded_before_the_next_loads(
        self, source, grid, direct, monkeypatch
    ):
        """The accumulator's fold holds one reloaded partial at a time:
        every ``load_zone_partial`` is followed by the ``add_partial`` of
        the patch it loaded before the next load, and the histogram is
        still bit-identical to the direct build."""
        events: list[tuple[str, int]] = []
        load = accumulator.load_zone_partial
        add = EulerHistogramBuilder.add_partial

        def traced_load(path, grid, offset, length):
            partial = load(path, grid, offset, length)
            events.append(("load", id(partial.patch)))
            return partial

        def traced_add(self, a_lo, b_lo, patch, num_objects):
            events.append(("add", id(patch)))
            return add(self, a_lo, b_lo, patch, num_objects)

        monkeypatch.setattr(accumulator, "load_zone_partial", traced_load)
        monkeypatch.setattr(EulerHistogramBuilder, "add_partial", traced_add)
        shape = grid.lattice_shape
        builder_mb = ((shape[0] + 1) * (shape[1] + 1) * 8) / (1 << 20)
        result = build_zoned(
            source, grid, zones=64, memory_mb=max(1, int(np.ceil(2 * builder_mb)))
        )
        loads = [i for i, (kind, _) in enumerate(events) if kind == "load"]
        assert len(loads) == result.report.spills >= 2
        for i in loads:
            assert events[i + 1] == ("add", events[i][1])
        np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())
        assert result.histogram.num_objects == direct.num_objects


class TestSpillDirOwnership:
    def test_caller_provided_dir_is_kept_but_cleaned(self, source, grid, tmp_path):
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        keep = spill_dir / "unrelated.npz"
        keep.write_bytes(b"not ours")
        shape = grid.lattice_shape
        builder_mb = ((shape[0] + 1) * (shape[1] + 1) * 8) / (1 << 20)
        result = build_zoned(
            source,
            grid,
            zones=64,
            memory_mb=max(1, int(np.ceil(2 * builder_mb))),
            spill_dir=spill_dir,
        )
        assert result.report.spills > 0
        assert spill_dir.is_dir()
        assert list(spill_dir.iterdir()) == [keep]

    def test_failed_build_leaves_no_spill_in_callers_dir(self, grid, tmp_path, monkeypatch):
        """A build that dies mid-stream deletes the spills it wrote, not
        only those of a build that reached its merge."""
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        keep = spill_dir / "unrelated.npz"
        keep.write_bytes(b"not ours")
        saves = []
        to_record = ZonePartial.to_record

        def counted_to_record(self, grid):
            saves.append(self.zone)
            return to_record(self, grid)

        monkeypatch.setattr(ZonePartial, "to_record", counted_to_record)
        source = _FailsAtChunk(SyntheticChunkSource("sp_skew", 4000, 500, seed=1), 6)
        with pytest.raises(OSError, match="chunk 6"):
            build_zoned(source, grid, zones=64, memory_mb=1, spill_dir=spill_dir)
        assert saves
        assert list(spill_dir.iterdir()) == [keep]


class _FailsAtChunk:
    """A chunk source whose stream breaks with a read error at one chunk."""

    def __init__(self, inner, index):
        self._inner = inner
        self._index = index
        self.name = inner.name
        self.chunk_size = inner.chunk_size
        self.extent = inner.extent

    def __iter__(self):
        for index, chunk in self._inner:
            if index == self._index:
                raise OSError(f"read error at chunk {index}")
            yield index, chunk

    def reread(self, index):
        return self._inner.reread(index)


class TestCorruptSpill:
    @pytest.mark.parametrize(
        "workers, error",
        [
            (0, SummaryCorruptError),
            pytest.param(
                2,
                IngestWorkerError,
                marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork"),
            ),
        ],
        ids=["inline", "fork-pool"],
    )
    def test_spill_corrupted_after_writing_aborts_the_build(
        self, source, grid, tmp_path, monkeypatch, workers, error
    ):
        """Bit rot in a spill record fails the build where the spill is
        folded -- inline or in a worker -- and is never skipped; no spill
        log stays behind."""
        spill = ZoneAccumulator._spill

        def spill_then_rot(self, zone):
            spill(self, zone)
            # Flip the byte before the trailer: the record's last value.
            offset, length = self.spill_records[-1]
            with open(self.spill_path, "r+b") as log:
                log.seek(offset + length - 5)
                byte = log.read(1)[0]
                log.seek(offset + length - 5)
                log.write(bytes([byte ^ 0xFF]))

        monkeypatch.setattr(ZoneAccumulator, "_spill", spill_then_rot)
        with pytest.raises(error, match="SummaryCorruptError|zone partial"):
            build_zoned(
                source, grid, zones=64, memory_mb=1, workers=workers,
                start_method="fork", spill_dir=tmp_path,
            )
        assert list(tmp_path.iterdir()) == []
