"""Replayable chunk sources: iteration, reread parity, file dispatch."""

import json

import numpy as np
import pytest

from repro.datasets import by_name
from repro.datasets.base import RectDataset
from repro.geometry.rect import Rect
from repro.ingest.chunks import (
    DatasetChunkSource,
    NdjsonChunkSource,
    NpyChunkSource,
    SyntheticChunkSource,
    open_chunk_source,
)


@pytest.fixture
def dataset():
    return by_name("sp_skew", 1000, seed=11)


def _concatenate(source):
    chunks = [chunk for _, chunk in source]
    out = RectDataset.empty(source.extent, name=source.name)
    for chunk in chunks:
        out = out.concatenated(chunk, name=source.name)
    return out, chunks


def _assert_same_rects(a: RectDataset, b: RectDataset):
    np.testing.assert_array_equal(a.x_lo, b.x_lo)
    np.testing.assert_array_equal(a.x_hi, b.x_hi)
    np.testing.assert_array_equal(a.y_lo, b.y_lo)
    np.testing.assert_array_equal(a.y_hi, b.y_hi)


class TestDatasetChunkSource:
    def test_chunks_cover_the_dataset(self, dataset):
        source = DatasetChunkSource(dataset, 128)
        stream, chunks = _concatenate(source)
        assert [len(c) for c in chunks[:-1]] == [128] * (len(chunks) - 1)
        _assert_same_rects(stream, dataset)
        assert source.num_objects == len(dataset)

    def test_reread_matches_iteration(self, dataset):
        source = DatasetChunkSource(dataset, 300)
        for index, chunk in source:
            _assert_same_rects(chunk, source.reread(index))

    def test_reread_out_of_range(self, dataset):
        source = DatasetChunkSource(dataset, 300)
        with pytest.raises(IndexError):
            source.reread(99)

    def test_rejects_bad_chunk_size(self, dataset):
        with pytest.raises(ValueError, match="chunk_size"):
            DatasetChunkSource(dataset, 0)


class TestSyntheticChunkSource:
    def test_stream_is_deterministic(self):
        a = SyntheticChunkSource("sz_skew", 700, 128, seed=5)
        b = SyntheticChunkSource("sz_skew", 700, 128, seed=5)
        _assert_same_rects(a.materialize(), b.materialize())

    def test_chunks_are_independently_replayable(self):
        source = SyntheticChunkSource("sp_skew", 500, 99, seed=2)
        seen = dict(source)
        assert len(seen) == source.num_chunks == 6
        for index, chunk in seen.items():
            _assert_same_rects(chunk, source.reread(index))

    def test_last_chunk_is_short(self):
        source = SyntheticChunkSource("sp_skew", 250, 100, seed=0)
        sizes = [len(chunk) for _, chunk in source]
        assert sizes == [100, 100, 50]

    def test_rejects_unknown_dataset_eagerly(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            SyntheticChunkSource("nope", 100, 10)

    def test_empty_stream(self):
        source = SyntheticChunkSource("sp_skew", 0, 10)
        assert list(source) == []
        assert source.num_chunks == 0


class TestNdjsonChunkSource:
    @pytest.fixture
    def path(self, tmp_path, dataset):
        path = tmp_path / "objs.ndjson"
        with open(path, "w") as fh:
            for i in range(len(dataset)):
                row = [dataset.x_lo[i], dataset.x_hi[i], dataset.y_lo[i], dataset.y_hi[i]]
                if i % 3 == 0:
                    fh.write(json.dumps(dict(zip(("x_lo", "x_hi", "y_lo", "y_hi"), row))))
                else:
                    fh.write(json.dumps(row))
                fh.write("\n")
                if i % 50 == 0:
                    fh.write("\n")  # blank lines are skipped
        return path

    def test_round_trips_records(self, path, dataset):
        source = NdjsonChunkSource(path, 256, extent=dataset.extent)
        stream, _ = _concatenate(source)
        _assert_same_rects(stream, dataset)

    def test_scans_extent_when_not_declared(self, path, dataset):
        source = NdjsonChunkSource(path, 256)
        assert source.extent.x_lo == pytest.approx(float(dataset.x_lo.min()))
        assert source.extent.y_hi == pytest.approx(float(dataset.y_hi.max()))

    def test_reread_seeks_to_recorded_offsets(self, path, dataset):
        source = NdjsonChunkSource(path, 256, extent=dataset.extent)
        seen = dict(source)
        for index, chunk in seen.items():
            _assert_same_rects(chunk, source.reread(index))

    def test_reread_refuses_unseen_chunks(self, path, dataset):
        source = NdjsonChunkSource(path, 256, extent=dataset.extent)
        with pytest.raises(IndexError, match="not been read"):
            source.reread(2)

    def test_reread_refuses_chunks_past_the_last_yielded(self, tmp_path):
        path = tmp_path / "ten.ndjson"
        path.write_text("".join(f"[0, 1, {i}, {i + 1}]\n" for i in range(10)))
        source = NdjsonChunkSource(path, 5, extent=Rect(0, 1, 0, 10))
        stream = iter(source)
        assert next(stream)[0] == 0
        # One yield records where chunk 1 starts, but it was not yielded.
        with pytest.raises(IndexError, match="not been read"):
            source.reread(1)
        rest = list(stream)
        assert [index for index, _ in rest] == [1]
        _assert_same_rects(source.reread(1), rest[0][1])
        # After a full pass, the end-of-file offset is no chunk either.
        with pytest.raises(IndexError, match="not been read"):
            source.reread(2)

    def test_rejects_malformed_record(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("[1, 2, 3]\n")
        source = NdjsonChunkSource(path, 10, extent=Rect(0, 1, 0, 1))
        with pytest.raises(ValueError, match="4 coordinates"):
            list(source)

    def test_empty_file_needs_declared_extent(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        with pytest.raises(ValueError, match="extent"):
            NdjsonChunkSource(path, 10)


class TestNpyChunkSource:
    @pytest.fixture
    def path(self, tmp_path, dataset):
        path = tmp_path / "objs.npy"
        np.save(
            path,
            np.column_stack([dataset.x_lo, dataset.x_hi, dataset.y_lo, dataset.y_hi]),
        )
        return path

    def test_round_trips_rows(self, path, dataset):
        source = NpyChunkSource(path, 333, extent=dataset.extent)
        stream, _ = _concatenate(source)
        _assert_same_rects(stream, dataset)
        assert source.num_objects == len(dataset)

    def test_derives_extent_from_columns(self, path, dataset):
        source = NpyChunkSource(path, 333)
        assert source.extent.x_lo == pytest.approx(float(dataset.x_lo.min()))
        assert source.extent.x_hi == pytest.approx(float(dataset.x_hi.max()))

    def test_reread_matches_iteration(self, path, dataset):
        source = NpyChunkSource(path, 150, extent=dataset.extent)
        for index, chunk in source:
            _assert_same_rects(chunk, source.reread(index))
        with pytest.raises(IndexError):
            source.reread(source.num_chunks)

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((5, 3)))
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            NpyChunkSource(path, 10)


class TestOpenChunkSource:
    def test_dispatches_on_suffix(self, tmp_path, dataset):
        npz = tmp_path / "d.npz"
        dataset.save(npz)
        assert isinstance(open_chunk_source(npz, 100), DatasetChunkSource)

        npy = tmp_path / "d.npy"
        np.save(npy, np.column_stack([dataset.x_lo, dataset.x_hi, dataset.y_lo, dataset.y_hi]))
        assert isinstance(open_chunk_source(npy, 100), NpyChunkSource)

        nd = tmp_path / "d.jsonl"
        nd.write_text("[0.0, 1.0, 0.0, 1.0]\n")
        assert isinstance(open_chunk_source(nd, 100), NdjsonChunkSource)

    def test_npz_rejects_extent_override(self, tmp_path, dataset):
        npz = tmp_path / "d.npz"
        dataset.save(npz)
        with pytest.raises(ValueError, match="extent"):
            open_chunk_source(npz, 100, extent=dataset.extent)

    def test_unknown_suffix(self, tmp_path):
        with pytest.raises(ValueError, match="suffix"):
            open_chunk_source(tmp_path / "d.csv", 100)
