"""Tests for Euler histogram persistence."""

import numpy as np
import pytest

from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.grid_nd import GridND

from tests.conftest import random_dataset, random_query


@pytest.fixture
def grid():
    return Grid(Rect(-10.0, 30.0, 5.0, 25.0), 8, 10)


def test_save_load_roundtrip(grid, rng, tmp_path):
    data = random_dataset(rng, grid, 120)
    original = EulerHistogram.from_dataset(data, grid)
    path = tmp_path / "hist.npz"
    original.save(path)

    loaded = EulerHistogram.load(path)
    assert loaded.num_objects == original.num_objects
    assert loaded.grid == grid
    np.testing.assert_array_equal(loaded.buckets(), original.buckets())


def test_loaded_histogram_answers_queries(grid, rng, tmp_path):
    data = random_dataset(rng, grid, 90)
    original = EulerHistogram.from_dataset(data, grid)
    path = tmp_path / "hist.npz"
    original.save(path)
    loaded = EulerHistogram.load(path)

    live = SEulerApprox(original)
    revived = SEulerApprox(loaded)
    for _ in range(25):
        q = random_query(rng, grid)
        assert revived.estimate(q) == live.estimate(q)


def test_empty_histogram_roundtrip(grid, tmp_path):
    from repro.datasets.base import RectDataset

    original = EulerHistogram.from_dataset(RectDataset.empty(grid.extent), grid)
    path = tmp_path / "empty.npz"
    original.save(path)
    loaded = EulerHistogram.load(path)
    assert loaded.num_objects == 0
    assert loaded.total_sum == 0


@pytest.mark.parametrize("cells", [(4, 4, 4), (8, 10)])
def test_save_refuses_a_gridnd_histogram_before_writing(cells, rng, tmp_path):
    """The format holds a 2-d Grid's extent and cells: a ``from_boxes``
    histogram on a GridND, even a 2-d one, is refused by its grid's type
    and leaves no file behind."""
    grid = GridND.unit_cells(cells)
    lows = rng.uniform(0.0, 2.0, size=(30, len(cells)))
    highs = lows + rng.uniform(0.5, 2.0, size=(30, len(cells)))
    hist = EulerHistogram.from_boxes(grid, lows, highs)
    path = tmp_path / "hist.npz"
    with pytest.raises(ValueError, match="GridND"):
        hist.save(path)
    assert not path.exists()


class TestIntegrityVerification:
    """Hardened load: every corruption mode maps to SummaryCorruptError."""

    def _saved(self, grid, rng, tmp_path, n=80):
        data = random_dataset(rng, grid, n)
        hist = EulerHistogram.from_dataset(data, grid)
        path = tmp_path / "hist.npz"
        hist.save(path)
        return hist, path

    def test_verify_passes_on_a_healthy_histogram(self, grid, rng, tmp_path):
        hist, _ = self._saved(grid, rng, tmp_path)
        assert hist.verify() is hist

    def test_bit_flipped_bucket_rejected_at_load(self, grid, rng, tmp_path):
        """Acceptance: a bit-flipped saved histogram fails at load with
        SummaryCorruptError (checksum mismatch), not a cryptic error."""
        from repro.errors import SummaryCorruptError

        _, path = self._saved(grid, rng, tmp_path)
        with np.load(path) as f:
            payload = {k: f[k] for k in f.files}
        payload["buckets"] = payload["buckets"].copy()
        payload["buckets"][0, 0] ^= 1  # one flipped bit, checksum kept
        np.savez_compressed(path, **payload)
        with pytest.raises(SummaryCorruptError, match="checksum"):
            EulerHistogram.load(path)

    def test_flipped_byte_in_compressed_stream_rejected(self, grid, rng, tmp_path):
        import zipfile

        from repro.errors import SummaryCorruptError

        _, path = self._saved(grid, rng, tmp_path)
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as z:
            info = z.getinfo("buckets.npy")
        offset = info.header_offset + 30 + len(info.filename) + 120
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SummaryCorruptError, match="unreadable"):
            EulerHistogram.load(path)

    def test_truncated_file_rejected_with_clear_message(self, grid, rng, tmp_path):
        from repro.errors import SummaryCorruptError

        _, path = self._saved(grid, rng, tmp_path)
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(SummaryCorruptError, match="unreadable"):
            EulerHistogram.load(path)

    def test_missing_key_rejected_with_key_named(self, grid, rng, tmp_path):
        from repro.errors import SummaryCorruptError

        _, path = self._saved(grid, rng, tmp_path)
        with np.load(path) as f:
            payload = {k: f[k] for k in f.files if k != "num_objects"}
        np.savez_compressed(path, **payload)
        with pytest.raises(SummaryCorruptError, match="num_objects"):
            EulerHistogram.load(path)

    def test_legacy_file_without_checksum_still_loads(self, grid, rng, tmp_path):
        """Pre-checksum files get structural validation only."""
        data = random_dataset(rng, grid, 40)
        hist = EulerHistogram.from_dataset(data, grid)
        path = tmp_path / "legacy.npz"
        np.savez_compressed(  # the pre-taxonomy save format
            path,
            buckets=hist.buckets(),
            extent=np.array(grid.extent.as_tuple(), dtype=np.float64),
            cells=np.array([grid.n1, grid.n2], dtype=np.int64),
            num_objects=np.int64(hist.num_objects),
        )
        loaded = EulerHistogram.load(path)
        np.testing.assert_array_equal(loaded.buckets(), hist.buckets())

    def test_inconsistent_object_count_fails_the_euler_invariant(
        self, grid, rng, tmp_path
    ):
        """Even a legacy file (no checksum) cannot smuggle in a bucket
        array whose corner sum disagrees with the object count."""
        from repro.errors import SummaryCorruptError

        data = random_dataset(rng, grid, 40)
        hist = EulerHistogram.from_dataset(data, grid)
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            buckets=hist.buckets(),
            extent=np.array(grid.extent.as_tuple(), dtype=np.float64),
            cells=np.array([grid.n1, grid.n2], dtype=np.int64),
            num_objects=np.int64(hist.num_objects + 7),
        )
        with pytest.raises(SummaryCorruptError, match="corner-bucket sum"):
            EulerHistogram.load(path)

    def test_summary_corrupt_is_a_value_error(self):
        from repro.errors import BrowseError, SummaryCorruptError

        assert issubclass(SummaryCorruptError, ValueError)
        assert issubclass(SummaryCorruptError, BrowseError)
