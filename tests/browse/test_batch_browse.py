"""Batched browsing: raster parity, fallback adapter, and the
persist -> reload -> batch-serve deployment path."""

import numpy as np
import pytest

from repro.browse.service import GeoBrowsingService, RELATION_FIELDS
from repro.euler.base import Level2BatchEstimator, ScalarBatchFallback, as_batch_estimator
from repro.euler.full import EulerApprox, QueryEdge
from repro.euler.histogram import EulerHistogram
from repro.euler.multi import MEulerApprox
from repro.euler.simple import SEulerApprox
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.workloads.tiles import browsing_tile_batch, browsing_tiles

from tests.conftest import random_dataset


@pytest.fixture
def grid():
    return Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)


@pytest.fixture
def data(grid, rng):
    return random_dataset(rng, grid, 400, max_size_cells=4.0)


class TestBatchBrowseParity:
    @pytest.mark.parametrize("relation", sorted(RELATION_FIELDS))
    def test_batch_and_scalar_rasters_identical(self, grid, data, relation):
        hist = EulerHistogram.from_dataset(data, grid)
        for estimator in (
            SEulerApprox(hist),
            EulerApprox(hist, QueryEdge.ALL),
            MEulerApprox(data, grid, [1.0, 9.0]),
            ExactEvaluator(data, grid),
        ):
            service = GeoBrowsingService(estimator, grid)
            scalar = GeoBrowsingService(ScalarBatchFallback(estimator), grid)
            region = TileQuery(0, 12, 0, 8)
            fast = service.browse(region, rows=4, cols=6, relation=relation)
            slow = scalar.browse(region, rows=4, cols=6, relation=relation)
            np.testing.assert_array_equal(fast.counts, slow.counts)

    def test_sub_region_raster(self, grid, data):
        exact = ExactEvaluator(data, grid)
        region = TileQuery(2, 10, 1, 7)
        fast = GeoBrowsingService(exact, grid).browse(region, rows=3, cols=4)
        slow = GeoBrowsingService(ScalarBatchFallback(exact), grid).browse(
            region, rows=3, cols=4
        )
        np.testing.assert_array_equal(fast.counts, slow.counts)

    def test_lazy_tiles_match_tiling(self, grid, data):
        service = GeoBrowsingService(ExactEvaluator(data, grid), grid)
        region = TileQuery(0, 12, 0, 8)
        result = service.browse(region, rows=2, cols=3)
        assert result.tiles == browsing_tiles(region, 2, 3)


class TestScalarFallbackAdapter:
    class _ScalarOnly:
        """A third-party estimator that only speaks the scalar protocol."""

        def __init__(self, inner):
            self._inner = inner

        @property
        def name(self):
            return "scalar-only"

        def estimate(self, query):
            return self._inner.estimate(query)

    def test_adapter_wraps_scalar_estimator(self, grid, data):
        scalar_only = self._ScalarOnly(ExactEvaluator(data, grid))
        adapted = as_batch_estimator(scalar_only)
        assert isinstance(adapted, ScalarBatchFallback)
        assert adapted.name == "scalar-only"
        assert adapted.wrapped is scalar_only

        batch = browsing_tile_batch(TileQuery(0, 12, 0, 8), 2, 2)
        got = adapted.estimate_batch(batch)
        for i, q in enumerate(batch):
            assert got[i] == scalar_only.estimate(q)

    def test_native_batch_estimator_passes_through(self, grid, data):
        estimator = SEulerApprox(EulerHistogram.from_dataset(data, grid))
        assert as_batch_estimator(estimator) is estimator
        assert isinstance(estimator, Level2BatchEstimator)

    def test_service_serves_scalar_only_estimators(self, grid, data):
        scalar_only = self._ScalarOnly(ExactEvaluator(data, grid))
        service = GeoBrowsingService(scalar_only, grid)
        direct = GeoBrowsingService(ExactEvaluator(data, grid), grid)
        region = TileQuery(0, 12, 0, 8)
        np.testing.assert_array_equal(
            service.browse(region, 2, 3).counts, direct.browse(region, 2, 3).counts
        )


class TestSaveLoadBatchBrowse:
    def test_round_trip_histogram_serves_identical_rasters(self, tmp_path, grid, data):
        """The deployment path: build once, persist, reload elsewhere, and
        serve batched rasters from the rebuilt prefix cube."""
        original = EulerHistogram.from_dataset(data, grid)
        path = tmp_path / "hist.npz"
        original.save(path)
        reloaded = EulerHistogram.load(path)

        assert reloaded.num_objects == original.num_objects
        np.testing.assert_array_equal(reloaded.buckets(), original.buckets())

        region = TileQuery(0, 12, 0, 8)
        for edge in (QueryEdge.LEFT, QueryEdge.ALL):
            before = GeoBrowsingService(EulerApprox(original, edge), grid)
            after = GeoBrowsingService(EulerApprox(reloaded, edge), grid)
            scalar_after = GeoBrowsingService(
                ScalarBatchFallback(EulerApprox(reloaded, edge)), grid
            )
            for relation in sorted(RELATION_FIELDS):
                want = before.browse(region, rows=4, cols=6, relation=relation)
                got = after.browse(region, rows=4, cols=6, relation=relation)
                np.testing.assert_array_equal(got.counts, want.counts)
                # And the batch raster from the reloaded cube still equals
                # the reloaded scalar path (full parity after the rebuild).
                slow = scalar_after.browse(region, rows=4, cols=6, relation=relation)
                np.testing.assert_array_equal(got.counts, slow.counts)
