"""Cache semantics at the service level: bit-parity between cached and
plain rasters (property-tested), generation invalidation through a
maintained histogram, and the resilient service's
cache/deadline/degradation interactions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import RELATION_FIELDS, GeoBrowsingService
from repro.cache import TileResultCache
from repro.euler.histogram import EulerHistogram
from repro.euler.maintained import MaintainedEulerHistogram
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs.instruments import BrowseInstrumentation
from repro.testing.faults import FaultSchedule, FaultyBatchEstimator

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)


@pytest.fixture(scope="module")
def data():
    return random_dataset(np.random.default_rng(77), GRID, 300, max_size_cells=3.0)


@pytest.fixture(scope="module")
def hist(data):
    return EulerHistogram.from_dataset(data, GRID)


@st.composite
def rasters(draw):
    """A grid-aligned region plus a (rows, cols) tiling that divides it."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    tile_w = draw(st.integers(1, 3))
    tile_h = draw(st.integers(1, 2))
    x_lo = draw(st.integers(0, GRID.n1 - cols * tile_w))
    y_lo = draw(st.integers(0, GRID.n2 - rows * tile_h))
    region = TileQuery(x_lo, x_lo + cols * tile_w, y_lo, y_lo + rows * tile_h)
    relation = draw(st.sampled_from(sorted(RELATION_FIELDS)))
    return region, rows, cols, relation


class TestCachedParity:
    @given(trace=st.lists(rasters(), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_cached_rasters_bit_identical(self, hist, trace):
        """Any sequence of overlapping rasters answers bit-identically
        through a cached service -- cold misses, warm hits, and partial
        overlaps alike."""
        estimator = SEulerApprox(hist)
        plain = GeoBrowsingService(estimator, GRID)
        cached = GeoBrowsingService(estimator, GRID, cache=TileResultCache())
        for region, rows, cols, relation in trace:
            expected = plain.browse(region, rows, cols, relation)
            # Twice: the first may populate, the second must hit.
            for _ in range(2):
                got = cached.browse(region, rows, cols, relation)
                np.testing.assert_array_equal(got.counts, expected.counts)
            assert got.valid is None or got.valid.all()


class TestGenerationInvalidation:
    def test_update_after_cached_browse_never_serves_stale_counts(self, data):
        maintained = MaintainedEulerHistogram(GRID, data)
        estimator = SEulerApprox(maintained)
        cache = TileResultCache()
        service = GeoBrowsingService(estimator, GRID, cache=cache)
        region = TileQuery(0, 12, 0, 8)

        before = service.browse(region, 4, 6).counts
        service.browse(region, 4, 6)  # warm: served from cache
        assert cache.hits > 0

        gen_before = maintained.generation
        maintained.insert(Rect(1.2, 4.8, 1.2, 4.8))
        assert maintained.generation == gen_before + 1

        after = service.browse(region, 4, 6).counts
        fresh = GeoBrowsingService(estimator, GRID).browse(region, 4, 6).counts
        np.testing.assert_array_equal(after, fresh)
        assert not np.array_equal(after, before), (
            "inserting an object inside the region must change the raster"
        )
        assert cache.generation_invalidations >= 1

    def test_merge_keeps_cache_valid(self, data):
        """A merge() is a representation change with identical answers,
        so it must NOT invalidate (generation stays put)."""
        maintained = MaintainedEulerHistogram(GRID, data)
        estimator = SEulerApprox(maintained)
        cache = TileResultCache()
        service = GeoBrowsingService(estimator, GRID, cache=cache)
        region = TileQuery(0, 12, 0, 8)

        maintained.insert(Rect(2.0, 3.0, 2.0, 3.0))
        first = service.browse(region, 4, 6).counts
        gen = maintained.generation
        maintained.merge()
        assert maintained.generation == gen
        again = service.browse(region, 4, 6).counts
        np.testing.assert_array_equal(again, first)
        assert cache.generation_invalidations == 0
        assert cache.hits > 0


class TestResilientCache:
    def test_cache_hits_survive_a_zero_deadline(self, hist):
        estimator = SEulerApprox(hist)
        cache = TileResultCache()
        service = ResilientBrowsingService([estimator], GRID, cache=cache)
        region = TileQuery(0, 12, 0, 8)

        warm = service.browse(region, 4, 6)  # populates the cache
        cold_deadline = service.browse(region, 4, 6, deadline=0.0)
        assert cold_deadline.valid is None or cold_deadline.valid.all()
        np.testing.assert_array_equal(cold_deadline.counts, warm.counts)

    def test_degraded_answers_are_not_cached(self, hist):
        """With the primary hard-down, the fallback answers every chunk
        -- and none of it may enter the cache under the primary's key."""
        primary = FaultyBatchEstimator(
            SEulerApprox(hist), FaultSchedule(script=["error"] * 1000, cycle=True)
        )
        fallback = SEulerApprox(hist)
        cache = TileResultCache()
        service = ResilientBrowsingService([primary, fallback], GRID, cache=cache)
        region = TileQuery(0, 12, 0, 8)
        result = service.browse(region, 4, 6)
        assert result.valid is None or result.valid.all()
        assert len(cache) == 0, "degraded (fallback-tier) answers were cached"

        # Second request: still all fallback, still nothing cached.
        service.browse(region, 4, 6)
        assert len(cache) == 0
        assert cache.hits == 0

    def test_primary_recovery_fills_the_cache(self, hist):
        primary = FaultyBatchEstimator(
            SEulerApprox(hist), FaultSchedule(script=["error"])  # fails once
        )
        fallback = SEulerApprox(hist)
        cache = TileResultCache()
        service = ResilientBrowsingService(
            [primary, fallback],
            GRID,
            cache=cache,
            chunk_rows=2,
        )
        region = TileQuery(0, 12, 0, 8)
        reference = GeoBrowsingService(SEulerApprox(hist), GRID).browse(region, 4, 6)
        result = service.browse(region, 4, 6)
        np.testing.assert_array_equal(result.counts, reference.counts)
        # The recovered primary answered at least one chunk.
        assert len(cache) > 0

    def test_chunked_resilient_parity(self, hist):
        """A cold service's 2-row chunks answer bit-identically to one
        chunk per raster."""
        estimator = SEulerApprox(hist)
        expected = GeoBrowsingService(estimator, GRID).browse(TileQuery(0, 12, 0, 8), 8, 12)
        chunked = ResilientBrowsingService([estimator], GRID, chunk_rows=2)
        got = chunked.browse(TileQuery(0, 12, 0, 8), 8, 12)
        assert chunked.chunk_cost.chunks == 4
        np.testing.assert_array_equal(got.counts, expected.counts)


class TestCacheMetrics:
    def test_plain_service_records_hits_and_misses(self, hist):
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            SEulerApprox(hist),
            GRID,
            cache=TileResultCache(),
            instruments=instruments,
        )
        service.browse(TileQuery(0, 12, 0, 8), 4, 6)
        service.browse(TileQuery(0, 12, 0, 8), 4, 6)
        assert instruments.cache_misses.labels(service="plain").value == 24
        assert instruments.cache_hits.labels(service="plain").value == 24

    def test_resilient_service_records_hits_misses_and_shards(self, hist):
        instruments = BrowseInstrumentation()
        service = ResilientBrowsingService(
            [SEulerApprox(hist)],
            GRID,
            cache=TileResultCache(),
            instruments=instruments,
        )
        service.browse(TileQuery(0, 12, 0, 8), 4, 6)
        service.browse(TileQuery(0, 12, 0, 8), 4, 6)
        assert instruments.cache_misses.labels(service="resilient").value == 24
        assert instruments.cache_hits.labels(service="resilient").value == 24

    def test_chunk_stage_seconds_observed(self, hist):
        """The plain form answers each raster as one chunk, timed by the
        chunk stage."""
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(SEulerApprox(hist), GRID, instruments=instruments)
        chunk_obs = instruments.stage_seconds.labels(service="plain", stage="chunk")
        for rasters in (1, 2):
            service.browse(TileQuery(0, 12, 0, 8), 8, 12)
            assert chunk_obs.count == rasters
