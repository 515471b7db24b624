"""The pyramid refinement path: coarse-first serving under deadlines.

Acceptance properties of the one degrade path:

- a zero-budget browse still returns a *complete* raster, served from
  the coarsest aligned pyramid level with per-tile level and error-bound
  annotations;
- an unbounded (or roomy-deadline) browse is bit-identical to the same
  service without a pyramid -- the fine path overwrites every prefilled
  tile and the annotation is dropped;
- coarse-but-valid tiles never seed the tile cache and are never reused
  by viewport deltas;
- a chunk the estimator fails is rescued from the coarsest level instead
  of failing the request.
"""

import numpy as np
import pytest

from repro.browse.delta import DeltaTracker, plan_delta
from repro.browse.refine import PyramidSource
from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import GeoBrowsingService
from repro.cache import TileResultCache
from repro.errors import EstimatorFailedError
from repro.euler.histogram import EulerHistogram
from repro.euler.pyramid import HistogramPyramid
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs import BrowseInstrumentation
from repro.testing.faults import FaultSchedule, FaultyBatchEstimator

from tests.conftest import random_dataset

REGION = TileQuery(0, 64, 0, 32)


@pytest.fixture
def grid():
    return Grid(Rect(0.0, 64.0, 0.0, 32.0), 64, 32)


@pytest.fixture
def data(grid, rng):
    return random_dataset(rng, grid, 250, max_size_cells=4.0)


@pytest.fixture
def estimator(grid, data):
    return SEulerApprox(EulerHistogram.from_dataset(data, grid))


@pytest.fixture
def pyramid(grid, data):
    # 64x32 -> 32x16 -> 16x8 -> 8x4: four levels, coarsest is 3.
    return HistogramPyramid(data, grid, min_cells=4)


def make_service(estimator, grid, pyramid, **kwargs):
    return ResilientBrowsingService(estimator, grid, pyramid=pyramid, **kwargs)


class TestPyramidSource:
    def test_grid_mismatch_rejected(self, grid, data, pyramid):
        other = Grid(Rect(0.0, 64.0, 0.0, 32.0), 32, 16)
        with pytest.raises(ValueError, match="does not match"):
            PyramidSource(pyramid, grid=other)
        est = SEulerApprox(EulerHistogram.from_dataset(data, other))
        with pytest.raises(ValueError, match="match"):
            ResilientBrowsingService(est, other, pyramid=pyramid)
        source = PyramidSource(pyramid)
        with pytest.raises(ValueError, match="must equal"):
            ResilientBrowsingService(est, other, pyramid=source)

    def test_plan_is_coarsest_first_and_excludes_full_resolution(self, pyramid):
        source = PyramidSource(pyramid)
        steps = source.plan(REGION, rows=32, cols=64)
        assert [(s.level, s.rows, s.cols) for s in steps] == [
            (3, 4, 8),
            (2, 8, 16),
            (1, 16, 32),
        ]
        # Level 0 would be the requested resolution itself: the service's
        # estimator owns that answer, so the ladder must not contain it.
        assert all(s.level > 0 for s in steps)
        # Each kept step strictly refines the previous one.
        tiles = [s.tiles for s in steps]
        assert tiles == sorted(tiles) and len(set(tiles)) == len(tiles)

    def test_plan_empty_when_no_level_helps(self, pyramid):
        source = PyramidSource(pyramid)
        assert source.plan(REGION, rows=1, cols=1) == ()

    def test_raster_broadcasts_coarse_counts(self, pyramid):
        source = PyramidSource(pyramid)
        step = source.plan(REGION, rows=32, cols=64)[0]
        counts, bound = source.raster(step, 32, 64, "n_intersect")
        assert counts.shape == bound.shape == (32, 64)
        assert (bound >= 0).all()
        # Compare against browsing the step's level directly.
        level_grid = pyramid.grid(step.level)
        coarse = GeoBrowsingService(pyramid.estimator(step.level), level_grid).browse(
            step.region, rows=step.rows, cols=step.cols, relation="intersect"
        ).counts
        expected = np.repeat(
            np.repeat(coarse, 32 // step.rows, axis=0), 64 // step.cols, axis=1
        )
        np.testing.assert_array_equal(counts, expected)


class TestCoarseFirstServing:
    def test_zero_deadline_serves_complete_coarse_raster(self, estimator, grid, pyramid):
        service = make_service(estimator, grid, pyramid)
        result = service.browse(REGION, rows=32, cols=64, deadline=0.0)
        assert result.is_complete
        assert not result.full_resolution
        assert np.isfinite(result.counts).all()
        assert result.levels is not None and (result.levels == 3).all()
        assert result.error_bound is not None and (result.error_bound >= 0).all()

    def test_error_bound_actually_bounds_the_error(self, estimator, grid, pyramid):
        service = make_service(estimator, grid, pyramid)
        coarse = service.browse(REGION, rows=32, cols=64, relation="intersect", deadline=0.0)
        fine = service.browse(REGION, rows=32, cols=64, relation="intersect")
        assert fine.full_resolution
        assert (np.abs(fine.counts - coarse.counts) <= coarse.error_bound).all()

    def test_unbounded_browse_matches_pyramid_free_service(self, estimator, grid, pyramid):
        with_pyramid = make_service(estimator, grid, pyramid)
        without = ResilientBrowsingService(estimator, grid)
        a = with_pyramid.browse(REGION, rows=16, cols=16)
        b = without.browse(REGION, rows=16, cols=16)
        assert a.full_resolution and a.levels is None and a.error_bound is None
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_roomy_deadline_reaches_full_resolution(self, estimator, grid, pyramid):
        service = make_service(estimator, grid, pyramid)
        result = service.browse(REGION, rows=16, cols=16, deadline=60.0)
        # The prefill ran, then the fine path overwrote every tile, so
        # the annotation is dropped and the result is authoritative.
        assert result.is_complete and result.full_resolution
        assert result.levels is None

    def test_no_deadline_means_no_prefill_spans(self, estimator, grid, pyramid):
        instruments = BrowseInstrumentation()
        service = make_service(estimator, grid, pyramid, instruments=instruments)
        service.browse(REGION, rows=16, cols=16)
        served = instruments.registry.get("repro_pyramid_level_served_total")
        assert all(s["value"] == 0 for s in served.samples())

    def test_metrics_record_levels_and_rounds(self, estimator, grid, pyramid):
        instruments = BrowseInstrumentation()
        service = make_service(estimator, grid, pyramid, instruments=instruments)
        service.browse(REGION, rows=32, cols=64, deadline=0.0)
        served = instruments.registry.get("repro_pyramid_level_served_total")
        assert served.labels(service="resilient", level="3").value == 1.0
        rounds = instruments.registry.get("repro_pyramid_refine_rounds")
        assert rounds.labels(service="resilient").count == 1
        # The prefill is the pyramid stage: one span, one stage sample.
        assert instruments.stage_seconds.labels(service="resilient", stage="pyramid").count == 1


class TestCoarseNeverReused:
    def test_coarse_tiles_never_seed_the_cache(self, estimator, grid, pyramid):
        cache = TileResultCache()
        service = make_service(estimator, grid, pyramid, cache=cache)
        result = service.browse(REGION, rows=32, cols=64, deadline=0.0)
        assert result.is_complete and not result.full_resolution
        assert len(cache) == 0

    def test_primary_tiles_still_cached_without_a_deadline(self, estimator, grid, pyramid):
        cache = TileResultCache()
        service = make_service(estimator, grid, pyramid, cache=cache)
        result = service.browse(REGION, rows=16, cols=16)
        assert result.full_resolution
        assert len(cache) == 16 * 16

    def test_coarse_tiles_never_reused_by_deltas(self, estimator, grid, pyramid):
        tracker = DeltaTracker()
        service = make_service(estimator, grid, pyramid, delta=tracker)
        first = service.browse(REGION, rows=32, cols=64, deadline=0.0, session="s")
        # Every tile is coarse: nothing is reusable.
        assert first.levels is not None and (first.levels >= 0).all()
        assert plan_delta(first, REGION, 32, 64, first.scope) is None
        # A repeat of the same viewport must be served from the pyramid
        # again, not copied from the remembered coarse raster.
        second = service.browse(REGION, rows=32, cols=64, deadline=0.0, session="s")
        assert second.levels is not None and (second.levels >= 0).all()


class TestChainExhaustedRescue:
    def _failing_chain_service(self, estimator, grid, pyramid):
        flaky = FaultyBatchEstimator(
            estimator, FaultSchedule(script=("error",), cycle=True)
        )
        return ResilientBrowsingService(flaky, grid, pyramid=pyramid)

    def test_rescued_from_coarsest_level(self, estimator, grid, pyramid):
        service = self._failing_chain_service(estimator, grid, pyramid)
        result = service.browse(REGION, rows=32, cols=64)
        assert result.is_complete
        assert not result.full_resolution
        assert (result.levels == 3).all()
        assert (result.error_bound >= 0).all()
        # Rescued tiles are coarse: nothing is delta-reusable.
        assert plan_delta(result, REGION, 32, 64, result.scope) is None

    def test_rescued_tiles_never_seed_the_cache(self, estimator, grid, pyramid):
        flaky = FaultyBatchEstimator(
            estimator, FaultSchedule(script=("error",), cycle=True)
        )
        cache = TileResultCache()
        service = ResilientBrowsingService(flaky, grid, pyramid=pyramid, cache=cache)
        result = service.browse(REGION, rows=32, cols=64)
        assert result.is_complete
        assert len(cache) == 0

    def test_without_pyramid_the_failure_still_surfaces(self, estimator, grid):
        flaky = FaultyBatchEstimator(
            estimator, FaultSchedule(script=("error",), cycle=True)
        )
        service = ResilientBrowsingService(flaky, grid)
        with pytest.raises(EstimatorFailedError):
            service.browse(REGION, rows=32, cols=64)

    def test_rescue_metric_recorded(self, estimator, grid, pyramid):
        flaky = FaultyBatchEstimator(
            estimator, FaultSchedule(script=("error",), cycle=True)
        )
        instruments = BrowseInstrumentation()
        service = ResilientBrowsingService(
            flaky, grid, pyramid=pyramid, instruments=instruments
        )
        service.browse(REGION, rows=32, cols=64)
        rescues = instruments.registry.get("repro_pyramid_rescued_chunks_total")
        assert rescues.labels(service="resilient").value > 0


class TestValidation:
    def test_pyramid_property_exposes_the_source(self, estimator, grid, pyramid):
        service = make_service(estimator, grid, pyramid)
        assert isinstance(service.pyramid, PyramidSource)
        assert service.pyramid.pyramid is pyramid
        assert ResilientBrowsingService(estimator, grid).pyramid is None
