"""Viewport-delta semantics at every layer: plan construction, tracker
LRU behaviour, service-level bit-parity under property-tested pan/zoom/
re-tile traces, generation invalidation through a maintained histogram,
and the resilient service's delta/deadline/degradation interactions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browse.delta import DeltaTracker, plan_delta
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
from repro.workloads.tiles import browsing_tile_batch, browsing_tile_batch_at

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 24.0, 0.0, 16.0), 24, 16)


@pytest.fixture(scope="module")
def data():
    return random_dataset(np.random.default_rng(42), GRID, 400, max_size_cells=4.0)


@pytest.fixture(scope="module")
def hist(data):
    return EulerHistogram.from_dataset(data, GRID)


@st.composite
def pan_zoom_traces(draw):
    """A browsing trace mixing tile-aligned pans, re-tiles and fresh
    viewports -- compatible and incompatible consecutive rasters alike."""
    relation = draw(st.sampled_from(sorted(RELATION_FIELDS)))

    def fresh():
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(1, 4))
        tile_w = draw(st.integers(1, 3))
        tile_h = draw(st.integers(1, 3))
        x_lo = draw(st.integers(0, GRID.n1 - cols * tile_w))
        y_lo = draw(st.integers(0, GRID.n2 - rows * tile_h))
        region = TileQuery(x_lo, x_lo + cols * tile_w, y_lo, y_lo + rows * tile_h)
        return region, rows, cols

    steps = [fresh()]
    for _ in range(draw(st.integers(1, 6))):
        region, rows, cols = steps[-1]
        move = draw(st.sampled_from(["pan", "retile", "fresh"]))
        if move == "pan":
            tile_w = region.width // cols
            tile_h = region.height // rows
            dx = draw(st.integers(-2, 2)) * tile_w
            dy = draw(st.integers(-2, 2)) * tile_h
            x_lo = min(max(region.qx_lo + dx, 0), GRID.n1 - region.width)
            y_lo = min(max(region.qy_lo + dy, 0), GRID.n2 - region.height)
            steps.append(
                (
                    TileQuery(x_lo, x_lo + region.width, y_lo, y_lo + region.height),
                    rows,
                    cols,
                )
            )
        elif move == "retile":
            rows = draw(st.sampled_from([d for d in (1, 2, 4) if region.height % d == 0]))
            cols = draw(st.sampled_from([d for d in (1, 2, 4) if region.width % d == 0]))
            steps.append((region, rows, cols))
        else:
            steps.append(fresh())
    return relation, steps


class TestDeltaParity:
    @given(trace=pan_zoom_traces())
    @settings(max_examples=60, deadline=None)
    def test_delta_rasters_bit_identical(self, hist, trace):
        """Every raster of a session answers bit-identically with and
        without delta reuse, whatever mix of pans, re-tiles and jumps the
        trace contains."""
        relation, steps = trace
        estimator = SEulerApprox(hist)
        cold = GeoBrowsingService(estimator, GRID)
        delta = GeoBrowsingService(estimator, GRID, delta=DeltaTracker())
        for region, rows, cols in steps:
            expected = cold.browse(region, rows, cols, relation)
            got = delta.browse(region, rows, cols, relation)
            np.testing.assert_array_equal(got.counts, expected.counts)

    @given(trace=pan_zoom_traces())
    @settings(max_examples=25, deadline=None)
    def test_delta_composes_with_cache_and_shards(self, hist, trace):
        relation, steps = trace
        estimator = SEulerApprox(hist)
        cold = GeoBrowsingService(estimator, GRID)
        stacked = GeoBrowsingService(
            estimator, GRID, cache=TileResultCache(), delta=DeltaTracker()
        )
        for region, rows, cols in steps:
            expected = cold.browse(region, rows, cols, relation)
            got = stacked.browse(region, rows, cols, relation)
            np.testing.assert_array_equal(got.counts, expected.counts)

    @given(trace=pan_zoom_traces())
    @settings(max_examples=25, deadline=None)
    def test_resilient_delta_parity(self, hist, trace):
        relation, steps = trace
        estimator = SEulerApprox(hist)
        cold = ResilientBrowsingService([estimator], GRID)
        delta = ResilientBrowsingService([estimator], GRID, delta=DeltaTracker())
        for region, rows, cols in steps:
            expected = cold.browse(region, rows, cols, relation)
            got = delta.browse(region, rows, cols, relation)
            np.testing.assert_array_equal(got.counts, expected.counts)


class TestDeltaReuse:
    def test_pan_reuses_the_overlap_band(self, hist):
        """Panning one tile column right on an 8x12 raster answers
        8 x 11 tiles by copying and estimates only the fresh column."""
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            SEulerApprox(hist), GRID, delta=DeltaTracker(), instruments=instruments
        )
        service.browse(TileQuery(0, 12, 0, 8), 8, 12)
        service.browse(TileQuery(1, 13, 0, 8), 8, 12)
        reused = instruments.delta_rasters.labels(service="plain", outcome="reused")
        assert reused.value == 1
        assert instruments.delta_tiles_reused.labels(service="plain").value == 8 * 11

    def test_sessions_are_isolated(self, hist):
        """A pan in one session never reuses another session's raster."""
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            SEulerApprox(hist), GRID, delta=DeltaTracker(), instruments=instruments
        )
        service.browse(TileQuery(0, 12, 0, 8), 4, 6, session="a")
        service.browse(TileQuery(0, 12, 0, 8), 4, 6, session="b")
        reused = instruments.delta_rasters.labels(service="plain", outcome="reused")
        assert reused.value == 0
        service.browse(TileQuery(0, 12, 0, 8), 4, 6, session="a")
        assert reused.value == 1

    def test_explicit_previous_hint_overrides_the_tracker(self, hist):
        service = GeoBrowsingService(SEulerApprox(hist), GRID)
        first = service.browse(TileQuery(0, 12, 0, 8), 8, 12)
        expected = service.browse(TileQuery(2, 14, 0, 8), 8, 12)
        hinted = service.browse(TileQuery(2, 14, 0, 8), 8, 12, previous=first)
        np.testing.assert_array_equal(hinted.counts, expected.counts)

    def test_incompatible_retile_counts_as_incompatible(self, hist):
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            SEulerApprox(hist), GRID, delta=DeltaTracker(), instruments=instruments
        )
        service.browse(TileQuery(0, 12, 0, 8), 4, 6)
        service.browse(TileQuery(0, 12, 0, 8), 2, 3)  # coarser tiles
        labels = instruments.delta_rasters.labels
        assert labels(service="plain", outcome="incompatible").value == 1
        assert labels(service="plain", outcome="reused").value == 0
        assert labels(service="plain", outcome="cold").value == 1


class TestPlanDelta:
    def test_unrestricted_overlap_is_a_block_plan(self, hist):
        service = GeoBrowsingService(SEulerApprox(hist), GRID)
        prev = service.browse(TileQuery(0, 12, 0, 8), 8, 12)
        plan = plan_delta(prev, TileQuery(2, 14, 1, 9), 8, 12, prev.delta.scope)
        assert plan is not None and plan.block is not None and plan.source is None
        assert plan.n_reused == 7 * 10
        r0, r1, c0, c1, dr, dc = plan.block
        assert (r0, r1, c0, c1, dr, dc) == (0, 7, 0, 10, 1, 2)

    def test_block_fill_matches_masked_semantics(self, hist):
        service = GeoBrowsingService(SEulerApprox(hist), GRID)
        prev = service.browse(TileQuery(0, 12, 0, 8), 8, 12)
        cold = service.browse(TileQuery(3, 15, 2, 10), 8, 12)
        plan = plan_delta(prev, TileQuery(3, 15, 2, 10), 8, 12, prev.delta.scope)
        counts = np.full(8 * 12, np.nan)
        plan.fill(counts, prev.counts)
        np.testing.assert_array_equal(
            counts[plan.reused], cold.counts.reshape(-1)[plan.reused]
        )
        assert np.isnan(counts[~plan.reused]).all()

    def test_misaligned_offset_is_rejected(self, hist):
        service = GeoBrowsingService(SEulerApprox(hist), GRID)
        prev = service.browse(TileQuery(0, 12, 0, 8), 4, 6)  # 2x2-cell tiles
        assert plan_delta(prev, TileQuery(1, 13, 0, 8), 4, 6, prev.delta.scope) is None

    def test_different_tile_extents_are_rejected(self, hist):
        service = GeoBrowsingService(SEulerApprox(hist), GRID)
        prev = service.browse(TileQuery(0, 12, 0, 8), 4, 6)
        assert plan_delta(prev, TileQuery(0, 12, 0, 8), 2, 3, prev.delta.scope) is None

    def test_disjoint_viewports_are_rejected(self, hist):
        service = GeoBrowsingService(SEulerApprox(hist), GRID)
        prev = service.browse(TileQuery(0, 6, 0, 4), 4, 6)
        assert plan_delta(prev, TileQuery(12, 18, 8, 12), 4, 6, prev.delta.scope) is None

    def test_scope_mismatch_is_rejected(self, hist):
        service = GeoBrowsingService(SEulerApprox(hist), GRID)
        prev = service.browse(TileQuery(0, 12, 0, 8), 4, 6, relation="overlap")
        contains = service.browse(TileQuery(0, 12, 0, 8), 4, 6, relation="contains")
        assert (
            plan_delta(prev, TileQuery(0, 12, 0, 8), 4, 6, contains.delta.scope) is None
        )


class TestGenerationInvalidation:
    def test_update_between_interactions_disables_reuse(self, data):
        maintained = MaintainedEulerHistogram(GRID, data)
        estimator = SEulerApprox(maintained)
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            estimator, GRID, delta=DeltaTracker(), instruments=instruments
        )
        region = TileQuery(0, 12, 0, 8)
        before = service.browse(region, 4, 6).counts
        maintained.insert(Rect(1.0, 5.0, 1.0, 5.0))
        after = service.browse(region, 4, 6).counts
        fresh = GeoBrowsingService(estimator, GRID).browse(region, 4, 6).counts
        np.testing.assert_array_equal(after, fresh)
        assert not np.array_equal(after, before)
        labels = instruments.delta_rasters.labels
        assert labels(service="plain", outcome="reused").value == 0
        assert labels(service="plain", outcome="incompatible").value == 1

    def test_merge_keeps_reuse_valid(self, data):
        """merge() answers bit-identically, so reuse must survive it."""
        maintained = MaintainedEulerHistogram(GRID, data)
        estimator = SEulerApprox(maintained)
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            estimator, GRID, delta=DeltaTracker(), instruments=instruments
        )
        region = TileQuery(0, 12, 0, 8)
        maintained.insert(Rect(2.0, 3.0, 2.0, 3.0))
        first = service.browse(region, 4, 6).counts
        maintained.merge()
        again = service.browse(region, 4, 6).counts
        np.testing.assert_array_equal(again, first)
        assert (
            instruments.delta_rasters.labels(service="plain", outcome="reused").value
            == 1
        )


class TestResilientDelta:
    def test_delta_tiles_survive_a_zero_deadline(self, hist):
        """Tiles copied from the previous raster are valid before any
        estimation work, so even deadline=0 serves them complete."""
        service = ResilientBrowsingService(
            [SEulerApprox(hist)], GRID, delta=DeltaTracker()
        )
        region = TileQuery(0, 12, 0, 8)
        warm = service.browse(region, 4, 6)
        rushed = service.browse(region, 4, 6, deadline=0.0)
        assert rushed.valid is None or rushed.valid.all()
        np.testing.assert_array_equal(rushed.counts, warm.counts)

    def test_degraded_tiles_are_not_reused(self, hist):
        """A raster answered by the fallback tier must not seed reuse:
        the next interaction recomputes rather than copy degraded
        counts."""
        primary = FaultyBatchEstimator(
            SEulerApprox(hist), FaultSchedule(script=["error"] * 1000, cycle=True)
        )
        fallback = SEulerApprox(hist)
        instruments = BrowseInstrumentation()
        service = ResilientBrowsingService(
            [primary, fallback],
            GRID,
            delta=DeltaTracker(),
            instruments=instruments,
        )
        region = TileQuery(0, 12, 0, 8)
        first = service.browse(region, 4, 6)
        assert first.delta is not None
        assert first.delta.reusable is not None and not first.delta.reusable.any()
        service.browse(region, 4, 6)
        assert (
            instruments.delta_rasters.labels(
                service="resilient", outcome="reused"
            ).value
            == 0
        )

    def test_partial_degradation_reuses_only_primary_tiles(self, hist):
        """One failed chunk: its tiles answer via the fallback and are
        excluded from the reusable mask; the rest stay reusable."""
        primary = FaultyBatchEstimator(
            SEulerApprox(hist), FaultSchedule(script=["error"])  # first chunk fails
        )
        fallback = SEulerApprox(hist)
        service = ResilientBrowsingService(
            [primary, fallback],
            GRID,
            delta=DeltaTracker(),
            chunk_rows=2,
        )
        region = TileQuery(0, 12, 0, 8)
        result = service.browse(region, 4, 6)
        assert result.delta is not None and result.delta.reusable is not None
        assert result.delta.reusable.any() and not result.delta.reusable.all()


class TestDeltaTracker:
    def test_lru_eviction(self):
        tracker = DeltaTracker(max_sessions=2)
        tracker.remember("a", "ra")
        tracker.remember("b", "rb")
        tracker.lookup("a")  # refresh: b becomes least recently used
        tracker.remember("c", "rc")
        assert len(tracker) == 2
        assert tracker.lookup("b") is None
        assert tracker.lookup("a") == "ra"
        assert tracker.lookup("c") == "rc"

    def test_forget_and_clear(self):
        tracker = DeltaTracker()
        tracker.remember("a", "ra")
        tracker.forget("a")
        tracker.forget("missing")  # no-op
        assert tracker.lookup("a") is None
        tracker.remember("a", "ra")
        tracker.remember("b", "rb")
        tracker.clear()
        assert len(tracker) == 0

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            DeltaTracker(max_sessions=0)


class TestBatchSubset:
    def test_subset_matches_full_batch(self):
        region = TileQuery(2, 14, 1, 9)
        full = browsing_tile_batch(region, 4, 6)
        idx = np.array([0, 5, 7, 13, 23])
        subset = browsing_tile_batch_at(region, 4, 6, idx)
        np.testing.assert_array_equal(subset.qx_lo, full.qx_lo[idx])
        np.testing.assert_array_equal(subset.qx_hi, full.qx_hi[idx])
        np.testing.assert_array_equal(subset.qy_lo, full.qy_lo[idx])
        np.testing.assert_array_equal(subset.qy_hi, full.qy_hi[idx])

    def test_subset_validates_like_the_full_builder(self):
        with pytest.raises(ValueError):
            browsing_tile_batch_at(TileQuery(0, 12, 0, 8), 5, 6, np.array([0]))


class TestBrowseResultTiles:
    def test_tiles_are_cached_and_match_the_raster(self, hist):
        """BrowseResult.tiles is derived lazily and memoised: repeated
        access returns the same object, aligned with counts[r, c]."""
        result = GeoBrowsingService(SEulerApprox(hist), GRID).browse(
            TileQuery(2, 14, 1, 9), 4, 6
        )
        tiles = result.tiles
        assert tiles is result.tiles
        assert len(tiles) == 4 and all(len(row) == 6 for row in tiles)
        assert tiles[0][0] == TileQuery(2, 4, 1, 3)
        assert tiles[3][5] == TileQuery(12, 14, 7, 9)


class TestCliDelta:
    @pytest.fixture
    def hist_path(self, tmp_path, hist):
        path = tmp_path / "hist.npz"
        hist.save(path)
        return path

    ARGS = ["--region", "0", "24", "0", "16", "--rows", "4", "--cols", "6"]

    def test_browse_repeat_reports_reuse(self, hist_path, capsys):
        from repro.cli import main

        code = main(["browse", str(hist_path), *self.ARGS, "--repeat", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# delta: 2 rasters reused" in out

    def test_no_delta_disables_the_report(self, hist_path, capsys):
        from repro.cli import main

        code = main(["browse", str(hist_path), *self.ARGS, "--no-delta"])
        assert code == 0
        assert "# delta:" not in capsys.readouterr().out
