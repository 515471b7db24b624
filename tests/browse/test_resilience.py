"""End-to-end tests of the resilient serving layer under injected faults.

Every degradation path is exercised deterministically: scripted fault
schedules, a fake clock, and a fake sleep that advances it -- no real
timers, no flakes.
"""

import numpy as np
import pytest

from repro.browse.resilience import FallbackChain, ResilientBrowsingService
from repro.browse.service import GeoBrowsingService
from repro.errors import (
    BrowseError,
    EstimatorFailedError,
    InvalidRegionError,
)
from repro.euler.estimates import Level2CountsBatch
from repro.euler.histogram import EulerHistogram
from repro.euler.pyramid import HistogramPyramid
from repro.euler.simple import SEulerApprox
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs import BrowseInstrumentation
from repro.testing.faults import (
    FaultSchedule,
    FaultyBatchEstimator,
    FaultyEstimator,
    InjectedFault,
)
from repro.workloads.tiles import browsing_tile_batch

from tests.conftest import random_dataset

REGION = TileQuery(0, 12, 0, 8)
WIDE = Grid(Rect(0.0, 64.0, 0.0, 32.0), 64, 32)
WIDE_REGION = TileQuery(0, 64, 0, 32)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class PerTileLatency:
    """A batch estimator whose every call advances a fake clock by
    ``fixed + per_tile * len(batch)`` seconds, counting its calls."""

    def __init__(self, estimator, clock, *, per_tile, fixed=0.0):
        self._inner = estimator
        self._clock = clock
        self._per_tile = per_tile
        self._fixed = fixed
        self.calls = 0

    @property
    def name(self):
        return self._inner.name

    def estimate(self, query):
        return self._inner.estimate(query)

    def estimate_batch(self, queries):
        self.calls += 1
        self._clock.advance(self._fixed + self._per_tile * len(queries))
        return self._inner.estimate_batch(queries)


class NanAtOrigin:
    """A batch estimator answering NaN on every tile that covers cell
    (0, 0) -- the same bad answer each time it is asked -- and counting
    its ``estimate_batch`` calls."""

    def __init__(self, estimator):
        self._inner = estimator
        self.calls = 0

    @property
    def name(self):
        return self._inner.name

    def estimate(self, query):
        return self._inner.estimate(query)

    def estimate_batch(self, queries):
        self.calls += 1
        counts = self._inner.estimate_batch(queries)
        origin = (queries.qx_lo == 0) & (queries.qy_lo == 0)
        return Level2CountsBatch(
            **{
                name: np.where(origin, np.nan, getattr(counts, name))
                for name in ("n_d", "n_cs", "n_cd", "n_o")
            }
        )


class Broken:
    """A batch estimator whose every ``estimate_batch`` call fails the
    given way: ``raise`` raises ``exc``, ``nan`` answers NaN everywhere
    and ``shape`` answers one count too few."""

    def __init__(self, estimator, failure, exc=None):
        self._inner = estimator
        self._failure = failure
        self._exc = exc

    @property
    def name(self):
        return f"Broken({self._inner.name})"

    def estimate(self, query):
        return self._inner.estimate(query)

    def estimate_batch(self, queries):
        if self._failure == "raise":
            raise self._exc
        counts = self._inner.estimate_batch(queries)
        fields = ("n_d", "n_cs", "n_cd", "n_o")
        if self._failure == "nan":
            return Level2CountsBatch(**{name: np.full(len(queries), np.nan) for name in fields})
        return Level2CountsBatch(**{name: getattr(counts, name)[:-1] for name in fields})


@pytest.fixture
def grid():
    return Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)


@pytest.fixture
def data(grid, rng):
    return random_dataset(rng, grid, 300, max_size_cells=3.0)


@pytest.fixture
def hist(grid, data):
    return EulerHistogram.from_dataset(data, grid)


@pytest.fixture
def exact(grid, data):
    return ExactEvaluator(data, grid)


def reference_counts(exact, grid, rows=4, cols=6, relation="overlap"):
    return GeoBrowsingService(exact, grid).browse(
        REGION, rows=rows, cols=cols, relation=relation
    ).counts


def waves_span(result):
    return next(s for s in result.telemetry.spans if s.name == "waves")


class TestFaultSchedule:
    def test_scripted_sequence_then_none(self):
        schedule = FaultSchedule(script=("error", "nan", "latency"))
        assert [schedule.next_fault() for _ in range(5)] == [
            "error", "nan", "latency", "none", "none",
        ]

    def test_cycling_script(self):
        schedule = FaultSchedule(script=("error", "none"), cycle=True)
        assert [schedule.next_fault() for _ in range(4)] == [
            "error", "none", "error", "none",
        ]

    def test_seeded_draws_are_reproducible(self):
        kwargs = dict(seed=7, error_rate=0.3, latency_rate=0.2, nan_rate=0.2)
        a = [FaultSchedule(**kwargs).next_fault() for _ in range(50)]
        b = [FaultSchedule(**kwargs).next_fault() for _ in range(50)]
        assert a == b
        assert {"error", "latency", "nan", "none"} >= set(a)
        assert set(a) != {"none"}

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(script=("explode",))
        with pytest.raises(ValueError):
            FaultSchedule(error_rate=0.7, nan_rate=0.7)
        with pytest.raises(ValueError):
            FaultSchedule(error_rate=-0.1)

    def test_corrupt_mask_hits_at_least_one_entry(self):
        schedule = FaultSchedule(seed=3)
        for n in (1, 2, 17):
            mask = schedule.corrupt_mask(n)
            assert mask.shape == (n,)
            assert mask.any()


class TestFaultyEstimator:
    def test_error_fault_raises_injected(self, exact):
        faulty = FaultyEstimator(exact, FaultSchedule(script=("error",)))
        with pytest.raises(InjectedFault):
            faulty.estimate(TileQuery(0, 2, 0, 2))
        assert faulty.injected["error"] == 1

    def test_passthrough_matches_wrapped(self, exact):
        faulty = FaultyEstimator(exact, FaultSchedule())
        q = TileQuery(1, 5, 2, 6)
        assert faulty.estimate(q) == exact.estimate(q)
        assert faulty.name == "Faulty(Exact)"

    def test_nan_fault_corrupts_scalar_counts(self, exact):
        faulty = FaultyEstimator(exact, FaultSchedule(script=("nan",)))
        counts = faulty.estimate(TileQuery(0, 2, 0, 2))
        assert np.isnan([counts.n_d, counts.n_cs, counts.n_cd, counts.n_o]).all()

    def test_latency_fault_calls_sleep(self, exact):
        slept = []
        faulty = FaultyEstimator(
            exact,
            FaultSchedule(script=("latency",), latency=0.25),
            sleep=slept.append,
        )
        faulty.estimate(TileQuery(0, 2, 0, 2))
        assert slept == [0.25]

    def test_batch_nan_fault_corrupts_subset(self, exact):
        faulty = FaultyBatchEstimator(exact, FaultSchedule(script=("nan",), seed=5))
        batch = browsing_tile_batch(REGION, 4, 6)
        result = faulty.estimate_batch(batch)
        bad = np.isnan(result.n_o)
        assert bad.any() and not bad.all()
        clean = faulty.estimate_batch(batch)  # script exhausted -> none
        assert np.isfinite(clean.n_o).all()


class TestFallbackChain:
    @pytest.fixture
    def coarse(self, grid, data):
        # 12x8 -> 6x4 -> 3x2: level 2 answers a 4x6 raster coarse.
        return HistogramPyramid(data, grid, min_cells=2)

    def test_failing_primary_falls_back_to_complete_raster(self, grid, exact, coarse):
        """Acceptance: FaultyEstimator failures on the estimator still
        yield a complete raster, answered by the pyramid."""
        failing = FaultyBatchEstimator(exact, FaultSchedule(script=("error",) * 10))
        service = ResilientBrowsingService(
            failing, grid, chunk_rows=2, pyramid=coarse, clock=FakeClock(),
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete and result.valid is None
        assert (result.levels == 2).all()
        step = service.pyramid.plan(REGION, 4, 6)[0]
        expected, _ = service.pyramid.raster(step, 4, 6, "n_o")
        np.testing.assert_array_equal(result.counts, expected)

    def test_a_failed_tier_is_called_once_and_the_next_answers(self, grid, exact, coarse):
        """An estimator that fails a chunk is not asked again for it: the
        pyramid answers, with one estimator call per chunk."""
        failing = FaultyBatchEstimator(exact, FaultSchedule(script=("error",)))
        service = ResilientBrowsingService(
            failing, grid, chunk_rows=2, pyramid=coarse, clock=FakeClock(),
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert failing.calls == 2
        assert (result.levels[:2] == 2).all() and (result.levels[2:] == -1).all()
        np.testing.assert_array_equal(
            result.counts[2:], reference_counts(exact, grid)[2:]
        )

    def test_nan_corruption_never_reaches_the_client(self, grid, exact, coarse):
        corrupt = FaultyBatchEstimator(exact, FaultSchedule(script=("nan",) * 10, seed=2))
        service = ResilientBrowsingService(
            corrupt, grid, chunk_rows=2, pyramid=coarse, clock=FakeClock(),
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        assert np.isfinite(result.counts).all()

    def test_all_estimators_failing_raises_estimator_failed(self, grid, exact):
        """Acceptance: a failed chunk without a pyramid raises
        EstimatorFailedError -- never a bare ValueError/KeyError."""
        failing = FaultyBatchEstimator(exact, FaultSchedule(script=("error",), cycle=True))
        service = ResilientBrowsingService(failing, grid, chunk_rows=2, clock=FakeClock())
        with pytest.raises(EstimatorFailedError) as excinfo:
            service.browse(REGION, rows=4, cols=6)
        assert isinstance(excinfo.value, BrowseError)
        assert isinstance(excinfo.value.__cause__, InjectedFault)


class TestDeadlines:
    def test_zero_deadline_yields_fully_masked_partial(self, grid, exact):
        """Acceptance: a ~0 deadline yields a partial raster whose
        validity mask marks the unanswered chunks."""
        service = ResilientBrowsingService(exact, grid, chunk_rows=2, clock=FakeClock())
        result = service.browse(REGION, rows=4, cols=6, deadline=0.0)
        assert not result.is_complete
        assert result.valid is not None and not result.valid.any()
        assert np.isnan(result.counts).all()
        assert result.valid_fraction == 0.0

    def test_mid_request_expiry_marks_remaining_rows(self, grid, exact):
        clock = FakeClock()
        slow = FaultyBatchEstimator(
            exact,
            FaultSchedule(script=("latency",), cycle=True, latency=0.6),
            sleep=clock.advance,
        )
        service = ResilientBrowsingService(slow, grid, chunk_rows=1, clock=clock)
        result = service.browse(REGION, rows=4, cols=6, deadline=1.0)
        assert result.valid is not None
        np.testing.assert_array_equal(result.valid.all(axis=1), [True, True, False, False])
        assert np.isfinite(result.counts[:2]).all()
        assert np.isnan(result.counts[2:]).all()
        np.testing.assert_array_equal(
            result.counts[:2], reference_counts(exact, grid, rows=4, cols=6)[:2]
        )

    def test_unbounded_request_matches_plain_service(self, grid, exact):
        service = ResilientBrowsingService(exact, grid, chunk_rows=3, clock=FakeClock())
        result = service.browse(REGION, rows=4, cols=6, relation="contains")
        np.testing.assert_array_equal(
            result.counts, reference_counts(exact, grid, relation="contains")
        )

    def test_partial_raster_renders_unanswered_tiles(self, grid, exact):
        service = ResilientBrowsingService(exact, grid, clock=FakeClock())
        art = service.browse(REGION, rows=4, cols=6, deadline=0.0).render_ascii()
        assert "?" in art and "nan" not in art


class TestErrorTaxonomy:
    def test_unknown_relation_is_invalid_region(self, grid, exact):
        service = ResilientBrowsingService(exact, grid, clock=FakeClock())
        with pytest.raises(InvalidRegionError):
            service.browse(REGION, rows=4, cols=6, relation="touches")

    def test_misaligned_world_rect_is_invalid_region(self, grid, exact):
        service = ResilientBrowsingService(exact, grid, clock=FakeClock())
        with pytest.raises(InvalidRegionError):
            service.browse(Rect(0.25, 11.75, 0.0, 8.0), rows=4, cols=6)

    def test_impossible_tiling_is_invalid_region(self, grid, exact):
        service = ResilientBrowsingService(exact, grid, clock=FakeClock())
        with pytest.raises(InvalidRegionError):
            service.browse(REGION, rows=5, cols=7)

    def test_plain_service_raises_the_same_taxonomy(self, grid, exact):
        """GeoBrowsingService shares the taxonomy (and stays a
        ValueError for pre-taxonomy callers)."""
        service = GeoBrowsingService(exact, grid)
        with pytest.raises(InvalidRegionError):
            service.browse(REGION, rows=4, cols=6, relation="touches")
        with pytest.raises(ValueError):
            service.browse(REGION, rows=4, cols=6, relation="touches")

    def test_plain_service_rejects_non_finite_answers(self, grid, exact):
        """A NaN-corrupted batch fails the plain form's single call
        instead of reaching the client as a 'complete' raster."""
        faulty = FaultyBatchEstimator(exact, FaultSchedule(script=("nan",)))
        with pytest.raises(EstimatorFailedError) as excinfo:
            GeoBrowsingService(faulty, grid).browse(REGION, rows=4, cols=6)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError) and "non-finite" in str(cause)
        assert faulty.calls == 1

    def test_plain_service_wraps_estimator_exceptions(self, grid, exact):
        faulty = FaultyBatchEstimator(exact, FaultSchedule(script=("error",)))
        with pytest.raises(EstimatorFailedError) as excinfo:
            GeoBrowsingService(faulty, grid).browse(REGION, rows=4, cols=6)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert faulty.calls == 1

    def test_every_chain_failure_is_a_browse_error(self, grid, exact):
        """Nothing outside the taxonomy escapes the serving layer."""
        primary = FaultyBatchEstimator(
            exact, FaultSchedule(seed=11, error_rate=0.5, nan_rate=0.5)
        )
        service = ResilientBrowsingService(primary, grid, chunk_rows=1, clock=FakeClock())
        for _ in range(5):
            try:
                result = service.browse(REGION, rows=4, cols=6)
            except Exception as exc:
                assert isinstance(exc, BrowseError)
            else:
                assert np.isfinite(result.counts).all()


class TestDeterministicFailures:
    """An estimator's answer depends only on the query, so a region it
    cannot answer fails on every request, once per request, and never
    changes how another region is served."""

    def test_a_non_finite_region_fails_alone(self, grid, hist):
        estimator = NanAtOrigin(SEulerApprox(hist))
        service = ResilientBrowsingService(estimator, grid)
        bad, healthy = TileQuery(0, 4, 0, 4), TileQuery(4, 12, 4, 8)
        for request in range(1, 4):
            with pytest.raises(EstimatorFailedError, match="non-finite"):
                service.browse(bad, rows=2, cols=2)
            assert estimator.calls == request
        result = service.browse(healthy, rows=2, cols=2)
        assert result.is_complete
        np.testing.assert_array_equal(
            result.counts,
            GeoBrowsingService(SEulerApprox(hist), grid).browse(healthy, rows=2, cols=2).counts,
        )


class TestFailureReasons:
    """``repro_tier_failures_total{reason}`` says who rejected a chunk:
    ``error`` when ``estimate_batch`` raised, whatever the exception
    type, ``bad_output`` when the chain's own checks rejected the
    answer."""

    @pytest.mark.parametrize(
        "failure, exc, reason",
        [
            ("raise", ValueError("bad query"), "error"),
            ("raise", IndexError("out of range"), "error"),
            ("raise", InjectedFault("down"), "error"),
            ("nan", None, "bad_output"),
            ("shape", None, "bad_output"),
        ],
        ids=["value-error", "index-error", "injected", "non-finite", "wrong-shape"],
    )
    def test_reason_label(self, grid, exact, failure, exc, reason):
        instruments = BrowseInstrumentation()
        broken = Broken(exact, failure, exc)
        chain = FallbackChain(broken, instruments=instruments)
        with pytest.raises(EstimatorFailedError):
            chain.estimate_chunk_tiered(browsing_tile_batch(REGION, 4, 6), "n_o")
        samples = instruments.registry.get("repro_tier_failures_total").samples()
        assert [(sample["labels"], sample["value"]) for sample in samples] == [
            ({"tier": broken.name, "reason": reason}, 1.0)
        ]


class TestWavePlan:
    """Waves are sized from the remaining budget: one chunk when the
    measured cost fits, ``chunk_rows`` chunks and the pyramid prefill
    when the service is cold or pressed."""

    @pytest.fixture
    def wide_data(self, rng):
        return random_dataset(rng, WIDE, 250, max_size_cells=4.0)

    @pytest.fixture
    def wide(self, wide_data):
        return SEulerApprox(EulerHistogram.from_dataset(wide_data, WIDE))

    @pytest.fixture
    def pyramid(self, wide_data):
        # 64x32 -> 32x16 -> 16x8 -> 8x4: the coarsest level is 3.
        return HistogramPyramid(wide_data, WIDE, min_cells=4)

    def test_zero_budget_never_fits_a_free_cost_sample(self, wide, pyramid):
        """A warmed service whose chunks cost 0 s on its clock still
        treats a zero budget as expired: the prefill runs and the raster
        comes back complete and coarse."""
        service = ResilientBrowsingService(wide, WIDE, pyramid=pyramid, clock=FakeClock())
        service.browse(WIDE_REGION, rows=32, cols=64)
        assert service.chunk_cost.seconds_per_tile == 0.0
        result = service.browse(WIDE_REGION, rows=32, cols=64, deadline=0.0)
        assert result.is_complete and result.valid_fraction == 1.0
        assert not result.full_resolution
        assert (result.levels == 3).all()

    def test_cold_service_chunks_and_prefills(self, wide, pyramid):
        instruments = BrowseInstrumentation()
        counting = FaultyBatchEstimator(wide, FaultSchedule())
        service = ResilientBrowsingService(
            counting, WIDE, chunk_rows=4, pyramid=pyramid,
            clock=FakeClock(), instruments=instruments,
        )
        result = service.browse(WIDE_REGION, rows=32, cols=64, deadline=1.0)
        assert counting.calls == 8
        assert waves_span(result).attrs == {"tiles": 2048, "plan": "cold", "chunks": 8}
        assert instruments.stage_seconds.labels(service="resilient", stage="pyramid").count == 1
        assert result.full_resolution and result.levels is None

    def test_warm_service_answers_in_one_chunk(self, wide, pyramid):
        instruments = BrowseInstrumentation()
        counting = FaultyBatchEstimator(wide, FaultSchedule())
        service = ResilientBrowsingService(
            counting, WIDE, chunk_rows=1, pyramid=pyramid,
            clock=FakeClock(), instruments=instruments,
        )
        want = service.browse(WIDE_REGION, rows=32, cols=64).counts
        calls = counting.calls
        result = service.browse(WIDE_REGION, rows=32, cols=64, deadline=1.0)
        assert counting.calls - calls == 1
        assert waves_span(result).attrs == {"tiles": 2048, "plan": "budget", "chunks": 1}
        # The prefill was skipped: no pyramid stage sample at all.
        assert instruments.stage_seconds.labels(service="resilient", stage="pyramid").count == 0
        assert result.full_resolution and result.levels is None
        np.testing.assert_array_equal(result.counts, want)

    def test_pressure_keeps_chunks_and_the_prefill(self, wide, pyramid):
        clock = FakeClock()
        slow = FaultyBatchEstimator(
            wide, FaultSchedule(script=("latency",), cycle=True, latency=0.6),
            sleep=clock.advance,
        )
        instruments = BrowseInstrumentation()
        service = ResilientBrowsingService(
            slow, WIDE, chunk_rows=2, pyramid=pyramid, clock=clock, instruments=instruments,
        )
        want = service.browse(WIDE_REGION, rows=8, cols=8).counts  # warm: 0.6 s / 16 tiles
        result = service.browse(WIDE_REGION, rows=8, cols=8, deadline=1.0)
        assert waves_span(result).attrs == {"tiles": 64, "plan": "pressure", "chunks": 4}
        assert instruments.stage_seconds.labels(service="resilient", stage="pyramid").count == 1
        # Two chunks fit before the budget ran out; the prefill covers
        # the rest with coarse counts.
        assert result.is_complete
        np.testing.assert_array_equal(result.levels[:4], -1)
        assert (result.levels[4:] >= 0).all()
        np.testing.assert_array_equal(result.counts[:4], want[:4])

    def test_pressure_keeps_mid_request_row_masking(self, grid, exact):
        clock = FakeClock()
        slow = FaultyBatchEstimator(
            exact,
            FaultSchedule(script=("latency",), cycle=True, latency=0.6),
            sleep=clock.advance,
        )
        service = ResilientBrowsingService(slow, grid, chunk_rows=1, clock=clock)
        service.browse(REGION, rows=4, cols=6)
        assert service.chunk_cost.seconds_per_tile == pytest.approx(0.1)
        result = service.browse(REGION, rows=4, cols=6, deadline=1.0)
        np.testing.assert_array_equal(result.valid.all(axis=1), [True, True, False, False])
        np.testing.assert_array_equal(
            result.counts[:2], reference_counts(exact, grid, rows=4, cols=6)[:2]
        )
        assert np.isnan(result.counts[2:]).all()

    def test_a_small_chunk_does_not_chunk_the_next_full_raster(self, rng):
        """The cost is a tile-weighted average over many chunks, so one
        overhead-dominated 2-tile chunk (0.5 ms per tile on its own)
        cannot make a 2,025-tile raster look like it misses 250 ms."""
        square = Grid(Rect(0.0, 45.0, 0.0, 45.0), 45, 45)
        whole = TileQuery(0, 45, 0, 45)
        hist = EulerHistogram.from_dataset(random_dataset(rng, square, 200), square)
        clock = FakeClock()
        timed = PerTileLatency(SEulerApprox(hist), clock, per_tile=1e-6, fixed=1e-3)
        instruments = BrowseInstrumentation()
        service = ResilientBrowsingService(
            timed, square, chunk_rows=4, clock=clock, instruments=instruments
        )
        service.browse(whole, rows=45, cols=45, deadline=0.25)  # cold: 12 chunks
        service.browse(TileQuery(0, 2, 0, 1), rows=1, cols=2, deadline=0.25)
        calls = timed.calls
        result = service.browse(whole, rows=45, cols=45, deadline=0.25)
        assert timed.calls - calls == 1
        assert waves_span(result).attrs["plan"] == "budget"
        assert result.is_complete
