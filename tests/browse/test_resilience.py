"""End-to-end tests of the resilient serving layer under injected faults.

Every degradation path is exercised deterministically: scripted fault
schedules, a fake clock, and a fake sleep that advances it -- no real
timers, no flakes.
"""

import numpy as np
import pytest

from repro.browse.resilience import (
    CircuitBreaker,
    FallbackChain,
    ResilientBrowsingService,
    RetryPolicy,
)
from repro.browse.service import GeoBrowsingService
from repro.errors import (
    BrowseError,
    DeadlineExceededError,
    EstimatorFailedError,
    InvalidRegionError,
)
from repro.euler.base import ScalarBatchFallback
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


class TestCircuitBreaker:
    def test_trips_after_k_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allows()

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allows()
        clock.advance(2.0)
        assert breaker.allows() and breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allows()
        breaker.record_failure()  # single probe failure re-opens immediately
        assert breaker.state == "open" and not breaker.allows()

    def test_trips_on_exactly_the_kth_failure(self):
        """The K-th consecutive failure -- not K+1 -- opens the breaker."""
        for threshold in (1, 2, 5):
            breaker = CircuitBreaker(failure_threshold=threshold, clock=FakeClock())
            for i in range(threshold - 1):
                breaker.record_failure()
                assert breaker.state == "closed", f"tripped early at failure {i + 1}"
            breaker.record_failure()
            assert breaker.state == "open"

    def test_failed_probe_restarts_the_cooldown(self):
        """Re-opening stamps a fresh opened_at: the next probe waits a
        full cooldown from the probe failure, not from the original trip."""
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()  # opens at t=0
        clock.advance(10.0)
        assert breaker.allows()  # probe admitted at t=10
        breaker.record_failure()  # probe fails -> re-opened at t=10
        clock.advance(9.9)  # t=19.9: only 9.9s since re-open
        assert not breaker.allows()
        clock.advance(0.1)  # t=20: full cooldown since re-open
        assert breaker.allows()

    def test_half_open_admits_exactly_one_probe(self):
        """Only the admitting allows() call wins; until the probe's
        outcome is recorded every other caller is rejected."""
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allows()  # the probe
        assert not breaker.allows()  # concurrent caller: rejected
        assert not breaker.allows()
        breaker.record_success()
        assert breaker.allows()  # closed again: normal traffic

    def test_state_reads_do_not_admit_the_probe(self):
        """Reading .state is pure -- only allows() may transition the
        breaker to half-open (the chain relies on this mid-retry)."""
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        for _ in range(3):
            assert breaker.state == "open"
        assert breaker.allows()  # the probe is still available
        assert breaker.state == "half_open"

    def test_transition_hook_sees_every_state_change(self):
        clock = FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=1.0, clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        breaker.record_failure()  # trip
        clock.advance(1.0)
        breaker.allows()  # admit the probe
        breaker.record_failure()  # failed probe re-opens
        clock.advance(1.0)
        breaker.allows()
        breaker.record_success()  # recovered
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_redundant_success_fires_no_transition(self):
        transitions = []
        breaker = CircuitBreaker(
            clock=FakeClock(),
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_success()  # already closed: no-op transition
        assert transitions == []


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(attempts=4, backoff_base=0.1, backoff_multiplier=2.0)
        assert [policy.delay(i) for i in range(3)] == [0.1, 0.2, 0.4]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)


class TestFallbackChain:
    def test_failing_primary_falls_back_to_complete_raster(self, grid, exact, hist):
        """Acceptance: FaultyEstimator failures on the primary still yield
        a complete raster, answered by the fallback."""
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error",) * 10))
        service = ResilientBrowsingService(
            [primary, SEulerApprox(hist)], grid, chunk_rows=2,
            retry=RetryPolicy(attempts=1), clock=FakeClock(), sleep=lambda s: None,
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete and result.valid is None
        expected = GeoBrowsingService(SEulerApprox(hist), grid).browse(
            REGION, rows=4, cols=6
        )
        np.testing.assert_array_equal(result.counts, expected.counts)

    def test_transient_fault_recovered_by_retry(self, grid, exact):
        slept = []
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error",)))
        service = ResilientBrowsingService(
            [primary], grid, chunk_rows=8,
            retry=RetryPolicy(attempts=2, backoff_base=0.5),
            clock=FakeClock(), sleep=slept.append,
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        np.testing.assert_array_equal(result.counts, reference_counts(exact, grid))
        assert slept == [0.5]  # one deterministic backoff before the retry

    def test_nan_corruption_never_reaches_the_client(self, grid, exact, hist):
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("nan",) * 10, seed=2))
        service = ResilientBrowsingService(
            [primary, SEulerApprox(hist)], grid, chunk_rows=2,
            retry=RetryPolicy(attempts=1), clock=FakeClock(), sleep=lambda s: None,
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        assert np.isfinite(result.counts).all()

    def test_all_estimators_failing_raises_estimator_failed(self, grid, exact, hist):
        """Acceptance: exhausting the chain raises EstimatorFailedError --
        never a bare ValueError/KeyError."""
        chain = [
            FaultyBatchEstimator(exact, FaultSchedule(script=("error",), cycle=True)),
            FaultyBatchEstimator(
                SEulerApprox(hist), FaultSchedule(script=("nan",), cycle=True, seed=9)
            ),
        ]
        service = ResilientBrowsingService(
            chain, grid, chunk_rows=2,
            retry=RetryPolicy(attempts=2), clock=FakeClock(), sleep=lambda s: None,
        )
        with pytest.raises(EstimatorFailedError) as excinfo:
            service.browse(REGION, rows=4, cols=6)
        assert isinstance(excinfo.value, BrowseError)
        assert len(excinfo.value.causes) == 2
        assert isinstance(excinfo.value.causes[0], InjectedFault)

    def test_breaker_trips_and_skips_the_primary(self, grid, exact, hist):
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error",), cycle=True))
        service = ResilientBrowsingService(
            [primary, SEulerApprox(hist)], grid, chunk_rows=1,
            failure_threshold=3, cooldown=60.0,
            retry=RetryPolicy(attempts=1), clock=FakeClock(), sleep=lambda s: None,
        )
        result = service.browse(REGION, rows=8, cols=6)
        assert result.is_complete
        primary_tier = service.chain.tiers[0]
        assert primary_tier.breaker.state == "open"
        # 3 failures tripped it; the remaining 5 chunks never touched it.
        assert primary.calls == 3
        assert primary_tier.attempts == 3

    def test_half_open_probe_restores_the_primary(self, grid, exact, hist):
        clock = FakeClock()
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error",) * 2))
        service = ResilientBrowsingService(
            [primary, SEulerApprox(hist)], grid, chunk_rows=8,
            failure_threshold=2, cooldown=10.0,
            retry=RetryPolicy(attempts=2), clock=clock, sleep=lambda s: None,
        )
        service.browse(REGION, rows=4, cols=6)  # trips the primary open
        assert service.chain.tiers[0].breaker.state == "open"
        clock.advance(10.0)
        result = service.browse(REGION, rows=4, cols=6)  # half-open probe succeeds
        assert service.chain.tiers[0].breaker.state == "closed"
        np.testing.assert_array_equal(result.counts, reference_counts(exact, grid))

    def test_mid_chunk_trip_stops_retrying_the_tier(self, grid, exact, hist):
        """Once a tier trips open mid-chunk, remaining retries are not
        spent on it -- the chunk falls through immediately."""
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error",) * 10))
        service = ResilientBrowsingService(
            [primary, SEulerApprox(hist)], grid, chunk_rows=8,
            failure_threshold=1, cooldown=60.0,
            retry=RetryPolicy(attempts=3), clock=FakeClock(), sleep=lambda s: None,
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        assert primary.calls == 1  # tripped on the first failure, never retried

    def test_zero_cooldown_trip_does_not_burn_the_probe(self, grid, exact, hist):
        """Regression: the mid-retry open check must not call allows() --
        with a zero cooldown that would admit (and burn) the half-open
        probe inside the same chunk's retry loop."""
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error", "error")))
        service = ResilientBrowsingService(
            [primary, SEulerApprox(hist)], grid, chunk_rows=2,
            failure_threshold=1, cooldown=0.0,
            retry=RetryPolicy(attempts=2), clock=FakeClock(), sleep=lambda s: None,
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        # Exactly one attempt per chunk: the trip ends chunk 1's retries,
        # and chunk 2 spends the single half-open probe (which fails and
        # re-opens).  The buggy check produced a third call here.
        assert primary.calls == 2
        assert service.chain.tiers[0].successes == 0

    def test_timeout_overrun_counts_as_failure(self, grid, exact, hist):
        clock = FakeClock()
        primary = FaultyBatchEstimator(
            exact,
            FaultSchedule(script=("latency",), cycle=True, latency=0.5),
            sleep=clock.advance,
        )
        service = ResilientBrowsingService(
            [primary, SEulerApprox(hist)], grid, chunk_rows=8,
            attempt_timeout=0.1, retry=RetryPolicy(attempts=1),
            clock=clock, sleep=lambda s: None,
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        assert service.chain.tiers[0].failures == 1
        assert service.chain.tiers[1].successes == 1

    def test_scalar_loop_as_last_resort_tier(self, grid, exact, hist):
        """The scalar loop rides the chain as a ScalarBatchFallback tier."""
        primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error",), cycle=True))
        service = ResilientBrowsingService(
            [primary, ScalarBatchFallback(SEulerApprox(hist))], grid, chunk_rows=4,
            retry=RetryPolicy(attempts=1), clock=FakeClock(), sleep=lambda s: None,
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        expected = GeoBrowsingService(ScalarBatchFallback(SEulerApprox(hist)), grid).browse(
            REGION, rows=4, cols=6
        )
        np.testing.assert_array_equal(result.counts, expected.counts)


class TestDeadlines:
    def test_zero_deadline_yields_fully_masked_partial(self, grid, exact):
        """Acceptance: a ~0 deadline yields a partial raster whose
        validity mask marks the unanswered chunks."""
        service = ResilientBrowsingService([exact], grid, chunk_rows=2, clock=FakeClock())
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
        service = ResilientBrowsingService([slow], grid, chunk_rows=1, clock=clock)
        result = service.browse(REGION, rows=4, cols=6, deadline=1.0)
        assert result.valid is not None
        np.testing.assert_array_equal(result.valid.all(axis=1), [True, True, False, False])
        assert np.isfinite(result.counts[:2]).all()
        assert np.isnan(result.counts[2:]).all()
        np.testing.assert_array_equal(
            result.counts[:2], reference_counts(exact, grid, rows=4, cols=6)[:2]
        )

    def test_on_deadline_raise(self, grid, exact):
        service = ResilientBrowsingService([exact], grid, clock=FakeClock())
        with pytest.raises(DeadlineExceededError) as excinfo:
            service.browse(REGION, rows=4, cols=6, deadline=0.0, on_deadline="raise")
        assert excinfo.value.answered_rows == 0
        assert excinfo.value.total_rows == 4

    def test_unbounded_request_matches_plain_service(self, grid, exact):
        service = ResilientBrowsingService([exact], grid, chunk_rows=3, clock=FakeClock())
        result = service.browse(REGION, rows=4, cols=6, relation="contains")
        np.testing.assert_array_equal(
            result.counts, reference_counts(exact, grid, relation="contains")
        )

    def test_partial_raster_renders_unanswered_tiles(self, grid, exact):
        service = ResilientBrowsingService([exact], grid, clock=FakeClock())
        art = service.browse(REGION, rows=4, cols=6, deadline=0.0).render_ascii()
        assert "?" in art and "nan" not in art

    def test_bad_on_deadline_value(self, grid, exact):
        service = ResilientBrowsingService([exact], grid, clock=FakeClock())
        with pytest.raises(ValueError):
            service.browse(REGION, rows=4, cols=6, on_deadline="explode")


class TestErrorTaxonomy:
    def test_unknown_relation_is_invalid_region(self, grid, exact):
        service = ResilientBrowsingService([exact], grid, clock=FakeClock())
        with pytest.raises(InvalidRegionError):
            service.browse(REGION, rows=4, cols=6, relation="touches")

    def test_misaligned_world_rect_is_invalid_region(self, grid, exact):
        service = ResilientBrowsingService([exact], grid, clock=FakeClock())
        with pytest.raises(InvalidRegionError):
            service.browse(Rect(0.25, 11.75, 0.0, 8.0), rows=4, cols=6)

    def test_impossible_tiling_is_invalid_region(self, grid, exact):
        service = ResilientBrowsingService([exact], grid, clock=FakeClock())
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
        """A NaN-corrupted batch fails the plain form's single attempt
        instead of reaching the client as a 'complete' raster."""
        faulty = FaultyBatchEstimator(exact, FaultSchedule(script=("nan",)))
        with pytest.raises(EstimatorFailedError) as excinfo:
            GeoBrowsingService(faulty, grid).browse(REGION, rows=4, cols=6)
        (cause,) = excinfo.value.causes
        assert isinstance(cause, ValueError) and "non-finite" in str(cause)
        assert faulty.calls == 1

    def test_plain_service_wraps_estimator_exceptions(self, grid, exact):
        faulty = FaultyBatchEstimator(exact, FaultSchedule(script=("error",)))
        with pytest.raises(EstimatorFailedError) as excinfo:
            GeoBrowsingService(faulty, grid).browse(REGION, rows=4, cols=6)
        (cause,) = excinfo.value.causes
        assert isinstance(cause, InjectedFault)
        assert faulty.calls == 1

    def test_every_chain_failure_is_a_browse_error(self, grid, exact):
        """Nothing outside the taxonomy escapes the serving layer."""
        primary = FaultyBatchEstimator(
            exact, FaultSchedule(seed=11, error_rate=0.5, nan_rate=0.5)
        )
        service = ResilientBrowsingService(
            [primary], grid, chunk_rows=1,
            retry=RetryPolicy(attempts=1), clock=FakeClock(), sleep=lambda s: None,
        )
        for _ in range(5):
            try:
                result = service.browse(REGION, rows=4, cols=6)
            except Exception as exc:
                assert isinstance(exc, BrowseError)
            else:
                assert np.isfinite(result.counts).all()


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

    def test_a_wave_never_outgrows_the_attempt_timeout(self, wide):
        """0.1 ms per tile: each 4-row chunk of a 32x64 raster takes
        25.6 ms, inside the 50 ms attempt limit, but one merged attempt
        would take 204.8 ms and fail the healthy primary over."""
        clock = FakeClock()
        primary = PerTileLatency(wide, clock, per_tile=1e-4)
        service = ResilientBrowsingService(
            [primary, wide], WIDE, chunk_rows=4, attempt_timeout=0.05,
            retry=RetryPolicy(attempts=1), clock=clock, sleep=lambda s: None,
        )
        want = service.browse(WIDE_REGION, rows=32, cols=64).counts
        result = service.browse(WIDE_REGION, rows=32, cols=64, deadline=10.0)
        assert primary.calls == 16
        primary_tier, fallback_tier = service.chain.tiers
        assert primary_tier.failures == 0 and fallback_tier.attempts == 0
        np.testing.assert_array_equal(result.counts, want)

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
        service = ResilientBrowsingService([slow], grid, chunk_rows=1, clock=clock)
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
