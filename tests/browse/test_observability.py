"""Integration tests of the observability layer over the serving stack.

The acceptance scenario: degraded browses (a deadline that leaves NaN
tiles, fault injection with a pyramid rescue) must produce a telemetry
snapshot showing estimator failure and rescue counts, per-stage latency
histograms and NaN-tile counts -- and the snapshot must export
identically via Prometheus text and JSON.
"""

import numpy as np
import pytest

from repro.browse.delta import DeltaTracker
from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import GeoBrowsingService
from repro.cache import TileResultCache
from repro.euler.base import ScalarBatchFallback
from repro.euler.histogram import EulerHistogram
from repro.euler.pyramid import HistogramPyramid
from repro.euler.simple import SEulerApprox
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs import (
    AccuracyProbe,
    BrowseInstrumentation,
    MetricsRegistry,
    parse_prometheus_text,
    samples_from_json,
    set_default_registry,
    to_json,
    to_prometheus_text,
)
from repro.testing.faults import FaultSchedule, FaultyBatchEstimator
from repro.errors import SummaryCorruptError

from tests.conftest import random_dataset

REGION = TileQuery(0, 12, 0, 8)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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


def partial_browse(grid, hist, clock, instruments):
    """A scripted partial request: a slow estimator, no pyramid and a
    deadline that expires mid-raster, so the rows past it stay NaN."""
    slow = FaultyBatchEstimator(
        SEulerApprox(hist),
        FaultSchedule(script=("latency",), cycle=True, latency=0.3),
        sleep=clock.advance,
    )
    service = ResilientBrowsingService(
        slow, grid, chunk_rows=1, clock=clock, instruments=instruments,
    )
    return service.browse(REGION, rows=8, cols=6, deadline=1.5)


def rescued_browse(grid, data, hist, clock, instruments):
    """A scripted degraded request: an estimator that fails every other
    chunk and is slow on the rest, a pyramid that rescues the failed
    chunks, a deadline that expires mid-raster.  Returns the result and
    the estimator's call count."""
    faulty = FaultyBatchEstimator(
        SEulerApprox(hist),
        FaultSchedule(script=("error", "latency"), cycle=True, latency=0.5),
        sleep=clock.advance,
    )
    service = ResilientBrowsingService(
        faulty, grid, chunk_rows=1, clock=clock, instruments=instruments,
        # 12x8 -> 6x4 -> 3x2: both coarse levels answer an 8x6 raster.
        pyramid=HistogramPyramid(data, grid, min_cells=2),
    )
    return service.browse(REGION, rows=8, cols=6, deadline=1.5), faulty.calls


class TestPlainServiceTelemetry:
    def test_result_carries_a_trace(self, grid, exact):
        clock = FakeClock()
        instruments = BrowseInstrumentation(
            MetricsRegistry(clock=clock), clock=clock
        )
        service = GeoBrowsingService(exact, grid, instruments=instruments)
        result = service.browse(REGION, rows=4, cols=6)
        assert result.telemetry is not None
        names = [s.name for s in result.telemetry.spans]
        assert names == ["browse", "resolve", "waves", "chunk", "attempt:Exact", "assemble"]
        # The plain form answers the whole raster as one chunk.
        assert result.telemetry.spans[3].attrs == {"rows": "0:4", "tiles": 24}

    def test_request_and_stage_metrics(self, grid, exact):
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            exact, grid, instruments=instruments,
            cache=TileResultCache(), delta=DeltaTracker(),
        )
        service.browse(REGION, rows=4, cols=6)
        service.browse(REGION, rows=4, cols=6, relation="contains")
        reg = instruments.registry
        assert reg.get("repro_browse_requests_total").labels(
            service="plain", relation="overlap"
        ).value == 1
        assert reg.get("repro_browse_requests_total").labels(
            service="plain", relation="contains"
        ).value == 1
        assert instruments.request_seconds.labels(service="plain").count == 2
        # Every stage the plain form runs (it has no pyramid; see
        # test_refine for that stage) fed its stage histogram per request.
        for stage in ("resolve", "delta", "cache_probe", "waves", "chunk", "assemble"):
            assert instruments.stage_seconds.labels(service="plain", stage=stage).count == 2
        assert instruments.tiles.labels(service="plain", outcome="answered").value == 48

    def test_uninstrumented_service_has_no_telemetry(self, grid, exact):
        result = GeoBrowsingService(exact, grid).browse(REGION, rows=4, cols=6)
        assert result.telemetry is None

    def test_scalar_path_is_traced_too(self, grid, exact):
        instruments = BrowseInstrumentation()
        service = GeoBrowsingService(
            ScalarBatchFallback(exact), grid, instruments=instruments
        )
        result = service.browse(REGION, rows=4, cols=6)
        attempts = [s.name for s in result.telemetry.spans if s.name.startswith("attempt:")]
        assert attempts == ["attempt:Exact"]
        assert isinstance(service.chain.tiers[0], ScalarBatchFallback)


class TestDegradedBrowseTelemetry:
    @pytest.fixture
    def snapshot(self, grid, data, hist):
        """Two degraded requests on one registry: a partial raster (the
        deadline leaves NaN tiles) and a rescued one (the pyramid answers
        the failed chunks and the rows past the deadline)."""
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        instruments = BrowseInstrumentation(registry, clock=clock)
        partial = partial_browse(grid, hist, clock, instruments)
        rescued, calls = rescued_browse(grid, data, hist, clock, instruments)
        return partial, rescued, instruments, calls

    def test_partial_raster_with_telemetry(self, snapshot):
        partial, rescued, _, _ = snapshot
        assert not partial.is_complete
        # Complete, but only partly at full resolution.
        assert rescued.is_complete and not rescued.full_resolution
        for result in (partial, rescued):
            assert result.telemetry is not None
            root = result.telemetry.spans[0]
            assert root.attrs["deadline_expired"] is True
            assert root.attrs["valid_fraction"] == result.valid_fraction
        assert partial.telemetry.spans[0].attrs["valid_fraction"] < 1.0

    def test_tier_fallback_counts(self, snapshot):
        _, _, instruments, calls = snapshot
        failures = instruments.registry.get("repro_tier_failures_total")
        # Six chunks reached the failing estimator before the deadline,
        # one call each; it failed every other one, and the pyramid
        # rescued each failure.  The slow estimator never failed.
        assert calls == 6
        assert failures.labels(tier="Faulty(S-EulerApprox)", reason="error").value == 3
        assert instruments.pyramid_rescues.labels(service="resilient").value == 3
        assert [s["labels"]["tier"] for s in failures.samples()] == ["Faulty(S-EulerApprox)"]

    def test_deadline_and_nan_tile_counters(self, snapshot):
        partial, rescued, instruments, _ = snapshot
        reg = instruments.registry
        assert reg.get("repro_browse_deadline_expirations_total").labels(
            service="resilient"
        ).value == 2
        # The rescued request's prefill answered every tile its fine path
        # did not reach; the partial request left them NaN.
        assert rescued.valid_fraction == 1.0
        answered = int(partial.valid.sum())
        tiles = reg.get("repro_browse_tiles_total")
        assert tiles.labels(service="resilient", outcome="answered").value == 48 + answered
        assert tiles.labels(service="resilient", outcome="nan").value == 48 - answered > 0
        assert instruments.deadline_margin.labels(service="resilient").value <= 0.0

    def test_stage_latency_histogram_recorded(self, snapshot):
        _, _, instruments, _ = snapshot
        chunk = instruments.stage_seconds.labels(service="resilient", stage="chunk")
        assert chunk.count > 0
        assert chunk.sum > 0.0  # the injected latency is on the same clock

    def test_waves_span_says_why_the_raster_was_chunked(self, snapshot):
        partial, _, _, _ = snapshot
        # A cold service (no chunk measured yet) answers in chunk_rows
        # chunks; the span and its rendering name the plan.
        waves = next(s for s in partial.telemetry.spans if s.name == "waves")
        assert (waves.attrs["plan"], waves.attrs["chunks"]) == ("cold", 8)
        assert "plan=cold chunks=8" in partial.telemetry.render()

    def test_trace_has_attempt_spans_with_errors(self, snapshot):
        _, rescued, _, _ = snapshot
        attempts = [s for s in rescued.telemetry.spans if s.name.startswith("attempt:")]
        assert any(s.attrs.get("error") == "InjectedFault" for s in attempts)
        assert any("error" not in s.attrs for s in attempts)

    def test_exports_agree(self, snapshot):
        """Acceptance: the snapshot exports identically via Prometheus
        text and JSON."""
        _, _, instruments, _ = snapshot
        prom = parse_prometheus_text(to_prometheus_text(instruments.registry))
        doc = samples_from_json(to_json(instruments.registry))
        assert prom == doc
        assert 'repro_tier_failures_total{reason="error",tier="Faulty(S-EulerApprox)"}' in prom
        assert prom['repro_browse_tiles_total{outcome="nan",service="resilient"}'] > 0


class TestPersistenceTelemetry:
    def test_save_load_and_corruption_recorded(self, hist, tmp_path):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            path = tmp_path / "hist.npz"
            hist.save(path)
            EulerHistogram.load(path)
            raw = path.read_bytes()
            (tmp_path / "bad.npz").write_bytes(raw[: len(raw) // 2])
            with pytest.raises(SummaryCorruptError):
                EulerHistogram.load(tmp_path / "bad.npz")
        finally:
            set_default_registry(previous)
        ops = registry.get("repro_persistence_ops_total")
        kind = "Euler histogram"
        assert ops.labels(kind=kind, op="save", outcome="ok").value == 1
        assert ops.labels(kind=kind, op="load", outcome="ok").value == 1
        assert ops.labels(kind=kind, op="verify", outcome="ok").value >= 1
        assert ops.labels(kind=kind, op="load", outcome="unreadable").value == 1

    def test_no_default_registry_is_a_noop(self, hist, tmp_path):
        assert set_default_registry(None) is None  # already none in tests
        hist.save(tmp_path / "hist.npz")  # must not raise


class TestAccuracyProbe:
    def test_exact_estimator_scores_zero_error(self, grid, exact):
        registry = MetricsRegistry()
        probe = AccuracyProbe(exact, registry, sample_size=8)
        instruments = BrowseInstrumentation(registry, accuracy=probe)
        service = ResilientBrowsingService(
            exact, grid, clock=FakeClock(), instruments=instruments
        )
        result = service.browse(REGION, rows=4, cols=6)
        assert result.is_complete
        assert registry.get("repro_accuracy_samples_total").labels(
            relation="overlap"
        ).value == 8
        assert registry.get("repro_accuracy_error_sum_total").labels(
            relation="overlap"
        ).value == 0.0
        assert registry.get("repro_accuracy_running_are").labels(
            relation="overlap"
        ).value == 0.0
        probe_spans = [s for s in result.telemetry.spans if s.name == "accuracy_probe"]
        assert len(probe_spans) == 1
        assert probe_spans[0].attrs["tiles_sampled"] == 8

    def test_approximate_estimator_records_error_mass(self, grid, exact, hist):
        registry = MetricsRegistry()
        probe = AccuracyProbe(exact, registry, sample_size=24)
        instruments = BrowseInstrumentation(registry, accuracy=probe)
        service = ResilientBrowsingService(
            SEulerApprox(hist), grid, clock=FakeClock(), instruments=instruments
        )
        service.browse(REGION, rows=8, cols=12, relation="contains")
        truth_sum = registry.get("repro_accuracy_truth_sum_total").labels(
            relation="contains"
        ).value
        assert truth_sum > 0
        assert registry.get("repro_accuracy_abs_error").labels(
            relation="contains"
        ).count == 24

    def test_partial_raster_samples_only_answered_tiles(self, grid, exact):
        clock = FakeClock()
        slow = FaultyBatchEstimator(
            exact,
            FaultSchedule(script=("latency",), cycle=True, latency=0.6),
            sleep=clock.advance,
        )
        registry = MetricsRegistry(clock=clock)
        probe = AccuracyProbe(exact, registry, sample_size=100)
        instruments = BrowseInstrumentation(registry, clock=clock, accuracy=probe)
        service = ResilientBrowsingService(
            slow, grid, chunk_rows=1, clock=clock, instruments=instruments
        )
        result = service.browse(REGION, rows=4, cols=6, deadline=1.0)
        answered = int(result.valid.sum())
        assert 0 < answered < 24
        assert registry.get("repro_accuracy_samples_total").labels(
            relation="overlap"
        ).value == answered

    def test_zero_truth_emits_no_inf(self, grid):
        """An all-empty region keeps the ratio gauge unset, so the JSON
        export stays strict-parseable (the acceptance criterion's 'no
        NaN-polluted output' for telemetry)."""
        import json

        from repro.datasets.base import RectDataset

        empty = RectDataset.empty(grid.extent)
        exact_empty = ExactEvaluator(empty, grid)
        registry = MetricsRegistry()
        probe = AccuracyProbe(exact_empty, registry, sample_size=4)
        instruments = BrowseInstrumentation(registry, accuracy=probe)
        service = ResilientBrowsingService(
            exact_empty, grid, clock=FakeClock(), instruments=instruments
        )
        service.browse(REGION, rows=4, cols=6)
        samples = registry.get("repro_accuracy_running_are").samples()
        assert samples == []  # never set: truth sum is zero
        document = to_json(registry)
        json.loads(document)
        assert "Infinity" not in document
