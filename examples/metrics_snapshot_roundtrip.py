"""Telemetry round-trip check: degrade a browse, export the snapshot both
ways, assert the two wire formats agree.

This is the observability layer's acceptance scenario, run as a script so
CI can execute it under ``-W error::RuntimeWarning``:

1. serve a raster through :class:`ResilientBrowsingService` with a
   primary that fails every chunk it is sent, a slow fallback and a
   deadline that expires mid-raster -- all on a fake clock, so the run
   is deterministic;
2. export the resulting :class:`MetricsRegistry` as Prometheus text and
   as strict JSON;
3. parse both back and assert they flatten to the *same* sample map, and
   that the degradation actually showed up (tier failure counts, NaN
   tiles, per-stage latency mass).

Run:  python examples/metrics_snapshot_roundtrip.py
"""

import json

import numpy as np

from repro import EulerHistogram, Grid, SEulerApprox, by_name
from repro.browse.resilience import ResilientBrowsingService
from repro.exact.evaluator import ExactEvaluator
from repro.grid.tiles_math import TileQuery
from repro.obs import (
    BrowseInstrumentation,
    MetricsRegistry,
    parse_prometheus_text,
    samples_from_json,
    to_json,
    to_prometheus_text,
)
from repro.testing.faults import FaultSchedule, FaultyBatchEstimator


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def main() -> None:
    data = by_name("sp_skew", 2000, seed=7)
    grid = Grid(data.extent, 12, 8)
    exact = ExactEvaluator(data, grid)
    hist = EulerHistogram.from_dataset(data, grid)

    clock = FakeClock()
    instruments = BrowseInstrumentation(MetricsRegistry(clock=clock), clock=clock)
    primary = FaultyBatchEstimator(exact, FaultSchedule(script=("error",), cycle=True))
    fallback = FaultyBatchEstimator(
        SEulerApprox(hist),
        FaultSchedule(script=("latency",), cycle=True, latency=0.3),
        sleep=clock.advance,
    )
    service = ResilientBrowsingService(
        [primary, fallback], grid, chunk_rows=1, clock=clock, instruments=instruments,
    )
    result = service.browse(TileQuery(0, 12, 0, 8), rows=8, cols=6, deadline=1.5)

    assert not result.is_complete, "the deadline was supposed to expire"
    assert np.isnan(result.counts[~result.valid]).all()
    assert result.telemetry is not None and len(result.telemetry.spans) > 5

    registry = instruments.registry
    prom_text = to_prometheus_text(registry)
    json_text = to_json(registry)
    json.loads(json_text)  # strict: would reject NaN/Infinity literals

    prom_samples = parse_prometheus_text(prom_text)
    json_samples = samples_from_json(json_text)
    assert prom_samples == json_samples, "wire formats disagree"
    assert len(prom_samples) > 50

    def sample(key):
        assert key in prom_samples, f"missing sample {key}"
        return prom_samples[key]

    def tier_failures(tier):
        return sum(
            value
            for key, value in prom_samples.items()
            if key.startswith("repro_tier_failures_total{") and f'tier="{tier}"' in key
        )

    # The degradation left real fingerprints in the snapshot.  A tier is
    # called once per chunk, and only for the chunks the tier before it
    # failed, so the fallback answered the primary's failures minus its
    # own.
    assert sample('repro_tier_failures_total{reason="error",tier="Faulty(Exact)"}') == primary.calls
    fallback_chunks = tier_failures("Faulty(Exact)") - tier_failures("Faulty(S-EulerApprox)")
    assert fallback_chunks > 0
    assert sample('repro_browse_deadline_expirations_total{service="resilient"}') == 1
    answered = sample('repro_browse_tiles_total{outcome="answered",service="resilient"}')
    nan_tiles = sample('repro_browse_tiles_total{outcome="nan",service="resilient"}')
    assert answered + nan_tiles == 48 and nan_tiles > 0
    assert sample('repro_browse_stage_seconds_sum{service="resilient",stage="chunk"}') > 0

    print(f"round-trip OK: {len(prom_samples)} samples agree across both formats")
    print(
        f"degraded browse: {int(answered)}/48 tiles answered, "
        f"{int(nan_tiles)} NaN, fallback answered {int(fallback_chunks)} chunks"
    )


if __name__ == "__main__":
    main()
