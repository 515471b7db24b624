"""Telemetry round-trip check: degrade a browse, export the snapshot both
ways, assert the two wire formats agree.

This is the observability layer's acceptance scenario, run as a script so
CI can execute it under ``-W error::RuntimeWarning``:

1. serve two rasters through :class:`ResilientBrowsingService` into one
   registry: one with an estimator that fails every other chunk and is
   slow on the rest, and a :class:`HistogramPyramid` that rescues each
   failed chunk; one with a slow estimator, no pyramid and a deadline
   that expires mid-raster -- all on a fake clock, so the run is
   deterministic;
2. export the resulting :class:`MetricsRegistry` as Prometheus text and
   as strict JSON;
3. parse both back and assert they flatten to the *same* sample map, and
   that the degradation actually showed up (estimator failure and
   pyramid rescue counts, NaN tiles, per-stage latency mass).

Run:  python examples/metrics_snapshot_roundtrip.py
"""

import json

import numpy as np

from repro import EulerHistogram, Grid, HistogramPyramid, SEulerApprox, by_name
from repro.browse.resilience import ResilientBrowsingService
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
    hist = EulerHistogram.from_dataset(data, grid)

    clock = FakeClock()
    instruments = BrowseInstrumentation(MetricsRegistry(clock=clock), clock=clock)
    # The estimator fails every other chunk and is slow on the rest; the
    # pyramid (12x8 -> 6x4 -> 3x2 cells) rescues each failed chunk from
    # its coarsest level.
    faulty = FaultyBatchEstimator(
        SEulerApprox(hist),
        FaultSchedule(script=("error", "latency"), cycle=True, latency=0.3),
        sleep=clock.advance,
    )
    service = ResilientBrowsingService(
        faulty, grid, chunk_rows=1, clock=clock, instruments=instruments,
        pyramid=HistogramPyramid(data, grid, min_cells=2),
    )
    region = TileQuery(0, 12, 0, 8)
    result = service.browse(region, rows=8, cols=6, deadline=1.5)

    assert result.is_complete and not result.full_resolution, "nothing was rescued"
    assert (result.levels[::2] == 2).all() and (result.levels[1::2] == -1).all()
    assert result.telemetry is not None and len(result.telemetry.spans) > 5

    # Without a pyramid, the rows past the deadline stay NaN.
    slow = FaultyBatchEstimator(
        SEulerApprox(hist),
        FaultSchedule(script=("latency",), cycle=True, latency=0.3),
        sleep=clock.advance,
    )
    partial = ResilientBrowsingService(
        slow, grid, chunk_rows=1, clock=clock, instruments=instruments,
    ).browse(region, rows=8, cols=6, deadline=1.5)

    assert not partial.is_complete, "the deadline was supposed to expire"
    assert np.isnan(partial.counts[~partial.valid]).all()

    registry = instruments.registry
    prom_text = to_prometheus_text(registry)
    json_text = to_json(registry)
    json.loads(json_text)  # strict: would reject NaN/Infinity literals

    prom_samples = parse_prometheus_text(prom_text)
    json_samples = samples_from_json(json_text)
    assert prom_samples == json_samples, "wire formats disagree"
    # No gateway ran, so the snapshot carries no gateway family.
    assert not [key for key in prom_samples if key.startswith("repro_gateway_")]

    def sample(key):
        assert key in prom_samples, f"missing sample {key}"
        return prom_samples[key]

    # The degradation left real fingerprints in the snapshot: one
    # estimator call per chunk, every other one failed and rescued; the
    # slow estimator never failed, and its deadline left NaN tiles.
    assert faulty.calls == 8
    failures = sample('repro_tier_failures_total{reason="error",tier="Faulty(S-EulerApprox)"}')
    rescues = sample('repro_pyramid_rescued_chunks_total{service="resilient"}')
    assert failures == rescues == 4
    assert sample('repro_browse_deadline_expirations_total{service="resilient"}') == 1
    answered = sample('repro_browse_tiles_total{outcome="answered",service="resilient"}')
    nan_tiles = sample('repro_browse_tiles_total{outcome="nan",service="resilient"}')
    assert answered + nan_tiles == 96 and nan_tiles == 48 - partial.valid.sum() > 0
    assert sample('repro_browse_stage_seconds_sum{service="resilient",stage="chunk"}') > 0

    print(f"round-trip OK: {len(prom_samples)} samples agree across both formats")
    print(
        f"degraded browses: {int(rescues)} of {faulty.calls} chunks rescued from "
        f"pyramid level 2; {int(nan_tiles)}/48 tiles NaN past the deadline"
    )


if __name__ == "__main__":
    main()
