"""The serving workloads: ``repro serve --pyramid`` driven in process.

Each request runs the NDJSON server's per-line steps on the event loop
(``json.loads`` -> ``parse_request`` -> ``Gateway.submit`` ->
``GatewayResponse.to_wire`` -> ``json.dumps``); only the socket hop is
left out, because the server answers one line at a time per connection
and an open loop over a few connections would measure client-side
queueing instead of the gateway.  The generator runs only on the event
loop: no extra threads, no connections.  Latency counts from each
request's due time, so a stall also charges the requests it delayed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.browse.service import GeoBrowsingService
from repro.cache import TileResultCache
from repro.euler.histogram import EulerHistogram
from repro.euler.pyramid import HistogramPyramid
from repro.euler.simple import SEulerApprox
from repro.gateway import Gateway, TenantCatalog
from repro.gateway.server import parse_request

import spans as span_mod
import traffic
from prepare import SERVING_DATASETS, Inputs
from stats import percentile
from traffic import TENANTS, THINK_S, TrafficSpec

#: ``repro serve`` defaults; two workers equals ``nproc`` on the
#: two-core machines this benchmark was calibrated on.
WORKERS = 2
MAX_PENDING = 64
CHUNK_ROWS = 4
CACHE_BYTES = 8 << 20

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 15

#: Every ``CHECK_EVERY``-th request of the plan is re-answered after the
#: window by a fresh uncached service and compared bit for bit.
CHECK_EVERY = 16

SPECS = {
    # About a fifth of the one core the GIL allows, so requests seldom
    # queue behind each other and the p50 follows the machine's speed
    # instead of amplifying it.  Every start is a 90x45-cell viewport
    # tiled 45x45 (2,025 tiles), so the cost of a request does not depend
    # on which sizes a seed happens to draw.
    "pan": TrafficSpec(
        "pan",
        sessions_per_s=2.0,
        steps=16,
        start_cells=(90, 45),
        partitions=(45, 45),
        pan_prob=0.95,
        pan_fraction=0.05,
        trace_depth=100,
        deadlines=(0.25,),
    ),
    "zoom": TrafficSpec(
        "zoom",
        sessions_per_s=20.0,
        steps=3,
        start_cells=(180, 90),
        partitions=(2, 45),
        trace_depth=5,
        deadlines=(0.25,),
    ),
    # A flash crowd each second: 192 sessions at once, each asking for one
    # of 128 fixed full rasters of 8 hot viewports, so most are cache hits
    # and many coalesce.  About 100 distinct rasters per crowd overrun the
    # 64-slot admission queue, and the rest of the crowd is shed.  The
    # crowd drains in about a third of its second, so every crowd meets
    # an empty gateway: a sustained overload would instead grow its
    # backlog for as long as the window lasts, and its latency would have
    # no steady value.
    "overload": TrafficSpec(
        "overload",
        sessions_per_s=0.0,
        steps=1,
        start_cells=(120, 60),
        partitions=(30, 60),
        trace_depth=5,
        deadlines=(0.05, 1.0),
        hot_viewports=8,
        fixed_traces=128,
        burst_size=192,
        burst_every_s=1.0,
    ),
}

# Response outcome codes.
OK, DEGRADED, SHED, QUOTA, ERROR = range(5)
_ERROR_CODES = {"overloaded": SHED, "tenant_quota_exceeded": QUOTA}


@dataclass
class Deployment:
    gateway: Gateway
    histograms: dict[str, EulerHistogram]
    cache: TileResultCache


def set_up(inputs: Inputs) -> Deployment:
    """Load the summaries and build the serving stack (timed as set-up)."""
    histograms = {name: EulerHistogram.load(inputs.histogram(name)) for name in SERVING_DATASETS}
    cache = TileResultCache(CACHE_BYTES)
    catalog = TenantCatalog()
    for name, hist in histograms.items():
        catalog.register_dataset(
            name,
            SEulerApprox(hist),
            hist.grid,
            cache=cache,
            chunk_rows=CHUNK_ROWS,
            pyramid=HistogramPyramid.load(inputs.pyramid(name)),
        )
    for tenant in TENANTS:
        catalog.add_tenant(tenant)
    return Deployment(Gateway(catalog, workers=WORKERS, max_pending=MAX_PENDING), histograms, cache)


class _NoSpans:
    """The untraced run's recorder: every span is a no-op."""

    def span(self, name, **_):
        return contextlib.nullcontext({})


class Outcomes:
    """Per-request outcomes of the timed window, by plan-wide index.

    Times are seconds; ``latency`` and ``lag`` count from each
    request's due time.
    """

    _COLUMNS = (
        "latency",
        "lag",
        "deadline",
        "degraded_tiles",
        "coarse_tiles",
        "tiles",
        "queue_wait",
        "service",
        "response_bytes",
    )

    def __init__(self, n: int) -> None:
        self.status = np.full(n, -1, dtype=np.int8)
        for name in self._COLUMNS:
            setattr(self, name, np.full(n, np.nan))
        #: Sampled served responses kept for the correctness check.
        self.samples: dict[int, tuple] = {}
        #: Process CPU seconds (user + sys) spent during the window.
        self.cpu_s = 0.0

    @property
    def served(self) -> np.ndarray:
        return (self.status == OK) | (self.status == DEGRADED)

    def record(self, index, response, wire: bytes, latency, lag, deadline) -> None:
        if response.error is None:
            status = OK if response.status == "ok" else DEGRADED
        else:
            status = _ERROR_CODES.get(response.error.get("code"), ERROR)
        self.status[index] = status
        self.latency[index] = latency
        self.lag[index] = lag
        self.deadline[index] = deadline
        self.response_bytes[index] = len(wire)
        if response.result is None:
            return
        result = response.result
        tiles = result.counts.size
        coarse = 0 if result.levels is None else int(np.count_nonzero(result.levels >= 0))
        missing = 0 if result.valid is None else tiles - int(np.count_nonzero(result.valid))
        self.tiles[index] = tiles
        self.coarse_tiles[index] = coarse
        self.degraded_tiles[index] = (coarse + missing) / tiles
        self.queue_wait[index] = response.queue_wait_s
        self.service[index] = response.service_s
        if index % CHECK_EVERY == 0:
            self.samples[index] = (result, wire)


async def _serve_line(gateway, tracer, line: bytes, index: int):
    """One NDJSON request line through the server's per-line steps."""
    with tracer.span("request", request=index):
        with tracer.span("wire.decode"):
            request = parse_request(json.loads(line))
        if isinstance(tracer, span_mod.SpanRecorder):
            tracer.session_requests[f"{request.tenant}/{request.session}"] = index
        response = await gateway.submit(request)
        with tracer.span("wire.encode"):
            wire = json.dumps(response.to_wire()).encode()
    return response, wire


async def _drive(gateway, tracer, plan: traffic.TrafficPlan, outcomes: Outcomes) -> None:
    loop = asyncio.get_running_loop()
    # The window opens once every session task exists.
    t0 = loop.time() + 0.05
    # Sessions due at one instant (a crowd) wake on one timer, so the
    # gateway admits the whole crowd before it completes any request.
    arrived = {}
    for s in plan.sessions:
        if s.arrival not in arrived:
            arrived[s.arrival] = loop.create_future()
            loop.call_at(t0 + s.arrival, arrived[s.arrival].set_result, None)

    async def session(plan_session: traffic.SessionPlan) -> None:
        due = t0 + plan_session.arrival
        await arrived[plan_session.arrival]
        for step, line in enumerate(plan_session.lines):
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            started = loop.time()
            index = plan_session.first_index + step
            response, wire = await _serve_line(gateway, tracer, line, index)
            done = loop.time()
            outcomes.record(
                index,
                response,
                wire,
                done - due,
                started - due,
                plan_session.deadline,
            )
            due = done + THINK_S

    cpu = time.process_time()
    await asyncio.gather(*(session(s) for s in plan.sessions))
    outcomes.cpu_s = time.process_time() - cpu


async def _warm(gateway, lines) -> None:
    """The untimed closed-loop pass (fills the cache before the window)."""
    tracer = _NoSpans()
    for index, line in enumerate(lines):
        await _serve_line(gateway, tracer, line, index)


def _check(deployment: Deployment, plan: traffic.TrafficPlan, outcomes: Outcomes) -> list[str]:
    """The correctness gates; returns every failure found."""
    problems = []
    counts = {code: int(np.count_nonzero(outcomes.status == code)) for code in range(5)}
    answered = sum(counts.values())
    if answered != plan.attempted:
        problems.append(f"{plan.attempted - answered} request(s) never answered")
    if counts[ERROR]:
        problems.append(f"{counts[ERROR]} request(s) failed with a non-shed error")
    references = {
        name: GeoBrowsingService(SEulerApprox(hist), hist.grid)
        for name, hist in deployment.histograms.items()
    }
    lines = plan.lines()
    for index, (result, wire) in sorted(outcomes.samples.items()):
        doc = json.loads(lines[index])
        expected = references[doc["dataset"]].browse(
            result.region, doc["rows"], doc["cols"], doc["relation"]
        ).counts
        mask = np.ones(result.counts.shape, dtype=bool)
        if result.valid is not None:
            mask &= result.valid
        if result.levels is not None:
            mask &= result.levels < 0
        if not np.array_equal(result.counts[mask], expected[mask]):
            problems.append(f"request {index}: raster differs from an uncached recomputation")
        on_wire = np.array(
            [[np.nan if v is None else v for v in row] for row in json.loads(wire)["counts"]],
            dtype=np.float64,
        )
        if not np.array_equal(on_wire, result.counts, equal_nan=True):
            problems.append(f"request {index}: wire counts differ from the raster")
    return problems


def _p(values, q: float, scale: float = 1.0) -> float:
    values = [v for v in values if not np.isnan(v)]
    return percentile(values, q) * scale if values else 0.0


def _layer_metrics(
    recorder: span_mod.SpanRecorder,
    outcomes: Outcomes,
    stats: dict,
    evictions: int,
    attempted: int,
) -> dict[str, float]:
    children = recorder.children()

    def ms_p50(name):
        return _p([s.duration for s in recorder.named(name)], 50, 1e3)

    browse = recorder.named("browse")
    chunks = recorder.named("estimate.chunk")
    probes = recorder.named("cache.probe")
    plans = recorder.named("delta.plan")
    browsed_tiles = sum(s.attrs["tiles"] for s in browse)
    probed = sum(s.attrs["tiles"] for s in probes)
    chunk_tiles = sum(s.attrs["tiles"] for s in chunks)
    chunk_seconds = sum(s.duration for s in chunks)
    served = outcomes.served
    return {
        "gateway.queue_wait_ms_p50": _p(outcomes.queue_wait[served], 50, 1e3),
        "gateway.queue_wait_ms_p99": _p(outcomes.queue_wait[served], 99, 1e3),
        "gateway.service_ms_p50": _p(outcomes.service[served], 50, 1e3),
        "gateway.shed_queue_full_fraction": stats["shed_queue_full"] / attempted,
        "gateway.shed_deadline_fraction": stats["shed_deadline"] / attempted,
        "gateway.shed_dispatch_fraction": stats["shed_dispatch"] / attempted,
        "gateway.coalesced_fraction": stats["coalesced_followers"] / attempted,
        "gateway.coarse_admission_fraction": stats["coarse_admissions"] / attempted,
        "wire.decode_ms_p50": ms_p50("wire.decode"),
        "wire.encode_ms_p50": ms_p50("wire.encode"),
        "wire.response_kb_p50": _p(outcomes.response_bytes, 50, 1e-3),
        "browse.self_ms_p50": _p(
            [span_mod.self_time(s, children.get(s.id, ())) for s in browse], 50, 1e3
        ),
        "browse.chunks_per_request": len(chunks) / len(browse) if browse else 0.0,
        "delta.plan_ms_p50": ms_p50("delta.plan"),
        "delta.reused_tile_fraction": (
            sum(s.attrs["reused"] for s in plans) / browsed_tiles if browsed_tiles else 0.0
        ),
        "cache.probe_ms_p50": ms_p50("cache.probe"),
        "cache.hit_ratio": sum(s.attrs["hits"] for s in probes) / probed if probed else 0.0,
        "cache.store_ms_p50": ms_p50("cache.store"),
        "cache.evictions": float(evictions),
        "refine.raster_ms_p50": ms_p50("refine.raster"),
        "refine.coarse_tile_fraction": (
            float(np.nansum(outcomes.coarse_tiles) / np.nansum(outcomes.tiles))
            if served.any()
            else 0.0
        ),
        "estimate.chunk_ms_p50": ms_p50("estimate.chunk"),
        "estimate.tiles_per_s": chunk_tiles / chunk_seconds if chunk_seconds else 0.0,
        "estimate.tiles_per_request": chunk_tiles / len(browse) if browse else 0.0,
        "estimate.fallback_fraction": (
            sum(bool(s.attrs["fallback"]) for s in chunks) / len(chunks) if chunks else 0.0
        ),
    }


def _time_set_up(inputs: Inputs) -> float:
    """One more set-up, timed and closed; the ones after the window run
    in a warm process, away from the slower first second of a process."""
    started = time.perf_counter()
    deployment = set_up(inputs)
    elapsed = time.perf_counter() - started
    asyncio.run(deployment.gateway.close())
    return elapsed


def run(name: str, inputs: Inputs, *, seconds: float, seed: int, trace: bool) -> dict:
    """One run of a serving workload; returns the result record."""
    setups = []
    started = time.perf_counter()
    deployment = set_up(inputs)
    setups.append(time.perf_counter() - started)
    gateway = deployment.gateway
    grid = next(iter(deployment.histograms.values())).grid
    plan = traffic.generate(SPECS[name], grid, tuple(SERVING_DATASETS), seconds, seed)
    outcomes = Outcomes(plan.attempted)
    recorder = span_mod.SpanRecorder() if trace else None

    async def main():
        try:
            await _warm(gateway, plan.warm_lines)
            before = dict(gateway.stats)
            evictions = deployment.cache.evictions
            undo = None
            if recorder is not None:
                for tenant in TENANTS:
                    for dataset in SERVING_DATASETS:
                        service = gateway.catalog.service(tenant, dataset)
                        recorder.service_datasets[id(service)] = dataset
                undo = span_mod.install(recorder)
            wall = time.perf_counter()
            try:
                await _drive(gateway, recorder or _NoSpans(), plan, outcomes)
            finally:
                if undo is not None:
                    undo()
            wall = time.perf_counter() - wall
            stats = {k: gateway.stats[k] - before[k] for k in before}
            return wall, stats, deployment.cache.evictions - evictions
        finally:
            await gateway.close()

    wall, stats, evictions = asyncio.run(main())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups.extend(_time_set_up(inputs) for _ in range(SETUPS - 1))
    attempted = plan.attempted
    served = outcomes.served
    n_served = int(np.count_nonzero(served))
    in_deadline = served & (outcomes.latency <= outcomes.deadline)
    missed = attempted - int(np.count_nonzero(in_deadline))
    errors = int(np.count_nonzero(outcomes.status == ERROR))
    end_to_end = {
        "setup_s": float(np.median(setups)),
        "latency_p50_ms": _p(outcomes.latency[served], 50, 1e3),
        # Per served request, so shedding more cannot read as a saving.
        "cpu_ms_per_op": outcomes.cpu_s / max(n_served, 1) * 1e3,
        # Rates are per second of the whole window, first arrival to
        # last response; a shed, refused or failed request is not served.
        "served_per_s": n_served / wall,
        # Served within the request's own deadline: a late answer counts
        # as missed, like a shed one.
        "goodput_per_s": float(np.count_nonzero(in_deadline)) / wall,
        "rss_peak_mb": rss_mb,
    }
    diagnostics = {
        # Not end to end: run to run these spread past any bound, or they
        # are 0 on some workloads (README).
        "latency_p99_ms": _p(outcomes.latency[served], 99, 1e3),
        "slo_miss_fraction": missed / attempted,
        "degraded_tile_fraction": float(np.nanmean(outcomes.degraded_tiles)) if served.any() else 0.0,
        "error_fraction": errors / attempted,
        # How late the generator started due requests.
        "gateway.loop_lag_ms_p99": _p(outcomes.lag, 99, 1e3),
        "window_s": wall,
        "served": n_served,
        "shed": int(np.count_nonzero(outcomes.status == SHED)),
        "checked_rasters": len(outcomes.samples),
    }
    layers = None
    if recorder is not None:
        layers = _layer_metrics(recorder, outcomes, stats, evictions, attempted)
        layers.update(
            {
                "trace.latency_p50_ms": end_to_end["latency_p50_ms"],
                "trace.cpu_ms_per_op": end_to_end["cpu_ms_per_op"],
                "trace.spans_per_op": len(recorder.spans) / attempted,
            }
        )
    problems = _check(deployment, plan, outcomes)
    return {
        "attempted": attempted,
        "failed": errors,
        "problems": problems,
        "end_to_end": end_to_end,
        "diagnostics": diagnostics,
        "layers": layers,
        "recorder": recorder,
    }
