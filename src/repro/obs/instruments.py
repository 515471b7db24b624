"""The serving stack's pre-wired metric families.

:class:`BrowseInstrumentation` is the bundle both browsing services and
their estimator chain record into: one registry, every family declared
once up front (so the hot path never re-validates metric names), plus a
trace factory on the same clock.  A
:class:`~repro.gateway.gateway.Gateway` given the bundle declares its
own ``repro_gateway_*`` families on the same registry, so a snapshot
without a gateway exports none of them.  Passing one instance to
:class:`~repro.browse.service.GeoBrowsingService` or
:class:`~repro.browse.resilience.ResilientBrowsingService` turns the
whole stack observable; passing nothing keeps the uninstrumented fast
path literally free (a ``None`` check per call site).

Exported metric names (see DESIGN.md section 11 for the full reference):

=====================================================  =========  ==========================
name                                                   type       labels
=====================================================  =========  ==========================
``repro_browse_requests_total``                        counter    service, relation
``repro_browse_request_seconds``                       histogram  service
``repro_browse_stage_seconds``                         histogram  service, stage
``repro_browse_tiles_total``                           counter    service, outcome
``repro_browse_deadline_margin_seconds``               gauge      service
``repro_browse_deadline_expirations_total``            counter    service
``repro_cache_hits_total``                             counter    service
``repro_cache_misses_total``                           counter    service
``repro_delta_rasters_total``                          counter    service, outcome
``repro_delta_tiles_reused_total``                     counter    service
``repro_pyramid_level_served_total``                   counter    service, level
``repro_pyramid_refine_rounds``                        histogram  service
``repro_pyramid_first_raster_seconds``                 histogram  service
``repro_pyramid_rescued_chunks_total``                 counter    service
``repro_tier_failures_total``                          counter    tier, reason (error, bad_output)
``repro_persistence_ops_total``                        counter    kind, op, outcome
``repro_ingest_objects_total``                         counter    source
``repro_ingest_chunks_total``                          counter    source, path
``repro_ingest_spills_total``                          counter    source
``repro_ingest_worker_crashes_total``                  counter    source
``repro_ingest_peak_accumulator_bytes``                gauge      source
``repro_ingest_objects_per_second``                    gauge      source
``repro_ingest_build_seconds``                         histogram  source
``repro_join_searches_total``                          counter    mode, metric
``repro_join_candidates_total``                        counter    mode, outcome
``repro_join_search_seconds``                          histogram  mode
``repro_join_catalog_summaries``                       gauge      --
=====================================================  =========  ==========================

:func:`record_persistence_event` is the hook the persistence layer and
the summary ``verify()`` methods call; it records into the process
default registry (:func:`~repro.obs.registry.set_default_registry`) and
is a no-op when none is installed.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_default_registry,
)
from repro.obs.trace import RequestTrace

__all__ = [
    "BrowseInstrumentation",
    "IngestInstrumentation",
    "JoinInstrumentation",
    "record_persistence_event",
]

#: Buckets for pyramid refinement rounds per request.
_REFINE_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


class BrowseInstrumentation:
    """One registry plus the serving stack's declared metric families.

    Parameters
    ----------
    registry:
        The registry to record into; a fresh one is created when omitted.
    clock:
        Monotonic seconds for traces and stage timings; defaults to the
        registry's clock so metrics and spans share a timeline.
    accuracy:
        An optional :class:`~repro.obs.accuracy.AccuracyProbe`; when set,
        the resilient service feeds each answered raster through it.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        clock: Callable[[], float] | None = None,
        accuracy=None,
    ) -> None:
        if registry is None:
            registry = MetricsRegistry(clock=clock if clock is not None else time.monotonic)
        self.registry = registry
        self.clock = clock if clock is not None else registry.clock
        self.accuracy = accuracy

        r = registry
        self.requests = r.counter(
            "repro_browse_requests_total",
            help="Browse interactions served",
            labels=("service", "relation"),
        )
        self.request_seconds = r.histogram(
            "repro_browse_request_seconds",
            help="End-to-end browse latency",
            labels=("service",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.stage_seconds = r.histogram(
            "repro_browse_stage_seconds",
            help="Per-stage browse latency (resolve, delta, cache_probe, pyramid, waves, chunk, assemble)",
            labels=("service", "stage"),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.tiles = r.counter(
            "repro_browse_tiles_total",
            help="Raster tiles by outcome (answered vs left NaN)",
            labels=("service", "outcome"),
        )
        self.deadline_margin = r.gauge(
            "repro_browse_deadline_margin_seconds",
            help="Budget minus elapsed at the end of the last deadlined request",
            labels=("service",),
        )
        self.deadline_expirations = r.counter(
            "repro_browse_deadline_expirations_total",
            help="Requests whose deadline expired before the raster completed",
            labels=("service",),
        )
        self.cache_hits = r.counter(
            "repro_cache_hits_total",
            help="Raster tiles answered from the tile-result cache",
            labels=("service",),
        )
        self.cache_misses = r.counter(
            "repro_cache_misses_total",
            help="Raster tiles probed but not found in the tile-result cache",
            labels=("service",),
        )
        self.delta_rasters = r.counter(
            "repro_delta_rasters_total",
            help="Delta-eligible rasters by outcome (reused, incompatible, cold)",
            labels=("service", "outcome"),
        )
        self.delta_tiles_reused = r.counter(
            "repro_delta_tiles_reused_total",
            help="Raster tiles copied from the session's previous raster",
            labels=("service",),
        )
        self.pyramid_level_served = r.counter(
            "repro_pyramid_level_served_total",
            help="Refinement rounds served from a pyramid level (level label = pyramid level index)",
            labels=("service", "level"),
        )
        self.pyramid_refine_rounds = r.histogram(
            "repro_pyramid_refine_rounds",
            help="Pyramid refinement rounds per deadlined request (0 = fine path only)",
            labels=("service",),
            buckets=_REFINE_BUCKETS,
        )
        self.pyramid_first_raster = r.histogram(
            "repro_pyramid_first_raster_seconds",
            help="Latency to the first complete (coarse-but-valid) raster",
            labels=("service",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.pyramid_rescues = r.counter(
            "repro_pyramid_rescued_chunks_total",
            help="Chunks the estimator failed that were rescued from the coarsest pyramid level",
            labels=("service",),
        )
        self.tier_failures = r.counter(
            "repro_tier_failures_total",
            help="Chunks the estimator failed (error: estimate_batch raised; "
            "bad_output: wrong shape or non-finite counts)",
            labels=("tier", "reason"),
        )

    def new_trace(self) -> RequestTrace:
        """A fresh trace on the instrumentation clock."""
        return RequestTrace(clock=self.clock)


class IngestInstrumentation:
    """The out-of-core construction pipeline's declared metric families.

    One instance per registry (a fresh registry when omitted), passed to
    :func:`repro.ingest.pipeline.build_zoned`.  The ``source`` label is
    the chunk source's name (dataset or file stem); the ``path`` label
    of the chunk counter distinguishes how a chunk was accumulated:
    ``pool`` (a worker took it), ``inline`` (parent fallback) or
    ``replay`` (re-read after a worker crash).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if registry is None:
            registry = MetricsRegistry(clock=clock if clock is not None else time.monotonic)
        self.registry = registry
        self.clock = clock if clock is not None else registry.clock

        r = registry
        self.objects = r.counter(
            "repro_ingest_objects_total",
            help="Objects streamed into zoned construction",
            labels=("source",),
        )
        self.chunks = r.counter(
            "repro_ingest_chunks_total",
            help="Chunks accumulated, by path (pool, inline, replay)",
            labels=("source", "path"),
        )
        self.spills = r.counter(
            "repro_ingest_spills_total",
            help="Zone partials spilled to disk under memory pressure",
            labels=("source",),
        )
        self.worker_crashes = r.counter(
            "repro_ingest_worker_crashes_total",
            help="Build workers lost (crash, init failure or stall) and replayed",
            labels=("source",),
        )
        self.peak_accumulator_bytes = r.gauge(
            "repro_ingest_peak_accumulator_bytes",
            help="Peak bytes held by zone accumulators during the last build",
            labels=("source",),
        )
        self.objects_per_second = r.gauge(
            "repro_ingest_objects_per_second",
            help="Construction throughput of the last build",
            labels=("source",),
        )
        self.build_seconds = r.histogram(
            "repro_ingest_build_seconds",
            help="End-to-end zoned build latency",
            labels=("source",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )


class JoinInstrumentation:
    """The join-search engine's declared metric families.

    One instance per registry (a fresh registry when omitted), passed to
    :class:`repro.joins.search.JoinSearchEngine`.  ``mode`` is the query
    shape (``dataset`` or ``region``); the candidates counter's
    ``outcome`` label splits every scanned catalog entry into
    ``scored`` (exactly scored) vs ``pruned`` (eliminated by a coarse
    upper bound) -- the two always sum to the catalog size, which is how
    the no-silent-caps invariant shows up in the metrics.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if registry is None:
            registry = MetricsRegistry(clock=clock if clock is not None else time.monotonic)
        self.registry = registry
        self.clock = clock if clock is not None else registry.clock

        r = registry
        self.searches = r.counter(
            "repro_join_searches_total",
            help="Join searches served, by query mode and ranking metric",
            labels=("mode", "metric"),
        )
        self.candidates = r.counter(
            "repro_join_candidates_total",
            help="Catalog candidates per search outcome (scored, pruned)",
            labels=("mode", "outcome"),
        )
        self.search_seconds = r.histogram(
            "repro_join_search_seconds",
            help="End-to-end join search latency",
            labels=("mode",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.catalog_summaries = r.gauge(
            "repro_join_catalog_summaries",
            help="Summaries registered in the scanned catalog",
        )


def record_persistence_event(kind: str, op: str, outcome: str) -> None:
    """Count one persistence-layer operation into the default registry.

    ``kind`` names the summary type ("Euler histogram", "rect dataset"),
    ``op`` the operation (``load``/``save``/``verify``) and ``outcome``
    what happened (``ok``, ``corrupt``, ``missing_key``,
    ``checksum_mismatch``, ``invariant_violation`` ...).  No-op unless a
    default registry is installed.
    """
    registry = get_default_registry()
    if registry is None:
        return
    registry.counter(
        "repro_persistence_ops_total",
        help="Summary persistence operations by kind, op and outcome",
        labels=("kind", "op", "outcome"),
    ).labels(kind=kind, op=op, outcome=outcome).inc()
