"""The asyncio multi-tenant serving gateway.

Everything below this module is a synchronous in-process library with
exactly one caller; :class:`Gateway` is the front door that keeps the
library's guarantees when thousands of concurrent sessions contend for
the same summaries.  One request's life:

1. **Resolve + validate.**  The tenant/dataset pair is looked up in the
   :class:`~repro.gateway.catalog.TenantCatalog`; the region, relation
   and tiling are validated against the dataset's grid exactly as the
   service's ``resolve`` stage does, and the deadline must be a
   non-negative number -- malformed requests bounce with
   :class:`~repro.errors.InvalidRegionError` before they cost a quota
   or queue slot.
2. **Quota.**  The tenant's concurrency quota is taken (non-blocking);
   exhaustion raises :class:`~repro.errors.TenantQuotaExceededError`
   with a retry hint, leaving other tenants untouched.
3. **Finished rasters.**  A request identical to one whose raster
   already came back complete and at full resolution -- answered by the
   estimator on every tile -- is answered with that raster right here,
   on the event loop: no queue slot, no executor hop.  The gateway
   keeps such rasters in a byte-bounded LRU map
   (:data:`FINISHED_RASTER_BYTES`) under the coalescing key below,
   filed under the scope the raster was answered under.
4. **Admission triage.**  The
   :class:`~repro.gateway.admission.AdmissionController` predicts the
   queue wait from a sliding window of observed service times.  Requests
   whose budget cannot cover it are shed *now* with
   :class:`~repro.errors.OverloadedError` (retry-after hint attached)
   instead of being admitted to time out; under pressure short of
   shedding, the effective deadline is shrunk so the browse degrades
   (coarse pyramid tiles, or partial rasters with validity masks) rather
   than rejects.
5. **Coalescing.**  Concurrent identical computations -- same answering
   scope (summary identity *and generation*, estimator, relation field),
   same region cells, same tiling -- share one in-flight task via keyed
   futures.  Followers ride the leader's computation; estimators are
   deterministic, so the shared raster is bit-identical to what each
   follower would have computed.  The shared task is owned by the
   gateway, not by any single waiter: a cancelled (or shed) leader never
   tears the computation out from under its followers.  A follower, like
   a request answered from a finished raster, has the shared raster
   remembered as its own session's latest, so its next pan plans a
   viewport delta against what it received.
6. **Dispatch backstop.**  Queue-wait prediction can be wrong; when a
   request reaches its worker with its client budget already spent, it
   is shed there (still a structured ``OverloadedError``) rather than
   allowed to run to a result nobody is waiting for.  "Admitted, then
   timed out in queue" is therefore not an outcome this gateway has.

The blocking ``browse`` calls run on a bounded thread-pool executor;
all gateway bookkeeping (pending counts, the in-flight and finished
maps, stats) is touched only from the event loop, so it needs no locks.
With ``coalesce=False`` nothing is shared, in flight or finished.  The
clock is injectable, like the rest of the serving stack.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import BrowseResult, resolve_browse_request
from repro.errors import (
    BrowseError,
    EstimatorFailedError,
    InvalidRegionError,
    OverloadedError,
    SummaryCorruptError,
    TenantQuotaExceededError,
)
from repro.gateway.admission import AdmissionController, AdmissionDecision, ServiceTimeWindow
from repro.gateway.catalog import TenantCatalog
from repro.geometry.rect import Rect
from repro.grid.tiles_math import TileQuery
from repro.obs.instruments import BrowseInstrumentation
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

__all__ = [
    "Gateway",
    "GatewayResponse",
    "TileRequest",
    "decode_error",
    "encode_error",
]

Clock = Callable[[], float]

#: Bound on the bytes of raster counts the gateway keeps for reuse; the
#: least recently used raster goes first.  16 MiB holds about 1,000
#: rasters of 45x45 tiles.
FINISHED_RASTER_BYTES = 16 << 20


@dataclass(frozen=True)
class TileRequest:
    """One client request: a tenant's tiled relation query.

    ``deadline_s`` is the client's *total* budget in seconds, queue wait
    included (``None`` = unbounded; ``0.0`` = answer only what is free
    -- finished rasters, cache hits and viewport-delta copies).
    ``session`` keys the viewport-delta tracker; the gateway namespaces
    it per tenant, so two tenants' ``"default"`` sessions never share
    reuse state.
    """

    tenant: str
    dataset: str
    region: Rect | TileQuery
    rows: int
    cols: int
    relation: str = "overlap"
    deadline_s: float | None = None
    session: str = "default"


@dataclass(frozen=True)
class GatewayResponse:
    """The gateway's structured answer to one :class:`TileRequest`.

    ``status`` is ``"ok"`` (complete raster at full resolution),
    ``"degraded"`` (partial raster -- some tiles NaN under the validity
    mask -- or a complete raster with some tiles served from a coarse
    pyramid level) or ``"error"`` (no raster; ``error`` holds the wire
    form of the taxonomy failure, see :func:`encode_error`).
    ``coalesced`` marks responses served by another request's
    computation, in flight or finished.  ``degrade_factor`` is the
    fraction of the client budget admission control preserved (1.0 =
    full quality), ``queue_wait_s``/``service_s`` the dispatch split
    (both 0 for a finished raster), and ``total_s`` the end-to-end
    gateway latency.
    """

    status: str
    request: TileRequest
    result: BrowseResult | None = None
    error: dict | None = field(default=None)
    coalesced: bool = False
    degrade_factor: float = 1.0
    estimated_wait_s: float = 0.0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    total_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether a raster came back (complete or degraded)."""
        return self.error is None

    @property
    def shed(self) -> bool:
        """Whether the request was rejected by load-shedding or quota."""
        return self.error is not None and self.error.get("code") in (
            "overloaded",
            "tenant_quota_exceeded",
        )

    @property
    def valid_fraction(self) -> float:
        """Fraction of tiles answered (0.0 for error responses)."""
        if self.result is None:
            return 0.0
        return self.result.valid_fraction

    def to_wire(self) -> dict:
        """A JSON-safe rendering (the TCP server's response line).

        ``counts`` is a list of rows of JSON floats, with ``null`` for
        every non-finite tile (a NaN outside a partial raster's mask).
        """
        doc: dict = {
            "status": self.status,
            "coalesced": self.coalesced,
            "degrade_factor": round(self.degrade_factor, 4),
            "queue_wait_s": round(self.queue_wait_s, 6),
            "service_s": round(self.service_s, 6),
            "total_s": round(self.total_s, 6),
        }
        if self.result is not None:
            # One tolist() renders every count as a Python float; only the
            # non-finite tiles are then patched, so the JSON bytes equal a
            # per-tile float()/None rendering at a fraction of its cost.
            counts = np.asarray(self.result.counts, dtype=np.float64)
            rows = counts.tolist()
            bad_rows, bad_cols = np.nonzero(~np.isfinite(counts))
            for r, c in zip(bad_rows.tolist(), bad_cols.tolist()):
                rows[r][c] = None
            doc["counts"] = rows
            doc["valid_fraction"] = round(self.result.valid_fraction, 4)
            if self.result.levels is not None:
                # Pyramid-refined raster: surface the coarsest level any
                # tile was served at, so clients can render a "refining
                # ..." affordance.
                doc["coarsest_level"] = int(self.result.levels.max())
        if self.error is not None:
            doc["error"] = self.error
        return doc


# --------------------------------------------------------------------- #
# the error wire codec (taxonomy <-> structured responses)
# --------------------------------------------------------------------- #

#: Wire code -> taxonomy class, most specific first (encode walks this
#: with ``isinstance``, so a subclass never degrades to its parent code).
_WIRE_CODES: tuple[tuple[str, type[BrowseError]], ...] = (
    ("tenant_quota_exceeded", TenantQuotaExceededError),
    ("overloaded", OverloadedError),
    ("estimator_failed", EstimatorFailedError),
    ("summary_corrupt", SummaryCorruptError),
    ("invalid_region", InvalidRegionError),
    ("browse_error", BrowseError),
)


def encode_error(exc: BrowseError) -> dict:
    """The taxonomy failure as a JSON-safe wire document.

    Carries the code, the message, and the subclass's structured fields
    (``retry_after_s``, ``tenant``);
    :func:`decode_error` reverses it exactly, which is what lets a
    remote client re-raise the same taxonomy type the gateway caught.
    """
    for code, cls in _WIRE_CODES:
        if isinstance(exc, cls):
            break
    else:  # pragma: no cover - BrowseError is the universal fallback
        code = "browse_error"
    doc: dict = {"code": code, "message": str(exc)}
    if isinstance(exc, OverloadedError):
        doc["retry_after_s"] = exc.retry_after_s
    if isinstance(exc, TenantQuotaExceededError):
        doc["tenant"] = exc.tenant
    return doc


def decode_error(doc: dict) -> BrowseError:
    """Rebuild the taxonomy exception a wire document encodes."""
    code = doc.get("code", "browse_error")
    message = doc.get("message", "")
    if code == "tenant_quota_exceeded":
        return TenantQuotaExceededError(
            message,
            retry_after_s=doc.get("retry_after_s"),
            tenant=doc.get("tenant", ""),
        )
    if code == "overloaded":
        return OverloadedError(message, retry_after_s=doc.get("retry_after_s"))
    if code == "estimator_failed":
        return EstimatorFailedError(message)
    if code == "summary_corrupt":
        return SummaryCorruptError(message)
    if code == "invalid_region":
        return InvalidRegionError(message)
    return BrowseError(message)


class _GatewayMetrics:
    """The ``repro_gateway_*`` families, declared on the registry a
    gateway's instruments record into.  Declaration is idempotent by
    name, so gateways sharing a registry share the families, and a
    registry no gateway records into exports none of them."""

    def __init__(self, r: MetricsRegistry) -> None:
        self.requests = r.counter(
            "repro_gateway_requests_total",
            help="Gateway requests by tenant and outcome (ok, degraded, shed, quota, error)",
            labels=("tenant", "outcome"),
        )
        self.shed = r.counter(
            "repro_gateway_shed_total",
            help="Requests shed, by site (queue_full, deadline, dispatch_expired)",
            labels=("reason",),
        )
        self.coalesced = r.counter(
            "repro_gateway_coalesced_total",
            help="Computation sharing (leader = started one, follower = rode one in flight, reused = answered from a finished one)",
            labels=("role",),
        )
        self.queue_depth = r.gauge(
            "repro_gateway_queue_depth",
            help="Computations admitted and not yet completed",
        )
        self.degrade_factor = r.gauge(
            "repro_gateway_degrade_factor",
            help="Budget fraction the last admission preserved (1.0 = full quality)",
        )
        self.queue_wait = r.histogram(
            "repro_gateway_queue_wait_seconds",
            help="Admission-to-dispatch wait per computation",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.service_seconds = r.histogram(
            "repro_gateway_service_seconds",
            help="Executor service time per computation",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )


def _session_key(request: TileRequest) -> str:
    """The request's delta-tracker session, namespaced by tenant."""
    return f"{request.tenant}/{request.session}"


class Gateway:
    """The asyncio serving gateway (see the module docstring).

    Parameters
    ----------
    catalog:
        The tenant catalog supplying per-``(tenant, dataset)`` services
        and per-tenant quotas.
    workers:
        Executor threads running the blocking ``browse`` calls; also the
        divisor of the admission controller's wait estimates.
    max_pending:
        Bound on concurrently admitted computations (the admission
        queue); arrivals beyond it are shed.
    coalesce:
        Share one in-flight computation between concurrent identical
        requests, and answer a later identical request from a finished
        one (on by default).
    instruments:
        Optional :class:`~repro.obs.instruments.BrowseInstrumentation`;
        the ``repro_gateway_*`` metric families are declared on its
        registry and recorded there.
    clock:
        Injectable monotonic seconds.
    admission:
        A prebuilt controller (tests); overrides ``max_pending`` and the
        default window.
    """

    def __init__(
        self,
        catalog: TenantCatalog,
        *,
        workers: int = 2,
        max_pending: int = 64,
        coalesce: bool = True,
        instruments: BrowseInstrumentation | None = None,
        clock: Clock = time.monotonic,
        admission: AdmissionController | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._catalog = catalog
        self._workers = workers
        self._clock = clock
        self._obs = None if instruments is None else _GatewayMetrics(instruments.registry)
        self._coalesce = coalesce
        if admission is None:
            window = ServiceTimeWindow(clock=clock)
            admission = AdmissionController(
                workers=workers, max_pending=max_pending, window=window
            )
        self._admission = admission
        self._window = admission.window
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-gateway"
        )
        self._pending = 0
        self._inflight: dict[tuple, asyncio.Task] = {}
        #: Reusable finished rasters by coalescing key, least recently
        #: used first, and the bytes of their counts.
        self._finished: OrderedDict[tuple, BrowseResult] = OrderedDict()
        self._finished_bytes = 0
        self._closed = False
        #: Plain counters for the load generator and benchmarks (event
        #: loop only, so no locking): admissions, sheds by site, etc.
        #: ``reduced_budget_admissions`` counts admissions whose budget
        #: triage shrank (``degrade_factor < 1``); ``degraded_responses``
        #: counts responses whose ``status`` is ``"degraded"``.
        #: ``coalesced_followers`` counts requests that joined an
        #: in-flight computation, ``reused_results`` requests answered
        #: from a finished one.
        self.stats: dict[str, int] = {
            "requests": 0,
            "admitted": 0,
            "completed": 0,
            "shed_queue_full": 0,
            "shed_deadline": 0,
            "shed_dispatch": 0,
            "shed_shutdown": 0,
            "quota_rejections": 0,
            "coalesced_leaders": 0,
            "coalesced_followers": 0,
            "reused_results": 0,
            "reduced_budget_admissions": 0,
            "degraded_responses": 0,
            "coarse_admissions": 0,
            "errors": 0,
        }

    @property
    def catalog(self) -> TenantCatalog:
        """The tenant catalog behind this gateway."""
        return self._catalog

    @property
    def pending(self) -> int:
        """Computations admitted and not yet completed."""
        return self._pending

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (or is running)."""
        return self._closed

    # ------------------------------------------------------------------ #
    # the serving surface
    # ------------------------------------------------------------------ #

    async def submit(self, request: TileRequest) -> GatewayResponse:
        """Serve one request, always returning a structured response.

        Taxonomy failures (invalid requests, shedding, quota, estimator
        exhaustion) come back as ``status="error"`` responses with the
        wire-encoded exception -- they never raise.  Anything *outside*
        the taxonomy escaping here is a bug, exactly as for the layers
        below.
        """
        started = self._clock()
        self.stats["requests"] += 1
        obs = self._obs
        try:
            result, meta = await self._browse(request)
        except asyncio.CancelledError:
            raise
        except BrowseError as exc:
            self._note_error(exc)
            if obs is not None:
                obs.requests.labels(
                    tenant=request.tenant, outcome=self._outcome_of(exc)
                ).inc()
            return GatewayResponse(
                status="error",
                request=request,
                error=encode_error(exc),
                total_s=self._clock() - started,
            )
        total = self._clock() - started
        # A raster that is complete but pyramid-coarse somewhere is
        # still a degraded answer: every tile has a value, not every
        # tile is at the requested resolution.
        status = "ok" if result.is_complete and result.full_resolution else "degraded"
        if status == "degraded":
            self.stats["degraded_responses"] += 1
        if obs is not None:
            obs.requests.labels(
                tenant=request.tenant, outcome=status
            ).inc()
        return GatewayResponse(
            status=status,
            request=request,
            result=result,
            coalesced=meta["coalesced"],
            degrade_factor=meta["degrade_factor"],
            estimated_wait_s=meta["estimated_wait_s"],
            queue_wait_s=meta["queue_wait_s"],
            service_s=meta["service_s"],
            total_s=total,
        )

    def _outcome_of(self, exc: BrowseError) -> str:
        if isinstance(exc, TenantQuotaExceededError):
            return "quota"
        if isinstance(exc, OverloadedError):
            return "shed"
        return "error"

    def _note_error(self, exc: BrowseError) -> None:
        if isinstance(exc, TenantQuotaExceededError):
            self.stats["quota_rejections"] += 1
        elif not isinstance(exc, OverloadedError):
            self.stats["errors"] += 1
        # OverloadedError shed sites are counted where they are raised.

    async def _browse(self, request: TileRequest) -> tuple[BrowseResult, dict]:
        """The raising core of :meth:`submit` (tests drive it directly
        to assert taxonomy types)."""
        if self._closed:
            raise OverloadedError("gateway is shut down", retry_after_s=None)
        service = self._catalog.service(request.tenant, request.dataset)
        region, field_name = resolve_browse_request(
            service.grid, request.region, request.rows, request.cols, request.relation
        )
        if request.deadline_s is not None and not request.deadline_s >= 0:
            raise InvalidRegionError(
                f"deadline_s must be non-negative, got {request.deadline_s!r}"
            )
        tenant = self._catalog.tenant(request.tenant)
        if not tenant.try_acquire():
            p50 = self._window.p50()
            raise TenantQuotaExceededError(
                f"tenant {request.tenant!r} is at its quota of "
                f"{tenant.quota} concurrent request(s)",
                retry_after_s=round(p50, 4),
                tenant=request.tenant,
            )
        try:
            return await self._admit_and_run(request, service, region, field_name)
        finally:
            tenant.release()

    async def _admit_and_run(
        self,
        request: TileRequest,
        service: ResilientBrowsingService,
        region: TileQuery,
        field_name: str,
    ) -> tuple[BrowseResult, dict]:
        obs = self._obs
        # The coalescing key: the full answering scope (summary identity
        # and generation, estimator, relation field -- via the service's
        # cache key) plus the canonical region cells and the tiling, so
        # a maintained summary's generation bump splits the key and two
        # tenants over the *same* summary may legitimately share work.
        key = (
            service.cache_key(field_name),
            region,
            request.rows,
            request.cols,
            request.relation,
        )
        result = self._finished.get(key) if self._coalesce else None
        if result is not None:
            # Before triage: a finished raster costs no queue slot, so a
            # crowd repeating it is never shed for one.
            self._finished.move_to_end(key)
            self.stats["reused_results"] += 1
            if obs is not None:
                obs.coalesced.labels(role="reused").inc()
            service.delta.remember(_session_key(request), result)
            return result, {
                "coalesced": True,
                "degrade_factor": 1.0,
                "estimated_wait_s": 0.0,
                "queue_wait_s": 0.0,
                "service_s": 0.0,
            }
        decision = self._admission.triage(
            budget=request.deadline_s,
            pending=self._pending,
            # A pyramid-backed service gives triage a second axis of
            # degradation: a budget too short for fine-grid work can
            # still buy a complete coarse raster, so degrade to a
            # coarser level before shedding on "deadline".
            coarse_capable=service.pyramid is not None,
        )
        if not decision.admitted:
            self.stats[f"shed_{decision.reason}"] += 1
            if obs is not None:
                obs.shed.labels(reason=decision.reason).inc()
            raise OverloadedError(
                f"request shed at admission ({decision.reason}): estimated "
                f"queue wait {decision.estimated_wait_s:.3f}s exceeds the "
                f"budget of "
                + (
                    "0s"
                    if request.deadline_s is None
                    else f"{request.deadline_s:.3f}s"
                ),
                retry_after_s=decision.retry_after_s,
            )
        self.stats["admitted"] += 1
        if decision.degrade_factor < 1.0:
            self.stats["reduced_budget_admissions"] += 1
        if decision.coarse:
            self.stats["coarse_admissions"] += 1
        if obs is not None:
            obs.degrade_factor.set(decision.degrade_factor)

        # Coalescing: identical in-flight computations share one task.
        task = self._inflight.get(key) if self._coalesce else None
        if task is None or task.done():
            coalesced = False
            task = asyncio.get_running_loop().create_task(
                self._run(request, service, region, decision)
            )
            self._pending += 1
            if obs is not None:
                obs.queue_depth.set(self._pending)
            task.add_done_callback(lambda t, k=key: self._on_done(k, t))
            if self._coalesce:
                self._inflight[key] = task
                self.stats["coalesced_leaders"] += 1
                if obs is not None:
                    obs.coalesced.labels(role="leader").inc()
        else:
            coalesced = True
            self.stats["coalesced_followers"] += 1
            if obs is not None:
                obs.coalesced.labels(role="follower").inc()

        # Shield: the computation belongs to the gateway, not to any one
        # waiter.  Cancelling this request (client gone) must not cancel
        # a leader computation other followers are riding.
        try:
            result, queue_wait, service_s = await asyncio.shield(task)
        except asyncio.CancelledError:
            if task.cancelled():
                # The *task* was cancelled (gateway shutdown), not us.
                self.stats["shed_shutdown"] += 1
                raise OverloadedError(
                    "gateway shut down while the request was in flight",
                    retry_after_s=None,
                ) from None
            raise
        if coalesced:
            # Only the leader's ``browse`` remembers the raster, in the
            # leader's session; remember it for this session too, in this
            # request's own service (the leader may be another tenant's),
            # so its next pan plans its viewport delta against it.
            service.delta.remember(_session_key(request), result)
        return result, {
            "coalesced": coalesced,
            "degrade_factor": decision.degrade_factor,
            "estimated_wait_s": decision.estimated_wait_s,
            "queue_wait_s": queue_wait,
            "service_s": service_s,
        }

    async def _run(
        self,
        request: TileRequest,
        service: ResilientBrowsingService,
        region: TileQuery,
        decision: AdmissionDecision,
    ) -> tuple[BrowseResult, float, float]:
        """The shared (leader) computation: one executor dispatch."""
        admitted_at = self._clock()
        clock = self._clock
        # The window is loop-only (it trims itself on every read), so
        # the backstop's retry hint is read here, never on the worker.
        retry_after_s = round(self._window.p50(), 4)

        def work() -> tuple[BrowseResult, float, float]:
            started = clock()
            queue_wait = started - admitted_at
            budget = request.deadline_s
            if budget is not None and budget > 0 and queue_wait >= budget:
                # Backstop for wrong wait estimates: shed at dispatch
                # instead of computing a raster whose deadline already
                # passed.  Admission triage makes this rare; a
                # steady-state overload replay never reaches it.
                raise OverloadedError(
                    f"budget of {budget:.3f}s expired after "
                    f"{queue_wait:.3f}s in queue",
                    retry_after_s=retry_after_s,
                )
            remaining = None
            if decision.effective_deadline is not None:
                remaining = max(0.0, decision.effective_deadline - queue_wait)
            result = service.browse(
                region,
                request.rows,
                request.cols,
                request.relation,
                deadline=remaining,
                session=_session_key(request),
            )
            return result, queue_wait, clock() - started

        loop = asyncio.get_running_loop()
        try:
            result, queue_wait, service_s = await loop.run_in_executor(
                self._executor, work
            )
        except OverloadedError:
            self.stats["shed_dispatch"] += 1
            if self._obs is not None:
                self._obs.shed.labels(reason="dispatch_expired").inc()
            raise
        self._window.observe(service_s)
        self.stats["completed"] += 1
        if self._obs is not None:
            self._obs.queue_wait.observe(queue_wait)
            self._obs.service_seconds.observe(service_s)
        if self._coalesce:
            self._keep(result)
        return result, queue_wait, service_s

    def _keep(self, result: BrowseResult) -> None:
        """File a finished raster for reuse when it is complete and at
        full resolution -- the estimator's answer on every tile, which
        is what the tile cache and viewport deltas may reuse too.  It is
        keyed by the scope it was answered under, not the key taken at
        admission, so it always sits under the summary generation that
        answered it, even when an update landed while it queued.  A key
        already filed keeps its raster: the same scope gives the same
        answer."""
        key = (result.scope, result.region, result.rows, result.cols, result.relation)
        if (
            key in self._finished
            or not (result.is_complete and result.full_resolution)
            or result.counts.nbytes > FINISHED_RASTER_BYTES
        ):
            return
        self._finished[key] = result
        self._finished_bytes += result.counts.nbytes
        while self._finished_bytes > FINISHED_RASTER_BYTES:
            _, evicted = self._finished.popitem(last=False)
            self._finished_bytes -= evicted.counts.nbytes

    def _on_done(self, key: tuple, task: asyncio.Task) -> None:
        self._pending -= 1
        if self._obs is not None:
            self._obs.queue_depth.set(self._pending)
        if self._inflight.get(key) is task:
            del self._inflight[key]
        # Consume the exception so a computation whose waiters were all
        # cancelled never logs "exception was never retrieved".
        if not task.cancelled():
            task.exception()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def close(self) -> None:
        """Shut the gateway down: stop admitting, cancel in-flight
        shared computations and drain the executor.  Idempotent; waiters
        of cancelled computations receive a structured shutdown
        :class:`~repro.errors.OverloadedError`."""
        if self._closed:
            return
        self._closed = True
        tasks = list(self._inflight.values())
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Executor jobs already running cannot be interrupted; wait for
        # them so no browse outlives the gateway.
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown, True
        )
