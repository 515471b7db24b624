"""A closed-loop load generator for the serving gateway.

Replays :class:`~repro.workloads.sessions.TenantSession` traces against
a :class:`~repro.gateway.gateway.Gateway` the way real browser sessions
arrive: every session is its own closed loop -- the next interaction is
issued only after the previous response lands (plus an optional think
time) -- and N sessions run concurrently on the event loop.  Closed
loops are the honest way to load a bounded-queue server: an open loop
(fixed arrival rate) measures the queue, not the service, once the rate
exceeds capacity.

The report aggregates what the overload story is judged on: tail
latency (p50/p95/p99 over served requests), shed and quota rates, the
coalesce rate, and the degraded-tile fraction (the accuracy the gateway
traded for staying inside deadlines).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.workloads.sessions import TenantSession

if TYPE_CHECKING:  # the gateway imports the browse stack, which imports
    # this package's tiling helpers -- a runtime import here would be
    # circular, so the generator imports the request type lazily.
    from repro.gateway.gateway import Gateway, GatewayResponse

__all__ = ["LoadgenReport", "percentile", "run_loadgen"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class LoadgenReport:
    """What one closed-loop run measured."""

    sessions: int = 0
    requests: int = 0
    ok: int = 0
    degraded: int = 0
    shed: int = 0
    quota_rejected: int = 0
    errors: int = 0
    coalesced: int = 0
    elapsed_s: float = 0.0
    #: End-to-end latencies of *served* requests (ok + degraded).
    latencies_s: list[float] = field(default_factory=list)
    #: Per-served-raster fraction of tiles answered.
    valid_fractions: list[float] = field(default_factory=list)

    @property
    def served(self) -> int:
        """Requests that got a raster back (complete or partial)."""
        return self.ok + self.degraded

    @property
    def shed_rate(self) -> float:
        """Sheds (quota included) as a fraction of all requests."""
        if not self.requests:
            return 0.0
        return (self.shed + self.quota_rejected) / self.requests

    @property
    def coalesce_rate(self) -> float:
        """Responses served by another request's computation, in flight
        or finished, over all served."""
        if not self.served:
            return 0.0
        return self.coalesced / self.served

    @property
    def degraded_tile_fraction(self) -> float:
        """Mean fraction of tiles *not* answered across served rasters."""
        if not self.valid_fractions:
            return 0.0
        return 1.0 - sum(self.valid_fractions) / len(self.valid_fractions)

    @property
    def throughput_rps(self) -> float:
        """Served requests per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.served / self.elapsed_s

    def latency(self, q: float) -> float:
        """The ``q``-percentile served latency in seconds."""
        return percentile(self.latencies_s, q)

    def record(self, response: "GatewayResponse") -> None:
        """Fold one gateway response into the tallies."""
        self.requests += 1
        if response.status == "ok":
            self.ok += 1
        elif response.status == "degraded":
            self.degraded += 1
        elif response.error is not None and response.error.get("code") == "tenant_quota_exceeded":
            self.quota_rejected += 1
        elif response.shed:
            self.shed += 1
        else:
            self.errors += 1
        if response.ok:
            self.latencies_s.append(response.total_s)
            self.valid_fractions.append(response.valid_fraction)
            if response.coalesced:
                self.coalesced += 1

    def to_dict(self) -> dict:
        """A JSON-safe summary (what ``repro loadgen`` prints)."""
        return {
            "sessions": self.sessions,
            "requests": self.requests,
            "served": self.served,
            "ok": self.ok,
            "degraded": self.degraded,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "errors": self.errors,
            "coalesced": self.coalesced,
            "elapsed_s": round(self.elapsed_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "shed_rate": round(self.shed_rate, 4),
            "coalesce_rate": round(self.coalesce_rate, 4),
            "degraded_tile_fraction": round(self.degraded_tile_fraction, 4),
            "latency_p50_s": round(self.latency(50), 6),
            "latency_p95_s": round(self.latency(95), 6),
            "latency_p99_s": round(self.latency(99), 6),
        }


async def run_loadgen(
    gateway: "Gateway",
    plans: Sequence[TenantSession],
    *,
    deadline_s: float | None = None,
    think_time_s: float = 0.0,
    max_concurrent: int | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> LoadgenReport:
    """Replay ``plans`` against ``gateway``, every plan a closed loop.

    ``deadline_s`` is the per-request client budget, ``think_time_s`` an
    optional pause between a response and the session's next request.
    ``max_concurrent`` bounds simultaneously active sessions (all at
    once when ``None``) -- the knob that sweeps offered load past
    capacity.
    """
    from repro.gateway.gateway import TileRequest

    if think_time_s < 0:
        raise ValueError("think_time_s must be non-negative")
    report = LoadgenReport(sessions=len(plans))
    limiter = (
        asyncio.Semaphore(max_concurrent) if max_concurrent is not None else None
    )

    async def drive(plan: TenantSession) -> None:
        for step in plan.session:
            request = TileRequest(
                tenant=plan.tenant,
                dataset=plan.dataset,
                region=step.region,
                rows=step.rows,
                cols=step.cols,
                relation=step.relation,
                deadline_s=deadline_s,
                session=plan.session_id,
            )
            response = await gateway.submit(request)
            report.record(response)
            if think_time_s:
                await asyncio.sleep(think_time_s)

    async def gated(plan: TenantSession) -> None:
        if limiter is None:
            await drive(plan)
            return
        async with limiter:
            await drive(plan)

    started = clock()
    await asyncio.gather(*(gated(plan) for plan in plans))
    report.elapsed_s = clock() - started
    return report
