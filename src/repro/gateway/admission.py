"""Admission control for the serving gateway: triage, degrade, shed.

The gateway's front door decides, per request and *before* any work is
queued, one of three things:

- **Admit at full quality.**  The queue is short and the request's
  deadline budget comfortably covers the estimated queue wait plus one
  observed service time.
- **Admit degraded.**  The gateway is under pressure (the admission
  queue is filling) but the request can still be started in time.  The
  request is admitted with a *shrunken effective deadline*, so the
  resilience layer underneath answers what it can and returns a partial
  raster with a validity mask -- coarse-but-valid beats rejected, the
  GeoBlocks trade of accuracy for time under load.
- **Shed.**  The queue is full, or the remaining budget cannot cover
  the predicted wait: admitting the request would only let it time out
  in queue, burning a worker slot every other request needs.  Shedding
  happens immediately, with a ``retry_after_s`` backpressure hint, via
  :class:`~repro.errors.OverloadedError`.

Everything here is pure synchronous logic on an injectable clock -- no
asyncio, no threads -- so the triage rules are unit-testable with a fake
clock, exactly like the wave plan in :mod:`repro.browse.resilience`.
The gateway calls it only from the event loop, which serialises all
state access: the window keeps no lock, and every read trims it.  Each
call costs a constant number of Python steps (the window's bisect,
insert and delete run in C over at most ``max_samples`` floats),
because it runs once or twice per arrival on the loop that also decodes
and encodes every request.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ServiceTimeWindow",
]

Clock = Callable[[], float]


class ServiceTimeWindow:
    """A sliding window of recent service times, for wait prediction.

    Samples older than ``window_s`` on the injected clock (and beyond
    the newest ``max_samples``) are dropped, so the median tracks the
    *current* service-time regime -- a slow spell ages out instead
    of pessimising triage forever.  Before any sample lands, ``p50()``
    returns ``default_p50``: a small optimistic prior, so a cold gateway
    admits rather than sheds while it learns.

    The samples are kept twice: in arrival order (for eviction) and in a
    sorted list maintained by bisection (for the median), so a read
    indexes instead of sorting.  Only one thread may use a window.
    """

    def __init__(
        self,
        *,
        window_s: float = 30.0,
        max_samples: int = 512,
        default_p50: float = 0.02,
        clock: Clock = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        if default_p50 <= 0:
            raise ValueError("default_p50 must be positive")
        self._window_s = window_s
        self._max_samples = max_samples
        self._default_p50 = default_p50
        self._clock = clock
        self._samples: deque[tuple[float, float]] = deque()
        self._sorted: list[float] = []

    def _evict_oldest(self) -> None:
        _, seconds = self._samples.popleft()
        del self._sorted[bisect_left(self._sorted, seconds)]

    def _trim(self, now: float) -> None:
        horizon = now - self._window_s
        samples = self._samples
        while samples and samples[0][0] < horizon:
            self._evict_oldest()

    def observe(self, seconds: float) -> None:
        """Record one completed request's service time."""
        if not math.isfinite(seconds):
            raise ValueError("service time must be finite")
        if seconds < 0:
            raise ValueError("service time must be non-negative")
        now = self._clock()
        if len(self._samples) == self._max_samples:
            self._evict_oldest()
        self._samples.append((now, seconds))
        insort(self._sorted, seconds)
        self._trim(now)

    def __len__(self) -> int:
        """Samples currently inside the window."""
        self._trim(self._clock())
        return len(self._samples)

    def p50(self) -> float:
        """Median service time over the window (the prior when empty);
        the same value ``statistics.median`` gives over the samples."""
        self._trim(self._clock())
        ordered = self._sorted
        n = len(ordered)
        if not n:
            return self._default_p50
        if n % 2:
            return ordered[n // 2]
        return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


@dataclass(frozen=True)
class AdmissionDecision:
    """One triage outcome.

    ``admitted`` tells the gateway whether to enqueue at all.  When
    admitted, ``effective_deadline`` is the (possibly degraded) budget
    the serving layer should run under -- ``None`` means unbounded --
    and ``degrade_factor`` records how much of the client budget
    survived (1.0 = full quality).  When shed, ``reason`` is the wire
    label (``queue_full`` or ``deadline``) and ``retry_after_s`` the
    backpressure hint.  ``estimated_wait_s`` is the queue-wait estimate
    either way, for telemetry.
    """

    admitted: bool
    effective_deadline: float | None = None
    degrade_factor: float = 1.0
    estimated_wait_s: float = 0.0
    reason: str = ""
    retry_after_s: float | None = None
    #: The admission relied on the target service's pyramid tier: the
    #: budget cannot cover fine-grid work, but a coarse raster fits.
    coarse: bool = False


class AdmissionController:
    """Deadline-aware triage over a bounded admission queue.

    Parameters
    ----------
    workers:
        Executor threads draining the queue; the divisor of the wait
        estimate.
    max_pending:
        Bound on concurrently admitted computations.  At the bound every
        arrival is shed (``queue_full``); the *approach* to the bound is
        the pressure signal that drives degradation.
    window:
        The :class:`ServiceTimeWindow` supplying the observed p50.
    degrade_start:
        Pressure (``pending / max_pending``) at which degradation
        begins; below it requests run at full quality.
    degrade_floor:
        The minimum fraction of the client budget an admitted request
        keeps at full pressure.  Linear in between: quality degrades
        smoothly as the queue fills, instead of falling off a cliff.
    triage_margin:
        Safety multiplier on the p50 when predicting whether a budget
        covers the wait: admit only when
        ``budget > wait + triage_margin * p50``.  Larger margins shed
        earlier but make "admitted then timed out in queue" rarer; the
        dispatch-time backstop in the gateway catches the residue.
    """

    def __init__(
        self,
        *,
        workers: int,
        max_pending: int,
        window: ServiceTimeWindow,
        degrade_start: float = 0.5,
        degrade_floor: float = 0.25,
        triage_margin: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if not 0.0 < degrade_start <= 1.0:
            raise ValueError("degrade_start must be in (0, 1]")
        if not 0.0 < degrade_floor <= 1.0:
            raise ValueError("degrade_floor must be in (0, 1]")
        if triage_margin <= 0:
            raise ValueError("triage_margin must be positive")
        self.workers = workers
        self.max_pending = max_pending
        self.window = window
        self.degrade_start = degrade_start
        self.degrade_floor = degrade_floor
        self.triage_margin = triage_margin

    def estimated_wait(self, pending: int) -> float:
        """Predicted queue wait for a new arrival with ``pending``
        computations already admitted: the requests that must retire
        before a worker frees up, each costing the windowed p50."""
        return self._wait(pending, self.window.p50())

    def _wait(self, pending: int, p50: float) -> float:
        queued_ahead = max(0, pending - self.workers + 1)
        return queued_ahead * p50 / self.workers

    def degrade_factor(self, pending: int) -> float:
        """The budget fraction surviving at the current pressure:
        1.0 below ``degrade_start``, linearly down to ``degrade_floor``
        as pressure reaches 1."""
        pressure = pending / self.max_pending
        if pressure <= self.degrade_start:
            return 1.0
        if self.degrade_start >= 1.0:
            return self.degrade_floor
        span = 1.0 - self.degrade_start
        slope = (pressure - self.degrade_start) / span
        return max(self.degrade_floor, 1.0 - slope * (1.0 - self.degrade_floor))

    def triage(
        self, *, budget: float | None, pending: int, coarse_capable: bool = False
    ) -> AdmissionDecision:
        """Decide one arrival's fate (see the class docstring).

        ``budget`` is the client's remaining deadline in seconds
        (``None`` = unbounded, ``0.0`` = "whatever is free right now":
        admitted only when a worker is idle, and served with a zero
        effective deadline so the resilience layer answers from cache
        and viewport deltas alone).

        ``coarse_capable`` marks the target service as pyramid-backed
        (:mod:`repro.browse.refine`): before shedding on ``deadline``,
        a budget that at least covers the predicted queue wait is
        admitted anyway -- degrade-before-shed gains a second axis,
        since the service can answer a complete raster from a coarse
        pyramid level in a sliver of the fine-grid time.
        """
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative when given")
        p50 = self.window.p50()
        wait = self._wait(pending, p50)
        if pending >= self.max_pending:
            return AdmissionDecision(
                admitted=False,
                estimated_wait_s=wait,
                reason="queue_full",
                retry_after_s=round(max(wait, p50), 4),
            )
        factor = self.degrade_factor(pending)
        if budget is None:
            return AdmissionDecision(
                admitted=True,
                effective_deadline=None,
                degrade_factor=factor,
                estimated_wait_s=wait,
            )
        if budget == 0.0:
            if wait > 0.0:
                return AdmissionDecision(
                    admitted=False,
                    estimated_wait_s=wait,
                    reason="deadline",
                    retry_after_s=round(max(wait, p50), 4),
                )
            return AdmissionDecision(
                admitted=True,
                effective_deadline=0.0,
                degrade_factor=factor,
                estimated_wait_s=0.0,
            )
        if wait + self.triage_margin * p50 >= budget:
            if coarse_capable and budget > wait:
                # The fine path cannot finish, but whatever budget
                # survives the queue buys a complete coarse raster from
                # the service's pyramid tier: degrade to a coarser
                # level instead of shedding.
                return AdmissionDecision(
                    admitted=True,
                    effective_deadline=budget,
                    degrade_factor=self.degrade_floor,
                    estimated_wait_s=wait,
                    coarse=True,
                )
            # The budget cannot cover the wait plus one service time:
            # admitting would only let the request expire in queue.
            return AdmissionDecision(
                admitted=False,
                estimated_wait_s=wait,
                reason="deadline",
                retry_after_s=round(max(wait - budget, 0.0) + p50, 4),
            )
        # Degrade the *service* portion of the budget, never the queue
        # portion: an effective deadline below the predicted wait would
        # admit a request that reaches its worker already expired.
        effective = wait + (budget - wait) * factor
        return AdmissionDecision(
            admitted=True,
            effective_deadline=effective,
            degrade_factor=factor,
            estimated_wait_s=wait,
        )
