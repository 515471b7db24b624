"""Deterministic fault injection for resilience testing.

The resilience layer (:mod:`repro.browse.resilience`) promises specific
degradation behaviour -- fallback to the next tier after a failed call,
partial rasters under a deadline, NaN corruption never reaching a
client.  Those promises are only testable against an estimator that
fails *on cue*:
:class:`FaultyEstimator` wraps any real estimator and injects exceptions,
latency and NaN-corrupted counts according to a :class:`FaultSchedule`,
either scripted call-by-call or drawn from a seeded RNG.  Everything is
deterministic given the schedule, so the test suite exercises every
degradation path end to end without flakes or real sleeps (latency is
"injected" through a caller-supplied ``sleep``/clock-advancing hook).

This module lives in the library (not under ``tests/``) on purpose:
operators staging a deployment can wrap production estimators the same
way to rehearse failure drills.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro.euler.base import Level2BatchEstimator, Level2Estimator, as_batch_estimator
from repro.euler.estimates import Level2Counts, Level2CountsBatch
from repro.grid.tiles_math import TileQuery, TileQueryBatch

__all__ = [
    "FaultSchedule",
    "FaultyBatchEstimator",
    "FaultyEstimator",
    "InjectedFault",
]

#: The fault kinds a schedule can emit.
FAULT_KINDS = ("none", "error", "latency", "nan")


class InjectedFault(RuntimeError):
    """The failure :class:`FaultyEstimator` raises on cue."""


class FaultSchedule:
    """Decides, deterministically, which fault each successive call gets.

    Two modes:

    - **Scripted**: pass ``script=("error", "none", "nan", ...)``; faults
      are consumed in order, then ``"none"`` forever (or cycled with
      ``cycle=True``).  Tests use this for exact choreography.
    - **Seeded**: pass per-kind rates; each call draws once from a
      ``numpy`` generator seeded with ``seed``, so a given seed always
      produces the same fault sequence.

    ``latency`` is the injected delay in seconds for ``"latency"``
    faults.  The schedule also owns the RNG used to pick *which* batch
    entries a ``"nan"`` fault corrupts (:meth:`corrupt_mask`), keeping
    the whole fault stream reproducible from one seed.

    The cursor and RNG are lock-guarded, so one schedule can drive an
    estimator shared by concurrent requests' threads: the *set* of
    faults drawn is still the scripted/seeded sequence, though which
    thread receives which fault depends on scheduling.
    """

    def __init__(
        self,
        *,
        script: Sequence[str] | None = None,
        cycle: bool = False,
        seed: int = 0,
        error_rate: float = 0.0,
        latency_rate: float = 0.0,
        nan_rate: float = 0.0,
        latency: float = 0.05,
    ) -> None:
        if script is not None:
            unknown = sorted(set(script) - set(FAULT_KINDS))
            if unknown:
                raise ValueError(f"unknown fault kind(s) {unknown}; expected {FAULT_KINDS}")
        for name, rate in (
            ("error_rate", error_rate),
            ("latency_rate", latency_rate),
            ("nan_rate", nan_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if error_rate + latency_rate + nan_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._script = list(script) if script is not None else None
        self._cycle = cycle
        self._cursor = 0
        self._rates = (error_rate, latency_rate, nan_rate)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        #: Injected delay, in seconds, for ``"latency"`` faults.
        self.latency = latency

    def next_fault(self) -> str:
        """The fault kind for the next call (one of :data:`FAULT_KINDS`)."""
        with self._lock:
            if self._script is not None:
                if self._cursor >= len(self._script):
                    if not self._cycle or not self._script:
                        return "none"
                    self._cursor = 0
                fault = self._script[self._cursor]
                self._cursor += 1
                return fault
            draw = float(self._rng.random())
        error_rate, latency_rate, nan_rate = self._rates
        if draw < error_rate:
            return "error"
        if draw < error_rate + latency_rate:
            return "latency"
        if draw < error_rate + latency_rate + nan_rate:
            return "nan"
        return "none"

    def corrupt_mask(self, n: int) -> np.ndarray:
        """A boolean mask choosing which of ``n`` batch entries a
        ``"nan"`` fault corrupts -- always at least one entry."""
        if n < 1:
            return np.zeros(0, dtype=bool)
        with self._lock:
            mask = self._rng.random(n) < 0.5
            if not mask.any():
                mask[int(self._rng.integers(n))] = True
        return mask


class FaultyEstimator:
    """A scalar estimator wrapper that injects faults on schedule.

    Wraps any :class:`~repro.euler.base.Level2Estimator`; each
    ``estimate`` call first consults the schedule:

    - ``"error"``: raises :class:`InjectedFault` (the wrapped estimator
      is never called);
    - ``"latency"``: calls ``sleep(schedule.latency)`` -- pass a fake
      that advances a test clock -- then answers normally;
    - ``"nan"``: answers, then corrupts every count to NaN;
    - ``"none"``: transparent passthrough.

    ``calls`` and the per-kind ``injected`` counters let tests assert
    exactly what was exercised.
    """

    def __init__(
        self,
        estimator: Level2Estimator,
        schedule: FaultSchedule,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._inner = estimator
        self._schedule = schedule
        self._sleep = sleep
        self._counter_lock = threading.Lock()
        #: Total estimate calls received (batch calls count once).
        self.calls = 0
        #: Faults injected so far, keyed by kind.
        self.injected = {"error": 0, "latency": 0, "nan": 0}

    @property
    def name(self) -> str:
        """The wrapped estimator's label, marked as faulty."""
        return f"Faulty({self._inner.name})"

    @property
    def wrapped(self) -> Level2Estimator:
        """The estimator being wrapped."""
        return self._inner

    def _begin_call(self) -> str:
        """Advance the schedule, bump counters, apply error/latency."""
        with self._counter_lock:
            self.calls += 1
            call_number = self.calls
        fault = self._schedule.next_fault()
        if fault == "error":
            self._note_injected("error")
            raise InjectedFault(
                f"injected failure on call {call_number} of {self.name}"
            )
        if fault == "latency":
            self._note_injected("latency")
            self._sleep(self._schedule.latency)
        return fault

    def _note_injected(self, kind: str) -> None:
        """Count one injected fault (thread-safe)."""
        with self._counter_lock:
            self.injected[kind] += 1

    def estimate(self, query: TileQuery) -> Level2Counts:
        """Answer one query, subject to the schedule's next fault."""
        fault = self._begin_call()
        counts = self._inner.estimate(query)
        if fault == "nan":
            self._note_injected("nan")
            return Level2Counts(math.nan, math.nan, math.nan, math.nan)
        return counts


class FaultyBatchEstimator(FaultyEstimator):
    """A batch-capable :class:`FaultyEstimator`.

    ``estimate_batch`` draws **one** fault per batch call (a chunk is the
    serving layer's unit of failure); a ``"nan"`` fault corrupts a
    seeded subset of the batch entries via
    :meth:`FaultSchedule.corrupt_mask`, modelling partial corruption
    rather than a wholly-poisoned answer.
    """

    def __init__(
        self,
        estimator: Level2Estimator,
        schedule: FaultSchedule,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(estimator, schedule, sleep=sleep)
        self._inner_batch: Level2BatchEstimator = as_batch_estimator(estimator)

    def estimate_batch(self, queries: TileQueryBatch) -> Level2CountsBatch:
        """Answer a whole batch, subject to one scheduled fault."""
        fault = self._begin_call()
        counts = self._inner_batch.estimate_batch(queries)
        if fault == "nan":
            self._note_injected("nan")
            mask = self._schedule.corrupt_mask(len(queries))
            corrupted = {}
            for field_name in ("n_d", "n_cs", "n_cd", "n_o"):
                column = np.array(getattr(counts, field_name), dtype=np.float64)
                column[mask] = np.nan
                corrupted[field_name] = column
            return Level2CountsBatch(**corrupted)
        return counts
