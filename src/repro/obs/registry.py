"""Dependency-free metrics primitives for the serving stack.

A :class:`MetricsRegistry` owns named metric families of three kinds --
:class:`Counter`, :class:`Gauge` and fixed-bucket :class:`Histogram` --
each optionally split by a fixed set of label names.  The design follows
the Prometheus client-library data model (families, labelled children,
cumulative histogram buckets) but is deliberately self-contained: the
container bakes in no metrics client, and the paper's evaluation only
needs counts, latencies and error mass, all of which these three
primitives cover.

Thread safety: every mutation and every read goes through one lock per
registry, so concurrent browse requests can share a registry and the
exporters always see a consistent snapshot.  The clock is injectable for
the same reason everything else in the serving stack takes one -- tests
assert exact timings against a fake clock.

A process-wide *default registry* hook lets layers with no constructor
path for dependency injection (the persistence module's ``load``/
``verify`` free functions) record outcomes when an operator has opted
in; it is ``None`` unless :func:`set_default_registry` was called, so
library users who never touch observability pay nothing.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
from typing import Callable, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_default_registry",
    "set_default_registry",
]

#: ``clock()`` -> seconds; monotonic in production, fake under test.
Clock = Callable[[], float]

#: Latency buckets (seconds) spanning sub-millisecond numpy gathers up to
#: multi-second degraded requests -- the serving stack's default.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class _MetricFamily:
    """Common machinery: one named family, children keyed by label values.

    A family declared without labels acts as its own single child, so
    ``registry.counter("x").inc()`` works without a ``labels()`` hop.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: tuple[str, ...], lock: threading.Lock
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}
        if not label_names:
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **label_values: str) -> object:
        """The child for one label-value combination, created on first use."""
        if tuple(sorted(label_values)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.label_names)}, "
                f"got {sorted(label_values)}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def _sole_child(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labelled by {list(self.label_names)}; "
                f"call .labels(...) first"
            )
        return self._children[()]

    def samples(self) -> list[dict]:
        """Per-child state dicts, label values attached.  Lock-consistent."""
        with self._lock:
            return [
                {"labels": dict(zip(self.label_names, key)), **child._state()}
                for key, child in sorted(self._children.items())
            ]


class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _state(self) -> dict:
        return {"value": self._value}


class _GaugeChild:
    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge by ``amount`` (either sign)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _state(self) -> dict:
        return {"value": self._value}


class _HistogramChild:
    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: tuple[float, ...], lock: threading.Lock) -> None:
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # one overflow bin (+Inf)
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        if value != value:
            raise ValueError("cannot observe NaN")
        with self._lock:
            self._counts[bisect.bisect_left(self._bounds, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            return self._cumulative()

    def _cumulative(self) -> list[tuple[float, int]]:
        total = 0
        out = []
        for bound, n in zip((*self._bounds, float("inf")), self._counts):
            total += n
            out.append((bound, total))
        return out

    def _state(self) -> dict:
        return {"sum": self._sum, "count": self._count, "buckets": self._cumulative()}


class Counter(_MetricFamily):
    """A monotonically increasing count (events, tiles, failures)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less counter."""
        self._sole_child().inc(amount)

    @property
    def value(self) -> float:
        """Current value of the label-less counter."""
        return self._sole_child().value


class Gauge(_MetricFamily):
    """A value that can go either way (deadline margin, queue depth)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        """Set the label-less gauge."""
        self._sole_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the label-less gauge by ``amount``."""
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Move the label-less gauge down by ``amount``."""
        self._sole_child().dec(amount)

    @property
    def value(self) -> float:
        """Current value of the label-less gauge."""
        return self._sole_child().value


class Histogram(_MetricFamily):
    """Fixed-bucket distribution (latencies, absolute errors, depths)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
        buckets: tuple[float, ...],
    ) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if any(b != b or b == float("inf") for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be strictly increasing, got {buckets}")
        self.buckets = bounds
        super().__init__(name, help, label_names, lock)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets, self._lock)

    def observe(self, value: float) -> None:
        """Record one observation on the label-less histogram."""
        self._sole_child().observe(value)

    @property
    def count(self) -> int:
        """Observation count of the label-less histogram."""
        return self._sole_child().count

    @property
    def sum(self) -> float:
        """Observation sum of the label-less histogram."""
        return self._sole_child().sum


class MetricsRegistry:
    """A named collection of metric families with one shared lock.

    ``counter``/``gauge``/``histogram`` are idempotent: re-declaring an
    existing name with the same kind, labels and (for histograms) buckets
    returns the existing family, so independently constructed components
    can share families by name; a conflicting re-declaration raises.
    """

    def __init__(self, *, clock: Clock = time.monotonic) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._families: dict[str, _MetricFamily] = {}

    def _declare(self, cls, name: str, help: str, labels: Sequence[str], **extra):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        if len(set(label_names)) != len(label_names):
            raise ValueError(f"duplicate label names on metric {name!r}: {label_names}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.label_names != label_names
                    or extra.get("buckets", getattr(existing, "buckets", None))
                    != getattr(existing, "buckets", None)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as a "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            family = cls(name, help, label_names, self._lock, **extra)
            self._families[name] = family
            return family

    def counter(self, name: str, *, help: str = "", labels: Sequence[str] = ()) -> Counter:
        """Declare (or fetch) a counter family."""
        return self._declare(Counter, name, help, labels)

    def gauge(self, name: str, *, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        """Declare (or fetch) a gauge family."""
        return self._declare(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        *,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Declare (or fetch) a fixed-bucket histogram family."""
        return self._declare(Histogram, name, help, labels, buckets=tuple(buckets))

    def get(self, name: str) -> _MetricFamily | None:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def __iter__(self) -> Iterator[_MetricFamily]:
        with self._lock:
            families = list(self._families.values())
        return iter(sorted(families, key=lambda f: f.name))

    def collect(self) -> list[dict]:
        """Every family's snapshot: name, type, help, labels, samples.

        This is the one structure both exporters render, which is what
        guarantees the Prometheus text and JSON views agree.
        """
        return [
            {
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": family.samples(),
            }
            for family in self
        ]


_default_lock = threading.Lock()
_default_registry: MetricsRegistry | None = None


def set_default_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or clear, with ``None``) the process default registry.

    Returns the previous default so callers can restore it.
    """
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


def get_default_registry() -> MetricsRegistry | None:
    """The process default registry, or ``None`` when observability is off."""
    with _default_lock:
        return _default_registry
