"""``repro.obs``: dependency-free observability for the serving stack.

Metrics (:mod:`~repro.obs.registry`), wire exports
(:mod:`~repro.obs.export`), request tracing (:mod:`~repro.obs.trace`),
the serving stack's pre-wired families
(:mod:`~repro.obs.instruments`) and sampled accuracy telemetry
(:mod:`~repro.obs.accuracy`).  See DESIGN.md section 11.

:class:`AccuracyProbe` is imported lazily: it pulls in the browse and
workload layers, which the lightweight metric hooks (used from the
persistence layer) must not.
"""

from repro._exports import lazy_exports
from repro.obs.export import (
    parse_prometheus_text,
    samples_from_json,
    to_json,
    to_json_dict,
    to_prometheus_text,
    to_text,
)
from repro.obs.instruments import (
    BrowseInstrumentation,
    IngestInstrumentation,
    JoinInstrumentation,
    record_persistence_event,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.obs.trace import RequestTrace, Span

__all__ = [
    "AccuracyProbe",
    "BrowseInstrumentation",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "IngestInstrumentation",
    "JoinInstrumentation",
    "MetricsRegistry",
    "RequestTrace",
    "Span",
    "get_default_registry",
    "parse_prometheus_text",
    "record_persistence_event",
    "samples_from_json",
    "set_default_registry",
    "to_json",
    "to_json_dict",
    "to_prometheus_text",
    "to_text",
]

__getattr__, __dir__ = lazy_exports(__name__, {"repro.obs.accuracy": ("AccuracyProbe",)})
