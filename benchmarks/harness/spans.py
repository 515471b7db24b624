"""In-memory spans around each layer's public entry points.

Only a traced run calls :func:`install`, which replaces the public
callables of the serving and ingest layers with timing wrappers (methods
on their classes, plus the module bindings the layers call through, such
as ``repro.browse.resilience.plan_delta``) and returns the function that
puts the originals back.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and request id.  On the
event loop the current span rides a context variable, so concurrent
requests keep separate stacks across ``await``.  Executor threads cannot
see that context: ``Gateway`` passes ``session="<tenant>/<session>"`` to
``browse``, and each session has at most one request in flight, so the
harness maps the session key to its current request and the browse span
hangs under that request's ``gateway.submit`` span.  A coalesced
follower never reaches ``browse``; its submit span carries the request id
of the leader whose browse computed its raster.

Spans stay in memory and are written as JSON lines at exit.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children count once."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


class SpanRecorder:
    """Collects spans; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None
        )
        #: Session key passed to ``browse`` -> its in-flight request id.
        self.session_requests: dict[str, int] = {}
        #: Request id -> its ``gateway.submit`` span id.
        self.submit_spans: dict[int, int] = {}
        #: Coalescing key -> request id of the latest leader to browse it.
        self.leaders: dict[tuple, int] = {}
        #: ``id(service)`` -> dataset name, for the coalescing key.
        self.service_datasets: dict[int, str] = {}

    def current(self) -> tuple[int, int] | None:
        """``(span id, request id)`` of the innermost open span."""
        return self._current.get()

    @contextmanager
    def span(self, name: str, *, request: int | None = None, parent: int | None = None, **attrs):
        """Open a span; it inherits request and parent from the current
        span unless given.  Yields the attrs dict for late additions."""
        cur = self._current.get()
        if cur is not None:
            parent = cur[0] if parent is None else parent
            request = cur[1] if request is None else request
        span_id = next(self._ids)
        token = self._current.set((span_id, request))
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            self._current.reset(token)
            self.spans.append(
                Span(span_id, parent, request, name, start, end, threading.get_ident(), attrs)
            )

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# --------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------- #


def _wrap(recorder: SpanRecorder, name: str, fn, on_result=None, root=None):
    """A timing wrapper around a synchronous callable.  ``on_result(args,
    kwargs, result)`` adds attrs; ``root(args, kwargs)`` gives
    ``(parent, request)`` when no span is open on this thread."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = request = None
        if root is not None and recorder.current() is None:
            parent, request = root(args, kwargs)
        with recorder.span(name, request=request, parent=parent) as attrs:
            result = fn(*args, **kwargs)
            if on_result is not None:
                attrs.update(on_result(args, kwargs, result))
        return result

    return wrapper


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the undo."""
    import repro.browse.resilience as resilience
    import repro.ingest.pipeline as pipeline
    from repro.browse.refine import PyramidSource
    from repro.browse.resilience import FallbackChain, ResilientBrowsingService
    from repro.cache import TileResultCache
    from repro.euler.histogram import EulerHistogramBuilder
    from repro.gateway import Gateway
    from repro.ingest import NpyChunkSource, ZoneBuildPool

    originals: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def sync(owner, attr, name, on_result=None, root=None):
        patch(owner, attr, _wrap(recorder, name, getattr(owner, attr), on_result, root))

    def browse_root(args, kwargs):
        request = recorder.session_requests.get(kwargs.get("session"))
        return recorder.submit_spans.get(request), request

    def browse_attrs(args, kwargs, result):
        service, _, rows, cols = args[:4]
        relation = args[4] if len(args) > 4 else kwargs.get("relation", "overlap")
        request = recorder.current()[1]
        if request is not None:
            key = (recorder.service_datasets.get(id(service)), result.region, rows, cols, relation)
            recorder.leaders[key] = request
        return {"tiles": rows * cols}

    submit = Gateway.submit

    @functools.wraps(submit)
    async def traced_submit(self, request):
        with recorder.span("gateway.submit") as attrs:
            cur = recorder.current()
            recorder.submit_spans[cur[1]] = cur[0]
            response = await submit(self, request)
            attrs["status"] = response.status
            if response.coalesced:
                # The leader's browse ended before this follower resumed.
                key = (
                    request.dataset,
                    response.result.region,
                    request.rows,
                    request.cols,
                    request.relation,
                )
                attrs["leader"] = recorder.leaders.get(key)
        return response

    patch(Gateway, "submit", traced_submit)
    sync(ResilientBrowsingService, "browse", "browse", on_result=browse_attrs, root=browse_root)
    sync(
        resilience,
        "plan_delta",
        "delta.plan",
        on_result=lambda a, k, plan: {"reused": 0 if plan is None else plan.n_reused},
    )
    sync(
        TileResultCache,
        "probe",
        "cache.probe",
        on_result=lambda a, k, r: {"tiles": int(r[1].size), "hits": int(np.count_nonzero(r[1]))},
    )
    sync(TileResultCache, "store", "cache.store")
    sync(PyramidSource, "raster", "refine.raster")
    sync(
        FallbackChain,
        "estimate_chunk_tiered",
        "estimate.chunk",
        on_result=lambda a, k, r: {
            "tiles": len(a[1]),
            "fallback": r[1] is not a[0].tiers[0],
        },
    )
    sync(ZoneBuildPool, "__init__", "ingest.pool_start")
    sync(ZoneBuildPool, "ensure_ready", "ingest.pool_ready")
    sync(ZoneBuildPool, "dispatch", "ingest.dispatch")
    sync(ZoneBuildPool, "drain", "ingest.drain")
    sync(NpyChunkSource, "reread", "ingest.read")
    sync(pipeline, "load_zone_partial", "ingest.merge.load")
    sync(EulerHistogramBuilder, "add_partial", "ingest.merge.add")
    sync(EulerHistogramBuilder, "build", "ingest.merge.build")

    def undo() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return undo
