"""The zoned out-of-core construction pipeline.

:func:`build_zoned` streams a chunk source through bounded memory into
an :class:`~repro.euler.histogram.EulerHistogram` that is bit-identical
to a direct ``add_dataset`` build of the same stream:

1. chunks are dealt round-robin to a :class:`~repro.ingest.pool.ZoneBuildPool`
   of worker processes (or accumulated inline when ``workers <= 1`` or
   no worker comes up);
2. each participant snaps its chunks to lattice spans, routes every span
   to a zone of the shared :class:`~repro.ingest.zones.ZoneMap` and
   scatters it into a budgeted
   :class:`~repro.ingest.accumulator.ZoneAccumulator`, spilling cold
   zones as checksummed, sparse records to its own spill log under
   memory pressure;
3. chunks lost to worker crashes, and chunks no worker would take, are
   re-read from the (replayable) source and accumulated inline once the
   pool has closed -- the build completes bit-identically no matter how
   many workers died, and the inline accumulator never holds its budget
   while a worker holds its share;
4. each participant -- every pool worker and the inline accumulator --
   folds its live zones and its own spill log into one partial
   (:meth:`~repro.ingest.accumulator.ZoneAccumulator.finish`), and a
   merge pass adds those at most ``workers + 1`` partials into one
   global builder.  No spill crosses a process boundary, and a build
   that ends without a result leaves none of its spill logs.

Bit-parity is structural, not statistical: snapping is deterministic,
difference-domain accumulation is int64-exact and order-independent, and
zone routing only decides *which* accumulator a span lands in, so any
partitioning of the stream across zones, workers and spills merges to
the same histogram.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass

from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder
from repro.grid.grid import Grid

# ``load_zone_partial`` is not called here, but the benchmark harness's
# traced run (benchmarks/harness/spans.py) wraps this module's binding.
from repro.ingest.accumulator import ZoneAccumulator, ZonePartial, load_zone_partial  # noqa: F401
from repro.ingest.chunks import ChunkSource
from repro.ingest.pool import ZoneBuildPool
from repro.ingest.worker import snap_columns
from repro.ingest.zones import ZoneMap
from repro.obs.instruments import IngestInstrumentation

__all__ = ["IngestReport", "ZonedBuildResult", "build_zoned"]

#: Default chunk size: large enough to amortise per-chunk overhead,
#: small enough that a chunk's columns stay a few MB.
DEFAULT_CHUNK_SIZE = 250_000


@dataclass(frozen=True)
class IngestReport:
    """What one zoned build did, for metrics, benchmarks and the CLI.

    Every chunk counts once: ``chunks_pool`` under a worker that
    finished, ``chunks_inline`` in a build that ran no pool (``workers
    <= 1``, a budget too small to share, or no worker came up), and
    ``chunks_replayed`` when it was re-read after the pool closed
    because its worker was lost or no worker would take it.
    ``peak_accumulator_bytes`` is the larger of the pool's peak (its
    workers' peaks summed) and the inline accumulator's, which never
    run at the same time.
    """

    source: str
    objects: int
    chunks: int
    chunks_pool: int
    chunks_inline: int
    chunks_replayed: int
    zones: int
    curve: str
    chunk_size: int
    workers: int
    crashes: int
    spills: int
    peak_accumulator_bytes: int
    budget_bytes: int
    elapsed_seconds: float
    objects_per_second: float

    def to_dict(self) -> dict[str, object]:
        """JSON-ready view."""
        return {
            "source": self.source,
            "objects": self.objects,
            "chunks": self.chunks,
            "chunks_pool": self.chunks_pool,
            "chunks_inline": self.chunks_inline,
            "chunks_replayed": self.chunks_replayed,
            "zones": self.zones,
            "curve": self.curve,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "crashes": self.crashes,
            "spills": self.spills,
            "peak_accumulator_bytes": self.peak_accumulator_bytes,
            "budget_bytes": self.budget_bytes,
            "elapsed_seconds": self.elapsed_seconds,
            "objects_per_second": self.objects_per_second,
        }


@dataclass
class ZonedBuildResult:
    """A zoned build's outputs."""

    histogram: EulerHistogram
    zone_map: ZoneMap
    report: IngestReport


def _accumulate_inline(
    accumulator: ZoneAccumulator, zone_map: ZoneMap, chunk
) -> None:
    a_lo, a_hi, b_lo, b_hi = snap_columns(
        zone_map.grid, chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi
    )
    zones = zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi)
    accumulator.add_spans(zones, a_lo, a_hi, b_lo, b_hi)


def build_zoned(
    source: ChunkSource,
    grid: Grid,
    *,
    zones: int = 64,
    curve: str = "morton",
    memory_mb: int = 256,
    workers: int = 0,
    start_method: str = "spawn",
    spill_dir: str | os.PathLike | None = None,
    dispatch_timeout: float = 60.0,
    instruments: IngestInstrumentation | None = None,
) -> ZonedBuildResult:
    """Stream ``source`` into an Euler histogram over ``grid`` through
    bounded memory (see module docstring).

    Parameters
    ----------
    source:
        A replayable chunk source; its ``chunk_size`` sets the streaming
        granularity.  Replayability (``reread``) is exercised only when
        a worker crashes.
    zones, curve:
        Zone count and space-filling curve of the :class:`ZoneMap`.
    memory_mb:
        Global accumulator budget.  With workers it is divided evenly
        among them; the worker count is clamped so every worker can
        afford at least one zone builder.
    workers:
        Worker processes; ``0`` or ``1`` builds inline in this process.
    spill_dir:
        Where zone partials spill.  Defaults to a temporary directory
        removed when the build finishes; a caller-provided directory is
        left in place, and none of the build's own files stay in it,
        whether the build succeeds or fails.
    instruments:
        Optional :class:`~repro.obs.instruments.IngestInstrumentation`
        to record the ``repro_ingest_*`` families into.
    """
    if memory_mb < 1:
        raise ValueError(f"memory_mb must be positive, got {memory_mb}")
    budget_bytes = int(memory_mb) * (1 << 20)
    zone_map = ZoneMap.for_grid(grid, zones, curve)
    shape = grid.lattice_shape
    builder_nbytes = (shape[0] + 1) * (shape[1] + 1) * 8
    if budget_bytes < builder_nbytes:
        raise ValueError(
            f"--memory-mb {memory_mb} cannot hold even one zone accumulator "
            f"({builder_nbytes} B for a {shape[0]}x{shape[1]} lattice)"
        )

    own_spill_dir = spill_dir is None
    spill_root = (
        tempfile.mkdtemp(prefix="repro-ingest-") if own_spill_dir else os.fspath(spill_dir)
    )
    started = time.monotonic()
    chunks_pool = chunks_inline = chunks_replayed = 0
    crashes = spills = 0
    peak_bytes = 0
    refused: list[int] = []
    partials: list[ZonePartial] = []
    inline_acc: ZoneAccumulator | None = None

    def inline_accumulator() -> ZoneAccumulator:
        nonlocal inline_acc
        if inline_acc is None:
            inline_acc = ZoneAccumulator(
                grid, budget_bytes, spill_root, label=f"{source.name}-inline"
            )
        return inline_acc

    try:
        # Every worker must afford at least one builder out of its share
        # of the budget; clamp the fan-out rather than failing.
        num_workers = min(int(workers), budget_bytes // builder_nbytes)
        result = None
        if num_workers > 1:
            pool = ZoneBuildPool(
                zone_map,
                workers=num_workers,
                budget_bytes=budget_bytes // num_workers,
                spill_dir=spill_root,
                start_method=start_method,
                dispatch_timeout=dispatch_timeout,
                label=source.name,
            )
            # The readiness wait is inside the ``try`` too: an interrupt
            # or a failed respawn there must not leave workers running.
            # With no worker ready, the build degrades to inline below.
            try:
                if pool.ensure_ready() > 0:
                    for index, chunk in source:
                        if len(chunk) == 0:
                            continue
                        if pool.dispatch(index, chunk):
                            chunks_pool += 1
                        else:
                            refused.append(index)
                    result = pool.drain()
            finally:
                pool.close()

        if result is not None:
            partials.extend(result.partials)
            crashes = result.crashes
            spills += result.spills
            peak_bytes = result.peak_bytes
            # A lost chunk was dispatched, but its pool-side work died
            # with the worker -- count it once, under replay.  Replay
            # starts only now that the pool has closed, so the inline
            # accumulator's budget is never held beside the workers'.
            lost = set(result.lost_chunks)
            chunks_pool -= len(lost)
            for index in sorted(lost.union(refused)):
                _accumulate_inline(inline_accumulator(), zone_map, source.reread(index))
                chunks_replayed += 1
        else:
            for index, chunk in source:
                if len(chunk) == 0:
                    continue
                _accumulate_inline(inline_accumulator(), zone_map, chunk)
                chunks_inline += 1

        if inline_acc is not None:
            partials.extend(inline_acc.finish())
            spills += inline_acc.spills
            peak_bytes = max(peak_bytes, inline_acc.peak_bytes)

        # ---- merge pass: one folded partial per participant ---- #
        # Int64 difference-domain addition is order-independent.
        global_builder = EulerHistogramBuilder(grid)
        for partial in partials:
            global_builder.add_partial(
                partial.a_lo, partial.b_lo, partial.patch, partial.num_objects
            )
        histogram = global_builder.build()
    finally:
        # The pool deleted its workers' logs on close; the inline
        # accumulator deletes its own.
        if inline_acc is not None:
            inline_acc.discard()
        if own_spill_dir:
            shutil.rmtree(spill_root, ignore_errors=True)

    elapsed = time.monotonic() - started
    report = IngestReport(
        source=source.name,
        objects=histogram.num_objects,
        chunks=chunks_pool + chunks_inline + chunks_replayed,
        chunks_pool=chunks_pool,
        chunks_inline=chunks_inline,
        chunks_replayed=chunks_replayed,
        zones=zone_map.num_zones,
        curve=zone_map.curve,
        chunk_size=source.chunk_size,
        workers=num_workers if num_workers > 1 else 0,
        crashes=crashes,
        spills=spills,
        peak_accumulator_bytes=peak_bytes,
        budget_bytes=budget_bytes,
        elapsed_seconds=elapsed,
        objects_per_second=histogram.num_objects / elapsed if elapsed > 0 else 0.0,
    )
    if instruments is not None:
        obs = instruments
        obs.objects.labels(source=report.source).inc(report.objects)
        obs.chunks.labels(source=report.source, path="pool").inc(report.chunks_pool)
        obs.chunks.labels(source=report.source, path="inline").inc(report.chunks_inline)
        obs.chunks.labels(source=report.source, path="replay").inc(report.chunks_replayed)
        obs.spills.labels(source=report.source).inc(report.spills)
        obs.worker_crashes.labels(source=report.source).inc(report.crashes)
        obs.peak_accumulator_bytes.labels(source=report.source).set(
            report.peak_accumulator_bytes
        )
        obs.objects_per_second.labels(source=report.source).set(report.objects_per_second)
        obs.build_seconds.labels(source=report.source).observe(report.elapsed_seconds)
    return ZonedBuildResult(histogram=histogram, zone_map=zone_map, report=report)
