"""The out-of-core build workloads: ``build_zoned`` over a ``.npy`` stream.

Both workloads stream the same file through ``workers=2`` spawned zone
builders; only the memory budget differs.  At 256 MiB every zone
accumulator fits (no spills), so pool start, dispatch, routing and merge
carry the work; at 64 MiB each build makes hundreds of checksummed spills
and reloads, the larger-than-memory case.  Builds repeat back to back
until the window is spent (at least :data:`MIN_BUILDS`), and every build
is checked bit for bit against the direct in-memory build of the stream.
A build that raises is counted as failed and fails the run.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
import traceback

import numpy as np

from repro.euler.histogram import EulerHistogram
from repro.ingest import ZoneBuildPool, ZoneMap, build_zoned

import spans as span_mod
from prepare import Inputs, stream_grid
from stats import percentile

ZONES = 64
WORKERS = 2
START_METHOD = "spawn"
MIN_BUILDS = 3
SETUPS = 5

#: Workload -> global accumulator budget in MiB.
BUDGETS = {"build-fit": 256, "build-spill": 64}


def _cpu() -> float:
    """CPU seconds of this process plus its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def set_up(inputs: Inputs, memory_mb: int) -> float:
    """What a build does before its first object: open the stream, zone
    the grid and start the worker pool until every worker is ready."""
    started = time.perf_counter()
    inputs.open_stream()
    zone_map = ZoneMap.for_grid(stream_grid(), ZONES)
    pool = ZoneBuildPool(
        zone_map,
        workers=WORKERS,
        budget_bytes=(memory_mb << 20) // WORKERS,
        spill_dir=inputs.dir,
        start_method=START_METHOD,
    )
    try:
        if pool.ensure_ready() != WORKERS:
            raise RuntimeError("the build pool did not start every worker")
        return time.perf_counter() - started
    finally:
        pool.close()


def _layer_metrics(recorder: span_mod.SpanRecorder, reports) -> dict[str, float]:
    """Per-build medians of the parent-side ingest spans."""
    groups = {
        "ingest.pool_start_s": ("ingest.pool_start", "ingest.pool_ready"),
        "ingest.dispatch_s": ("ingest.dispatch",),
        "ingest.read_s": ("ingest.read",),
        "ingest.drain_s": ("ingest.drain",),
        "ingest.merge_s": ("ingest.merge.load", "ingest.merge.add", "ingest.merge.build"),
    }
    builds = {s.request for s in recorder.named("build")}
    layers = {}
    for metric, names in groups.items():
        totals = dict.fromkeys(builds, 0.0)
        for span in recorder.spans:
            if span.name in names and span.request in totals:
                totals[span.request] += span.duration
        layers[metric] = statistics.median(totals.values())
    layers.update(
        {
            "ingest.spills": statistics.median(r.spills for r in reports),
            "ingest.peak_accumulator_mb": max(r.peak_accumulator_bytes for r in reports) / 2**20,
            "ingest.workers": statistics.median(r.workers for r in reports),
            "ingest.chunks_replayed": float(sum(r.chunks_replayed for r in reports)),
        }
    )
    return layers


def run(name: str, inputs: Inputs, *, seconds: float, seed: int, trace: bool) -> dict:
    """One run of a build workload; returns the result record.  The
    stream is a fixed input, so ``seed`` changes nothing here."""
    memory_mb = BUDGETS[name]
    reference = EulerHistogram.load(inputs.stream_reference)
    grid = stream_grid()
    recorder = span_mod.SpanRecorder() if trace else None
    undo = span_mod.install(recorder) if recorder is not None else None
    walls, cpus, reports, problems = [], [], [], []
    attempted = 0
    window = time.perf_counter()
    try:
        # Stop once another build would overrun the window.
        while attempted < MIN_BUILDS or (
            walls and time.perf_counter() - window + walls[-1] <= seconds
        ):
            index = attempted
            attempted += 1
            cpu = _cpu()
            started = time.perf_counter()
            try:
                with (
                    recorder.span("build", request=index)
                    if recorder is not None
                    else contextlib.nullcontext()
                ):
                    result = build_zoned(
                        inputs.open_stream(),
                        grid,
                        zones=ZONES,
                        memory_mb=memory_mb,
                        workers=WORKERS,
                        start_method=START_METHOD,
                        spill_dir=inputs.dir,
                    )
            except Exception as exc:  # a failed build is counted, not fatal
                traceback.print_exc()
                problems.append(f"build {index} failed: {exc!r}")
                continue
            walls.append(time.perf_counter() - started)
            cpus.append(_cpu() - cpu)
            report = result.report
            reports.append(report)
            if not np.array_equal(result.histogram.buckets(), reference.buckets()):
                problems.append(f"build {index}: histogram differs from the direct build")
            if result.histogram.num_objects != reference.num_objects:
                problems.append(f"build {index}: object count differs from the direct build")
            if report.peak_accumulator_bytes > report.budget_bytes:
                problems.append(f"build {index}: accumulators exceeded the memory budget")
    finally:
        if undo is not None:
            undo()
    if not walls:
        raise RuntimeError("; ".join(problems))
    # After the builds, so a warm process times them (as for serving).
    setups = [set_up(inputs, memory_mb) for _ in range(SETUPS)]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    objects = reference.num_objects
    end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "cpu_ms_per_op": statistics.median(cpus) * 1e3,
        "served_per_s": objects / statistics.median(walls),
        # A build has no deadline, and a wrong one fails the run.
        "goodput_per_s": objects / statistics.median(walls),
        "rss_peak_mb": max(own, children) / 1024.0,
    }
    diagnostics = {
        "latency_p99_ms": percentile(walls, 99) * 1e3,
        "error_fraction": (attempted - len(walls)) / attempted,
        "builds": len(walls),
        "spills": [r.spills for r in reports],
        "workers": [r.workers for r in reports],
    }
    layers = None
    if recorder is not None:
        layers = _layer_metrics(recorder, reports)
        layers.update(
            {
                "trace.latency_p50_ms": end_to_end["latency_p50_ms"],
                "trace.cpu_ms_per_op": end_to_end["cpu_ms_per_op"],
                "trace.spans_per_op": len(recorder.spans) / attempted,
            }
        )
    return {
        "attempted": attempted,
        "failed": attempted - len(walls),
        "problems": problems,
        "end_to_end": end_to_end,
        "diagnostics": diagnostics,
        "layers": layers,
        "recorder": recorder,
    }
