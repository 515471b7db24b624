"""ZoneBuildPool behaviour: parity, crash recovery, stalls, errors.

Everything here uses the ``fork`` start method to keep pool startup
cheap; the spawn pickling path is exercised by the Hypothesis parity
suite (one example is enough to round-trip the ZoneMap and worker args
through a fresh interpreter).
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder
from repro.grid.grid import Grid
from repro.ingest import SyntheticChunkSource, build_zoned
from repro.ingest.pool import IngestWorkerError, ZoneBuildPool
from repro.ingest.worker import snap_columns
from repro.ingest.zones import ZoneMap

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork start method not available"
)

N_OBJECTS = 6000
CHUNK = 400


@pytest.fixture(scope="module")
def source():
    return SyntheticChunkSource("sz_skew", N_OBJECTS, CHUNK, seed=21)


@pytest.fixture(scope="module")
def grid(source):
    return Grid(source.extent, 48, 48)


@pytest.fixture(scope="module")
def direct(source, grid):
    return EulerHistogram.from_dataset(source.materialize(), grid)


def _pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_pool_build_matches_direct(source, grid, direct):
    result = build_zoned(
        source, grid, zones=24, workers=2, start_method="fork", memory_mb=64
    )
    assert result.report.workers == 2
    assert result.report.chunks_pool == source.num_chunks
    assert result.report.crashes == 0
    np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())


def test_each_worker_hands_back_one_partial_and_no_spill_path(source, grid, direct, tmp_path):
    """Workers fold their live zones and their own spills before they
    reply: a drained pool holds one partial per worker, and no spill
    file is left for the parent to read."""
    zone_map = ZoneMap.for_grid(grid, 24)
    shape = grid.lattice_shape
    budget = 2 * (shape[0] + 1) * (shape[1] + 1) * 8
    pool = ZoneBuildPool(
        zone_map, workers=2, budget_bytes=budget, spill_dir=tmp_path,
        start_method="fork", label="one-each",
    )
    try:
        assert pool.ensure_ready() == 2
        for index, chunk in source:
            assert pool.dispatch(index, chunk)
        result = pool.drain()
        assert result.crashes == 0 and result.spills > 0
        assert len(result.partials) == 2
        assert not hasattr(result, "spill_paths")
        assert list(tmp_path.iterdir()) == []
    finally:
        pool.close()
    assert result.peak_bytes <= 2 * budget
    merged = EulerHistogramBuilder(grid)
    for partial in result.partials:
        merged.add_partial(partial.a_lo, partial.b_lo, partial.patch, partial.num_objects)
    np.testing.assert_array_equal(merged.build().buckets(), direct.buckets())


def test_worker_count_is_clamped_by_budget(source):
    # A lattice big enough that the budget affords exactly one builder:
    # 8 requested workers collapse to an inline build rather than
    # starving every worker.
    big = Grid(source.extent, 512, 512)
    shape = big.lattice_shape
    builder_mb = ((shape[0] + 1) * (shape[1] + 1) * 8) / (1 << 20)
    memory_mb = int(np.ceil(builder_mb))
    assert (memory_mb << 20) // ((shape[0] + 1) * (shape[1] + 1) * 8) == 1
    result = build_zoned(
        source, big, zones=24, workers=8, start_method="fork", memory_mb=memory_mb
    )
    assert result.report.workers == 0
    assert result.report.chunks_inline == source.num_chunks
    direct = EulerHistogram.from_dataset(source.materialize(), big)
    np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())


class _KillOnChunk(ZoneBuildPool):
    """Fault injection: SIGKILL one worker right after a given dispatch."""

    def __init__(self, *args, kill_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._kill_after = kill_after
        self.killed_pid = None

    def dispatch(self, chunk_index, chunk):
        sent = super().dispatch(chunk_index, chunk)
        if chunk_index == self._kill_after and self.killed_pid is None:
            victim = next(w for w in self._workers if w.ready and w.assigned)
            self.killed_pid = victim.pid
            os.kill(victim.pid, signal.SIGKILL)
        return sent


def test_worker_crash_replays_lost_chunks_exactly(source, grid, direct, tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.ingest.pipeline.ZoneBuildPool",
        lambda *a, **kw: _KillOnChunk(*a, kill_after=5, **kw),
    )
    result = build_zoned(
        source, grid, zones=24, workers=2, start_method="fork", memory_mb=64,
        spill_dir=tmp_path,
    )
    assert result.report.crashes >= 1
    assert result.report.chunks_replayed >= 1
    # Replay is bit-exact and no chunk is double counted.
    assert result.histogram.num_objects == N_OBJECTS
    np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())
    # The dead incarnation's spill files are gone.
    assert not list(tmp_path.glob("*.npz"))


def test_crash_during_drain_forfeits_chunks(source, grid, tmp_path):
    zone_map = ZoneMap.for_grid(grid, 8)
    pool = ZoneBuildPool(
        zone_map, workers=2, budget_bytes=1 << 24, spill_dir=tmp_path,
        start_method="fork", label="drain-crash",
    )
    try:
        assert pool.ensure_ready() == 2
        sent = []
        for index, chunk in source:
            if pool.dispatch(index, chunk):
                sent.append(index)
        for pid in pool.worker_pids():
            os.kill(pid, signal.SIGKILL)
        result = pool.drain(timeout=30.0)
        assert result.crashes == 2
        assert sorted(result.lost_chunks) == sent
        assert result.partials == []
    finally:
        pool.close()


def test_worker_error_aborts_the_build(grid, tmp_path, monkeypatch):
    # Coordinates outside the data space make the worker-side snap raise
    # -- a data bug that must abort loudly, not silently replay forever.
    source = SyntheticChunkSource("sz_skew", 800, 200, seed=3)

    class _Poison:
        def __init__(self, n):
            self.x_lo = np.full(n, -50.0)
            self.x_hi = np.full(n, -40.0)
            self.y_lo = np.zeros(n)
            self.y_hi = np.ones(n)

        def __len__(self):
            return self.x_lo.size

    class _PoisonSource:
        name = "poison"
        chunk_size = 200
        extent = source.extent

        def __iter__(self):
            for index, chunk in source:
                yield index, (_Poison(10) if index == 1 else chunk)

        def reread(self, index):
            raise AssertionError("errors must not trigger replay")

    with pytest.raises(IngestWorkerError, match="failed on chunk"):
        build_zoned(
            _PoisonSource(), grid, zones=8, workers=2, start_method="fork",
            memory_mb=64, spill_dir=tmp_path,
        )


def test_stalled_dispatch_falls_back_inline(source, grid, direct, tmp_path, monkeypatch):
    # Freeze both workers with SIGSTOP after readiness: dispatch fills the
    # in-flight window, times out, condemns them, and the pipeline
    # finishes inline -- still bit-exact.
    class _StopAfterReady(ZoneBuildPool):
        def ensure_ready(self, timeout=10.0):
            ready = super().ensure_ready(timeout)
            for pid in self.worker_pids():
                os.kill(pid, signal.SIGSTOP)
            self.stopped = list(self.worker_pids())
            return ready

    pools = []

    def make_pool(*a, **kw):
        kw["dispatch_timeout"] = 1.0
        pool = _StopAfterReady(*a, **kw)
        pools.append(pool)
        return pool

    monkeypatch.setattr("repro.ingest.pipeline.ZoneBuildPool", make_pool)
    try:
        result = build_zoned(
            source, grid, zones=8, workers=2, start_method="fork",
            memory_mb=64, spill_dir=tmp_path, dispatch_timeout=1.0,
        )
        # Condemned workers are reaped, not left stopped: SIGTERM alone
        # never reaches a SIGSTOPped process.
        stopped = [pid for pool in pools for pid in getattr(pool, "stopped", [])]
        assert len(stopped) == 2
        assert [pid for pid in stopped if _pid_exists(pid)] == []
        assert multiprocessing.active_children() == []
    finally:
        for pool in pools:
            for pid in getattr(pool, "stopped", []):
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
    assert result.histogram.num_objects == N_OBJECTS
    np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())
    report = result.report
    assert report.chunks_pool + report.chunks_inline + report.chunks_replayed == source.num_chunks


def test_failed_readiness_wait_leaves_no_worker_running(source, grid, tmp_path, monkeypatch):
    # The readiness wait can raise after the workers started (an
    # interrupt, or an OSError from a respawn); the pool must still close.
    class _FailWhenReady(ZoneBuildPool):
        def ensure_ready(self, timeout=10.0):
            super().ensure_ready(timeout)
            self.started = [w.process for w in self._workers]
            raise OSError("respawn failed")

    pools = []

    def make_pool(*a, **kw):
        pools.append(_FailWhenReady(*a, **kw))
        return pools[-1]

    monkeypatch.setattr("repro.ingest.pipeline.ZoneBuildPool", make_pool)
    with pytest.raises(OSError, match="respawn failed"):
        build_zoned(
            source, grid, zones=8, workers=2, start_method="fork",
            memory_mb=64, spill_dir=tmp_path,
        )
    (pool,) = pools
    assert len(pool.started) == 2
    assert [p.name for p in pool.started if p.is_alive()] == []
    assert multiprocessing.active_children() == []


def test_pool_spills_are_deleted_on_close(grid, tmp_path):
    zone_map = ZoneMap.for_grid(grid, 8)
    pool = ZoneBuildPool(
        zone_map, workers=1, budget_bytes=1 << 24, spill_dir=tmp_path,
        start_method="fork", label="closer",
    )
    try:
        assert pool.ensure_ready() == 1
    finally:
        pool.close()
    assert not list(tmp_path.glob("*.npz"))
    # close() is idempotent.
    pool.close()
