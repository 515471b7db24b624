"""ProcessShardPool: parity, crash recovery, timeouts, leak hygiene.

The crash and latency scenarios drive *real* worker processes through
the fault specs in :mod:`repro.testing.faults`; a crashed worker dies
with ``os._exit``, which is the only way to exercise the sentinel-based
crash detection rather than the orderly error-reply path.

Everything here uses the ``fork`` start method: these tests pin down
pool *behaviour*, and fork keeps each pool's startup under a few
milliseconds so the file can afford many pool lifecycles.  Spawn-method
coverage (which exercises pickling of manifests and specs) lives in
``test_parity_hypothesis.py`` and the CI parity job.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest

from repro.euler.base import as_batch_estimator
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs.instruments import BrowseInstrumentation
from repro.parallel.pool import (
    PoolUnavailableError,
    ProcessShardPool,
    WorkerEstimateError,
)
from repro.testing.faults import WorkerCrashSpec, WorkerLatencySpec
from repro.workloads.tiles import browsing_tile_batch

from tests.conftest import random_dataset

FIELDS = ("n_d", "n_cs", "n_cd", "n_o")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not available"
)


@pytest.fixture(scope="module")
def grid() -> Grid:
    return Grid.world_1deg()


@pytest.fixture(scope="module")
def estimator(grid):
    rng = np.random.default_rng(42)
    dataset = random_dataset(rng, grid, 500, max_size_cells=30.0)
    return SEulerApprox(EulerHistogram.from_dataset(dataset, grid))


@pytest.fixture(scope="module")
def raster(grid):
    # A 60x120 viewport raster: large enough that band slicing actually
    # splits work across two workers, small enough to keep tests quick.
    return browsing_tile_batch(TileQuery(0, grid.n1, 0, grid.n2), 60, 120)


@pytest.fixture(scope="module")
def inline(estimator, raster):
    return estimator.estimate_batch(raster)


def make_pool(estimator, **kwargs):
    kwargs.setdefault("num_shards", 4)
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("start_method", "fork")
    kwargs.setdefault("min_shard", 1)
    return ProcessShardPool(estimator, **kwargs)


def assert_parity(got, expected):
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(got, field), getattr(expected, field))


def test_multiworker_dispatch_is_bit_identical(estimator, raster, inline):
    with make_pool(estimator) as pool:
        assert pool.ensure_ready(20.0) == 2
        assert len(set(pool.worker_pids())) == 2
        assert_parity(pool.estimate_batch(raster), inline)
        # A second dispatch reuses the same workers and buffers.
        assert_parity(pool.estimate_batch(raster), inline)
        assert pool.crashes == 0


def test_derived_intersect_matches_batch_columns(estimator, raster, inline):
    with make_pool(estimator) as pool:
        pool.ensure_ready(20.0)
        np.testing.assert_array_equal(
            pool.estimate_batch(raster).n_intersect,
            np.asarray(inline.n_cs) + np.asarray(inline.n_cd) + np.asarray(inline.n_o),
        )


def test_capacity_chunking_preserves_parity(estimator, raster, inline):
    # Raster (7200 tiles) >> capacity (1024): estimate_batch must chunk
    # into multiple dispatch rounds and stitch the answer seamlessly.
    with make_pool(estimator, capacity=1024) as pool:
        pool.ensure_ready(20.0)
        assert_parity(pool.estimate_batch(raster), inline)


def test_zero_timeout_ensure_ready_drains_pending_messages(estimator):
    # The auto routing policy polls with ensure_ready(0.0); a zero
    # timeout must still perform one non-blocking drain of pending
    # "ready" messages, or the pool looks empty forever.
    with make_pool(estimator) as pool:
        deadline = time.monotonic() + 20.0
        while pool.ensure_ready(0.0) < 2:
            assert time.monotonic() < deadline, "0-timeout polls never saw readiness"
            time.sleep(0.01)
        assert pool.ready_count() == 2


def test_dispatch_remarks_respawned_workers_ready(estimator, raster, inline):
    # After a crash, the replacement workers' "ready" messages must be
    # picked up by dispatch itself -- with no explicit ensure_ready call
    # -- or a long-lived pool silently decays to inline execution.
    with make_pool(
        estimator, spec_transform=lambda spec: WorkerCrashSpec(spec, crash_on_call=2)
    ) as pool:
        pool.ensure_ready(20.0)
        assert_parity(pool.estimate_batch(raster), inline)  # call 1: clean
        assert_parity(pool.estimate_batch(raster), inline)  # call 2: both crash
        assert pool.crashes == 2
        deadline = time.monotonic() + 20.0
        while pool.ready_count() < 2:
            assert time.monotonic() < deadline, "dispatch never re-marked respawns ready"
            time.sleep(0.01)
            assert_parity(pool.estimate_batch(raster), inline)


def test_worker_dead_before_ready_is_respawned(estimator, raster, inline, tmp_path):
    # A worker dying during startup *before* sending any message (so
    # neither "ready" nor "init_error" ever arrives) must be detected
    # and respawned by ensure_ready, not silently dropped from the pool.
    flag = tmp_path / "died-once"

    class _DieOnceSpec:
        # Fork-only (inherited, never pickled): exactly one worker wins
        # the O_EXCL race, dies without a word, and its replacement --
        # seeing the flag -- comes up normally.
        def __init__(self, inner):
            self.inner = inner

        def build(self, arrays):
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                os._exit(1)
            except FileExistsError:
                pass
            return self.inner.build(arrays)

    with make_pool(estimator, spec_transform=_DieOnceSpec) as pool:
        assert pool.ensure_ready(20.0) == 2
        assert pool.crashes == 1
        assert_parity(pool.estimate_batch(raster), inline)


def test_worker_error_terminates_in_flight_stragglers(estimator, raster):
    # An "error" reply aborts the round; the other worker is still
    # sleeping on its band and must be terminated like a timed-out
    # straggler -- left alive, its late write into the shared result
    # buffer could corrupt a subsequent dispatch.
    obs = BrowseInstrumentation()
    first = (
        int(raster.qx_lo[0]),
        int(raster.qx_hi[0]),
        int(raster.qy_lo[0]),
        int(raster.qy_hi[0]),
    )

    class _FirstBandErrorElseSleep:
        # Fork-only: the worker holding the raster's first band raises
        # immediately; every other band sleeps well past the test.
        def __init__(self, inner):
            self._inner = as_batch_estimator(inner)

        name = "first-band-error"

        def estimate(self, query):
            return self._inner.estimate(query)

        def estimate_batch(self, queries):
            corner = (
                int(queries.qx_lo[0]),
                int(queries.qx_hi[0]),
                int(queries.qy_lo[0]),
                int(queries.qy_hi[0]),
            )
            if corner == first:
                raise ValueError("deliberate estimator bug")
            time.sleep(30.0)
            return self._inner.estimate_batch(queries)

    class _Spec:
        def __init__(self, inner):
            self.inner = inner

        def build(self, arrays):
            return _FirstBandErrorElseSleep(self.inner.build(arrays))

    with make_pool(estimator, spec_transform=_Spec, instruments=obs) as pool:
        pool.ensure_ready(20.0)
        pids = set(pool.worker_pids())
        with pytest.raises(WorkerEstimateError, match="deliberate estimator bug"):
            pool.estimate_batch(raster)
        assert obs.worker_crashes.labels(service="plain", reason="abort").value == 1
        assert pool.crashes == 1
        # The erroring worker (healthy) survives; the straggler's pid is
        # gone, replaced by a fresh worker.
        assert pool.ensure_ready(20.0) == 2
        assert len(set(pool.worker_pids()) & pids) == 1


def test_worker_crash_recovers_and_is_counted(estimator, raster, inline):
    # Satellite: kill a worker mid-raster; the raster must still complete
    # (parent recomputes the dead worker's band inline), the crash
    # counter and observability metric must tick, and the pool must
    # respawn a replacement that serves the next raster.
    obs = BrowseInstrumentation()
    with make_pool(
        estimator,
        spec_transform=lambda spec: WorkerCrashSpec(spec, crash_on_call=2),
        instruments=obs,
        service="plain",
    ) as pool:
        pool.ensure_ready(20.0)
        first_pids = set(pool.worker_pids())
        assert_parity(pool.estimate_batch(raster), inline)  # call 1: clean
        assert_parity(pool.estimate_batch(raster), inline)  # call 2: crash
        assert pool.crashes >= 1
        assert (
            obs.worker_crashes.labels(service="plain", reason="crash").value
            == pool.crashes
        )
        # Replacement workers come up and report fresh pids.
        assert pool.ensure_ready(20.0) == 2
        respawned = set(pool.worker_pids())
        assert respawned
        assert respawned.isdisjoint(first_pids)
        # The respawned workers' call counters restart, so the next
        # raster gets one clean round again.
        assert_parity(pool.estimate_batch(raster), inline)


def test_every_worker_crashing_still_completes(estimator, raster, inline):
    with make_pool(
        estimator, spec_transform=lambda spec: WorkerCrashSpec(spec, crash_on_call=1)
    ) as pool:
        pool.ensure_ready(20.0)
        assert_parity(pool.estimate_batch(raster), inline)
        assert pool.crashes == 2  # both workers died on their first band


def test_slow_workers_hit_timeout_and_fall_back_inline(estimator, raster, inline):
    obs = BrowseInstrumentation()
    with make_pool(
        estimator,
        spec_transform=lambda spec: WorkerLatencySpec(spec, delay=30.0),
        dispatch_timeout=0.5,
        instruments=obs,
    ) as pool:
        pool.ensure_ready(20.0)
        assert_parity(pool.estimate_batch(raster), inline)
        assert obs.worker_crashes.labels(service="plain", reason="timeout").value >= 1
        # Stragglers were terminated, not left running: replacements live.
        assert all(pid > 0 for pid in pool.worker_pids())


def test_worker_estimate_error_propagates(estimator, raster):
    # An estimator bug must surface, not be silently papered over by the
    # inline fallback (inline would hit the same bug).  Fork-only: the
    # test-local spec class below is inherited by fork, never pickled.
    class _BrokenEstimator:
        name = "broken"

        def estimate(self, query):
            raise ValueError("deliberate estimator bug")

        def estimate_batch(self, queries):
            raise ValueError("deliberate estimator bug")

    class _BrokenSpec:
        def __init__(self, inner):
            self.inner = inner

        def build(self, arrays):
            return _BrokenEstimator()

    with make_pool(estimator, spec_transform=_BrokenSpec) as pool:
        pool.ensure_ready(20.0)
        with pytest.raises(WorkerEstimateError, match="deliberate estimator bug"):
            pool.estimate_batch(raster)


def test_closed_pool_refuses_dispatch(estimator, raster):
    pool = make_pool(estimator)
    pool.ensure_ready(20.0)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(PoolUnavailableError):
        pool.estimate_batch(raster)


def test_pool_lifecycle_leaves_no_shm_segments(estimator, raster, inline):
    def shm_entries():
        return set(glob.glob("/dev/shm/*"))

    before = shm_entries()
    pool = make_pool(estimator)
    pool.ensure_ready(20.0)
    assert shm_entries() != before  # summary + query + result segments live
    assert_parity(pool.estimate_batch(raster), inline)
    pool.close()
    assert shm_entries() - before == set()


def test_crashed_workers_leave_no_shm_segments(estimator, raster):
    # A worker killed by os._exit never runs its detach path; the
    # owner-side unlink must still reclaim every segment on close.
    def shm_entries():
        return set(glob.glob("/dev/shm/*"))

    before = shm_entries()
    pool = make_pool(
        estimator, spec_transform=lambda spec: WorkerCrashSpec(spec, crash_on_call=1)
    )
    pool.ensure_ready(20.0)
    pool.estimate_batch(raster)
    assert pool.crashes >= 1
    pool.close()
    assert shm_entries() - before == set()
