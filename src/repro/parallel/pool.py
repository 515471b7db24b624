"""A persistent pool of estimator worker processes.

:class:`ProcessShardPool` is the process counterpart of the threaded
:class:`~repro.browse.sharding.ShardPool`.  Construction exports the
estimator's summary arrays once (:func:`~repro.parallel.spec.export_estimator`
into a :class:`~repro.parallel.shm.SharedSummaryStore`), allocates two
plain shared buffers -- query corners in, count rows out -- and spawns
workers that attach everything at startup.  Each raster dispatch then
costs only:

1. one vectorised write of the corner arrays into the query buffer,
2. one tiny ``(task, lo, hi, generation)`` pipe message per band,
3. one ``done`` reply per band and one vectorised copy out of the
   result buffer.

No query or result data ever crosses a pipe, so the per-dispatch
overhead is microseconds and a long-lived pool amortises worker startup
across every raster of a browsing session.

Failure model (exercised by the fault harness, ``testing/faults.py``):

- **crash** -- a worker process dying mid-task is detected via its
  process sentinel; its band is recomputed inline by the parent, the
  crash counter (and ``repro_parallel_worker_crashes_total``) increments
  and a replacement worker is spawned in the background.  The raster
  always completes.
- **timeout** -- a dispatch that exceeds its budget terminates the
  stragglers (a late write into a reused result buffer must never
  survive), respawns them and recomputes their bands inline.
- **staleness** -- a worker whose attached generation does not match a
  task's refuses with a ``stale`` reply; the parent answers that band
  inline.  Wrong answers are structurally impossible, not just unlikely.
- **estimator error** -- an ``error`` reply propagates as
  :class:`WorkerEstimateError`, but first the round's other in-flight
  workers are terminated (and respawned) exactly like timed-out
  stragglers, so no abandoned task can write into a reused buffer.

Results concatenate in band order from the same elementwise kernels the
inline path runs, so process-sharded rasters are bit-identical to
inline ones.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import weakref
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable

import numpy as np

from repro.browse.sharding import band_slices, batch_subset
from repro.cache.keys import backing_summary, summary_generation
from repro.euler.base import as_batch_estimator
from repro.euler.estimates import Level2CountsBatch
from repro.grid.tiles_math import TileQueryBatch
from repro.obs.instruments import BrowseInstrumentation
from repro.parallel.shm import SharedSummaryStore
from repro.parallel.spec import EstimatorSpec, export_estimator
from repro.parallel.worker import QUERY_ROWS, RESULT_ROWS, worker_main

__all__ = ["PoolUnavailableError", "ProcessShardPool", "WorkerEstimateError"]

#: Default capacity (tiles) of the shared query/result buffers; larger
#: rasters are dispatched in capacity-sized rounds.
DEFAULT_CAPACITY = 1 << 17

#: How long :meth:`ProcessShardPool.close` waits for a worker to exit
#: after ``stop`` before terminating it.
_JOIN_TIMEOUT = 2.0


class PoolUnavailableError(RuntimeError):
    """The pool cannot serve: it is closed, or no worker became ready
    within the allowed time."""


class WorkerEstimateError(RuntimeError):
    """A worker's estimator raised; carries the worker-side repr.  This
    is an *estimator* bug surfacing, not an infrastructure failure, so it
    propagates instead of triggering inline fallback -- the inline path
    would hit the same bug."""


def _cleanup_buffers(buffers: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink the pool's I/O buffers (finalizer-safe)."""
    for shm in buffers:
        try:
            shm.close()
        except OSError:  # pragma: no cover
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover
            pass
    buffers.clear()


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("index", "process", "conn", "ready", "pid")

    def __init__(self, index: int, process, conn: Connection) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.ready = False
        self.pid: int | None = None


class ProcessShardPool:
    """Process-parallel ``estimate_batch`` over shared summary arrays.

    Parameters
    ----------
    estimator:
        Any of the exportable batch estimators (S-EulerApprox,
        EulerApprox, M-EulerApprox, Exact).  Raises
        :class:`~repro.parallel.spec.UnsupportedEstimatorError` for
        anything else.
    num_shards:
        Requested raster fan-out; the worker count is
        ``min(num_shards, max_workers or cpu_count)``.
    start_method:
        ``"spawn"`` (default; portable, slower startup) or ``"fork"``.
    capacity:
        Tiles per shared-buffer round; rasters beyond it loop.
    min_shard:
        Bands are never smaller than this (tiny bands are all dispatch
        overhead).
    dispatch_timeout:
        Per-round budget when the caller passes no explicit timeout.
    spec_transform:
        Test hook: rewrites the exported spec before workers receive it
        (the fault harness wraps specs in crashing ones).
    instruments, service:
        Optional :class:`~repro.obs.instruments.BrowseInstrumentation`
        plus the ``service`` label value for its pool metric families.
    """

    def __init__(
        self,
        estimator: object,
        *,
        num_shards: int,
        max_workers: int | None = None,
        start_method: str = "spawn",
        capacity: int = DEFAULT_CAPACITY,
        min_shard: int = 2048,
        dispatch_timeout: float = 30.0,
        instruments: BrowseInstrumentation | None = None,
        service: str = "plain",
        spec_transform: Callable[[EstimatorSpec], EstimatorSpec] | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.num_shards = num_shards
        self._capacity = int(capacity)
        self._min_shard = int(min_shard)
        self._dispatch_timeout = float(dispatch_timeout)
        self._obs = instruments
        self._service = service
        self._inline = as_batch_estimator(estimator)
        self._generation = summary_generation(backing_summary(estimator))
        self._crashes = 0
        self._task_counter = 0
        self._closed = False
        self._lock = threading.Lock()

        # Export the summary arrays once; every worker attaches these.
        self._store = SharedSummaryStore(generation=self._generation)
        try:
            spec = export_estimator(estimator, self._store)
        except BaseException:
            self._store.close()
            raise
        if spec_transform is not None:
            spec = spec_transform(spec)
        self._spec = spec
        self._manifest = self._store.manifest

        # Plain (headerless) I/O buffers, owned and unlinked by the pool.
        self._buffers: list[shared_memory.SharedMemory] = []
        self._buffer_finalizer = weakref.finalize(self, _cleanup_buffers, self._buffers)
        try:
            qbytes = 8 * len(QUERY_ROWS) * self._capacity
            rbytes = 8 * len(RESULT_ROWS) * self._capacity
            self._query_shm = shared_memory.SharedMemory(create=True, size=qbytes)
            self._buffers.append(self._query_shm)
            self._result_shm = shared_memory.SharedMemory(create=True, size=rbytes)
            self._buffers.append(self._result_shm)
        except BaseException:
            _cleanup_buffers(self._buffers)
            self._store.close()
            raise
        self._qbuf = np.ndarray(
            (len(QUERY_ROWS), self._capacity), dtype=np.int64, buffer=self._query_shm.buf
        )
        self._rbuf = np.ndarray(
            (len(RESULT_ROWS), self._capacity), dtype=np.float64, buffer=self._result_shm.buf
        )

        self._ctx = multiprocessing.get_context(start_method)
        n_workers = max_workers if max_workers is not None else self._ctx.cpu_count() or 1
        self._num_workers = max(1, min(num_shards, n_workers))
        self._workers: list[_Worker] = [
            self._spawn_worker(i) for i in range(self._num_workers)
        ]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _spawn_worker(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                index,
                child_conn,
                self._manifest,
                self._spec,
                self._generation,
                self._query_shm.name,
                self._result_shm.name,
                self._capacity,
            ),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def _respawn(self, worker: _Worker, reason: str) -> None:
        """Replace a dead or terminated worker and count the loss."""
        self._crashes += 1
        if self._obs is not None:
            self._obs.worker_crashes.labels(service=self._service, reason=reason).inc()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(_JOIN_TIMEOUT)
        if not self._closed:
            self._workers[worker.index] = self._spawn_worker(worker.index)

    def ensure_ready(self, timeout: float = 10.0) -> int:
        """Wait up to ``timeout`` for starting workers to report ready;
        returns the number currently ready.  A ``timeout`` of zero still
        performs one non-blocking poll, so pending ``ready`` messages
        (fresh startup or post-crash respawns) are always drained -- the
        auto routing policy relies on this.  A worker whose startup
        failed (``init_error``) or died before reporting is counted as a
        crash and respawned; persistent failures leave it not-ready."""
        with self._lock:
            return self._ensure_ready_locked(timeout)

    def _ensure_ready_locked(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            # Dead not-ready workers stay in the scan: their pipe reads
            # EOF below and they are respawned, instead of being
            # silently lost for the pool's lifetime.
            starting = [w for w in self._workers if not w.ready and not w.conn.closed]
            if not starting:
                break
            # Clamp instead of breaking: even past the deadline (or with
            # timeout=0) one non-blocking connection_wait pass runs, so
            # already-pending messages are always consumed.
            remaining = max(deadline - time.monotonic(), 0.0)
            ready_objs = connection_wait([w.conn for w in starting], timeout=remaining)
            if not ready_objs:
                break
            for w in starting:
                if w.conn not in ready_objs:
                    continue
                try:
                    message = w.conn.recv()
                except (EOFError, OSError):
                    self._respawn(w, "crash")
                    continue
                if message[0] == "ready":
                    w.ready = True
                    w.pid = message[2]
                elif message[0] == "init_error":
                    self._respawn(w, "init_error")
        return sum(1 for w in self._workers if w.ready)

    def ready_count(self) -> int:
        """Workers currently ready, without waiting."""
        return sum(1 for w in self._workers if w.ready and w.process.is_alive())

    @property
    def workers(self) -> int:
        """Configured worker count (alive or respawning)."""
        return self._num_workers

    @property
    def crashes(self) -> int:
        """Workers lost so far (crash, init failure or timeout kill)."""
        return self._crashes

    @property
    def generation(self) -> int:
        """The exported summary generation every task is stamped with."""
        return self._generation

    def worker_pids(self) -> list[int]:
        """PIDs of the ready workers (the fault harness kills these)."""
        return [w.pid for w in self._workers if w.ready and w.pid is not None]

    def close(self) -> None:
        """Stop the workers and release every shared segment
        (idempotent, safe to race with in-flight dispatches -- the
        dispatch lock serialises them)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for w in self._workers:
                try:
                    w.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for w in self._workers:
                w.process.join(_JOIN_TIMEOUT)
                if w.process.is_alive():  # pragma: no cover - stuck worker
                    w.process.terminate()
                    w.process.join(_JOIN_TIMEOUT)
                try:
                    w.conn.close()
                except OSError:  # pragma: no cover
                    pass
            _cleanup_buffers(self._buffers)
            self._buffer_finalizer.detach()
            self._store.close()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def estimate_batch(
        self, batch: TileQueryBatch, *, timeout: float | None = None
    ) -> Level2CountsBatch:
        """Process-sharded counts for ``batch``; bit-identical to the
        inline ``estimate_batch``.  ``timeout`` bounds each dispatch
        round -- overruns degrade to inline recomputation of the late
        bands, never to a hang or a partial answer."""
        n = len(batch)
        out = np.empty((len(RESULT_ROWS), n), dtype=np.float64)
        started = time.monotonic() if self._obs is not None else 0.0
        with self._lock:
            if self._closed:
                raise PoolUnavailableError("pool is closed")
            # Non-blocking drain of pending "ready" messages, so workers
            # respawned after a crash rejoin the fan-out instead of the
            # pool silently decaying to inline execution.
            self._ensure_ready_locked(0.0)
            for lo in range(0, max(n, 1), self._capacity):
                hi = min(lo + self._capacity, n)
                self._dispatch_round(batch, lo, hi, out, timeout)
        if self._obs is not None:
            self._obs.parallel_dispatch_seconds.labels(service=self._service).observe(
                time.monotonic() - started
            )
        return Level2CountsBatch(out[0], out[1], out[2], out[3])

    def _dispatch_round(
        self,
        batch: TileQueryBatch,
        lo: int,
        hi: int,
        out: np.ndarray,
        timeout: float | None,
    ) -> None:
        """One capacity-bounded round: fan bands of ``batch[lo:hi)`` out
        to the ready workers, inline-compute whatever cannot be (no
        workers, crashes, timeouts, staleness)."""
        m = hi - lo
        if m == 0:
            return
        chunk = batch_subset(batch, slice(lo, hi))
        self._qbuf[0, :m] = chunk.qx_lo
        self._qbuf[1, :m] = chunk.qx_hi
        self._qbuf[2, :m] = chunk.qy_lo
        self._qbuf[3, :m] = chunk.qy_hi

        ready = [w for w in self._workers if w.ready and w.process.is_alive()]
        inline_slices: list[slice] = []
        if not ready:
            inline_slices.append(slice(0, m))
        else:
            slices = band_slices(m, min(self.num_shards, len(ready)), min_shard=self._min_shard)
            pending: dict[Connection, tuple[_Worker, int, slice]] = {}
            sentinel_owner = {}
            for band, worker in zip(slices, ready):
                self._task_counter += 1
                try:
                    worker.conn.send(
                        ("task", self._task_counter, band.start, band.stop, self._generation)
                    )
                except (BrokenPipeError, OSError):
                    self._respawn(worker, "crash")
                    inline_slices.append(band)
                    continue
                pending[worker.conn] = (worker, self._task_counter, band)
                sentinel_owner[worker.process.sentinel] = worker.conn
            inline_slices.extend(slices[len(ready):])

            deadline = time.monotonic() + (
                timeout if timeout is not None else self._dispatch_timeout
            )
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Budget exhausted: kill the stragglers so a late
                    # write can never land in a reused result buffer,
                    # then recompute their bands inline.
                    for conn, (worker, _, band) in list(pending.items()):
                        self._respawn(worker, "timeout")
                        inline_slices.append(band)
                    pending.clear()
                    break
                ready_objs = connection_wait(
                    list(pending) + list(sentinel_owner), timeout=remaining
                )
                for obj in ready_objs:
                    conn = sentinel_owner.get(obj, obj)
                    entry = pending.get(conn)
                    if entry is None:
                        continue
                    worker, task_id, band = entry
                    if obj is not conn:
                        # Process sentinel fired: the worker died
                        # mid-task.  Its band is recomputed inline.
                        del pending[conn]
                        del sentinel_owner[worker.process.sentinel]
                        self._respawn(worker, "crash")
                        inline_slices.append(band)
                        continue
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        del pending[conn]
                        del sentinel_owner[worker.process.sentinel]
                        self._respawn(worker, "crash")
                        inline_slices.append(band)
                        continue
                    kind = message[0]
                    if kind in ("done", "stale", "error") and message[1] != task_id:
                        # A reply from a task abandoned by an earlier
                        # timeout/error; the band was already handled.
                        continue
                    if kind == "done":
                        del pending[conn]
                        del sentinel_owner[worker.process.sentinel]
                        out[:, lo + band.start : lo + band.stop] = self._rbuf[
                            :, band.start : band.stop
                        ]
                    elif kind == "stale":
                        del pending[conn]
                        del sentinel_owner[worker.process.sentinel]
                        inline_slices.append(band)
                    elif kind == "error":
                        del pending[conn]
                        del sentinel_owner[worker.process.sentinel]
                        # The error aborts the round, but other bands
                        # are still in flight: terminate those workers
                        # (as the timeout branch does) so a straggler's
                        # late write can never land in the reused result
                        # buffer of a subsequent dispatch.
                        for _, (straggler, _sid, _sband) in list(pending.items()):
                            self._respawn(straggler, "abort")
                        pending.clear()
                        raise WorkerEstimateError(
                            f"worker {worker.index} failed on tiles "
                            f"[{lo + band.start}, {lo + band.stop}): {message[2]}"
                        )

        for band in inline_slices:
            counts = self._inline.estimate_batch(batch_subset(chunk, band))
            out[0, lo + band.start : lo + band.stop] = counts.n_d
            out[1, lo + band.start : lo + band.stop] = counts.n_cs
            out[2, lo + band.start : lo + band.stop] = counts.n_cd
            out[3, lo + band.start : lo + band.stop] = counts.n_o
