"""Crash-tolerant process pool for zone-build workers.

:class:`ZoneBuildPool` deals raw coordinate chunks round-robin to
:func:`~repro.ingest.worker.build_worker_main` workers with bounded
in-flight depth, then drains one folded partial per worker in a finish
pass.  It is the codebase's one process pool.  Its failure model is
built for *stateful* workers:

- **crash** -- a worker accumulates state across every chunk it was
  dealt, so losing it loses all of that state, including spill files of
  unknown completeness.  The pool therefore records every chunk index
  ever assigned to the worker as *lost*, deletes the dead worker's spill
  files (its label names them), and respawns a fresh worker for future
  chunks.  The pipeline replays lost chunks inline from the replayable
  source -- the build always completes, bit-identical.
- **stall** -- a dispatch or drain that sees no progress within the
  timeout treats the busy workers as crashed (reap, lose, replay): a
  hung worker must never hang the build, nor outlive it.
- **worker error** -- an ``error`` reply is a data or accumulator bug
  that would equally fail inline (a corrupt spill included), so it
  aborts the build as :class:`IngestWorkerError` rather than triggering
  replay.

Workers report ``("result", ...)`` exactly once, on ``finish``: each
folds its live zones and its own spill files into one bbox-clipped
partial that rides the pipe.  Spill files never cross the process
boundary; whatever a worker leaves on disk -- after a crash, an error
or an aborted build -- the pool deletes by the worker's label.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait

from repro.datasets.base import RectDataset
from repro.ingest.accumulator import ZonePartial
from repro.ingest.worker import build_worker_main
from repro.ingest.zones import ZoneMap

__all__ = ["IngestWorkerError", "ZoneBuildPool", "ZonePoolResult"]

#: How long ``close`` waits for a worker to exit after ``stop``.
_JOIN_TIMEOUT = 2.0

#: How long a condemned worker gets to exit on SIGTERM before SIGKILL.
_TERM_GRACE = 0.1

#: Chunks a single worker may have queued before dispatch blocks.
MAX_INFLIGHT = 4


class IngestWorkerError(RuntimeError):
    """A worker's snap/accumulate step raised; carries the worker-side
    repr.  This is a data or accumulator bug surfacing -- the inline
    path would hit the same bug -- so it aborts the build."""


@dataclass
class ZonePoolResult:
    """Everything the merge pass needs from a drained pool: one folded
    partial per worker that finished, and the chunks crashed workers
    lost."""

    partials: list[ZonePartial] = field(default_factory=list)
    lost_chunks: list[int] = field(default_factory=list)
    crashes: int = 0
    spills: int = 0
    peak_bytes: int = 0
    objects: int = 0


def _reap(process) -> None:
    """End ``process`` for good: SIGTERM, a short grace, then SIGKILL.

    A stopped (SIGSTOP) or SIGTERM-deaf worker ignores the first signal,
    so escalating is what guarantees a condemned worker does not keep
    running after the pool gives up on it."""
    if process.is_alive():
        process.terminate()
        process.join(_TERM_GRACE)
        if process.is_alive():
            process.kill()
    process.join(_JOIN_TIMEOUT)


class _BuildWorker:
    """Parent-side record of one build worker process."""

    __slots__ = ("slot", "process", "conn", "ready", "pid", "label", "assigned", "inflight")

    def __init__(self, slot: int, process, conn: Connection, label: str) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.ready = False
        self.pid: int | None = None
        self.label = label
        self.assigned: list[int] = []
        self.inflight = 0


class ZoneBuildPool:
    """Deal chunks to zone-build workers; collect partials at the end.

    ``budget_bytes`` is the **per-worker** accumulator budget (the
    pipeline divides the global ``--memory-mb`` budget by the worker
    count).  ``spill_dir`` must exist and outlive the pool; spill files
    are namespaced per worker incarnation so a crashed worker's files
    can be discarded without touching survivors'.
    """

    def __init__(
        self,
        zone_map: ZoneMap,
        *,
        workers: int,
        budget_bytes: int,
        spill_dir: str | os.PathLike,
        start_method: str = "spawn",
        dispatch_timeout: float = 60.0,
        label: str = "ingest",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._zone_map = zone_map
        self._budget_bytes = int(budget_bytes)
        self._spill_dir = os.fspath(spill_dir)
        self._dispatch_timeout = float(dispatch_timeout)
        self._label = label
        self._ctx = multiprocessing.get_context(start_method)
        self._incarnation = 0
        self._closed = False
        self.result = ZonePoolResult()
        self._workers: list[_BuildWorker] = [self._spawn_worker(i) for i in range(workers)]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _spawn_worker(self, slot: int) -> _BuildWorker:
        self._incarnation += 1
        label = f"{self._label}-w{slot}i{self._incarnation}"
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=build_worker_main,
            args=(slot, child_conn, self._zone_map, self._budget_bytes, self._spill_dir, label),
            name=f"repro-{label}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _BuildWorker(slot, process, parent_conn, label)

    def _crash(self, worker: _BuildWorker, *, respawn: bool = True) -> None:
        """A worker is dead or condemned: all chunks it ever saw are
        lost, its spill files are garbage, and (optionally) a fresh
        worker takes over its slot for future chunks."""
        self.result.crashes += 1
        self.result.lost_chunks.extend(worker.assigned)
        worker.assigned.clear()
        worker.inflight = 0
        worker.ready = False
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        _reap(worker.process)
        for path in glob.glob(os.path.join(self._spill_dir, f"{worker.label}-*.npz")):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover
                pass
        if respawn and not self._closed:
            self._workers[worker.slot] = self._spawn_worker(worker.slot)

    def ensure_ready(self, timeout: float = 10.0) -> int:
        """Wait up to ``timeout`` for workers to report ready; returns
        the number ready.  Init failures count as crashes and respawn
        once; persistently failing slots stay not-ready (the pipeline
        falls back to inline construction when none come up)."""
        deadline = time.monotonic() + timeout
        while True:
            starting = [w for w in self._workers if not w.ready and not w.conn.closed]
            if not starting:
                break
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
                    self._crash(w)
                    continue
                if message[0] == "ready":
                    w.ready = True
                    w.pid = message[2]
                elif message[0] == "init_error":
                    self._crash(w)
        return sum(1 for w in self._workers if w.ready)

    def worker_pids(self) -> list[int]:
        """PIDs of the ready workers (fault-injection tests kill these)."""
        return [w.pid for w in self._workers if w.ready and w.pid is not None]

    def close(self) -> None:
        """Stop every worker and delete any spill files it left behind
        (idempotent)."""
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
            _reap(w.process)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover
                pass
            for path in glob.glob(os.path.join(self._spill_dir, f"{w.label}-*.npz")):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover
                    pass

    def __enter__(self) -> "ZoneBuildPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _handle_message(self, worker: _BuildWorker, message: tuple) -> None:
        kind = message[0]
        if kind == "ready":
            worker.ready = True
            worker.pid = message[2]
        elif kind == "done":
            worker.inflight = max(worker.inflight - 1, 0)
            self.result.objects += int(message[2])
        elif kind == "error":
            where = "to finish" if message[1] is None else f"on chunk {message[1]}"
            raise IngestWorkerError(f"worker {worker.slot} failed {where}: {message[2]}")
        # "result" is consumed by drain(); anything else is ignored.

    def _poll(self, timeout: float) -> bool:
        """Wait for any pipe or sentinel event and process it.  Returns
        ``False`` when nothing happened within ``timeout``."""
        conns = {w.conn: w for w in self._workers if not w.conn.closed}
        sentinels = {w.process.sentinel: w for w in self._workers if w.process.is_alive()}
        if not conns and not sentinels:
            return False
        ready_objs = connection_wait(list(conns) + list(sentinels), timeout=timeout)
        if not ready_objs:
            return False
        for obj in ready_objs:
            worker = conns.get(obj) or sentinels.get(obj)
            if worker is None or worker.conn.closed:
                continue
            if obj is not worker.conn:
                # Sentinel fired: only a crash if the pipe has nothing
                # left to say (a worker that exited after its "result"
                # is fine -- drain consumes the message first).
                if not worker.conn.poll():
                    self._crash(worker)
                continue
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._crash(worker)
                continue
            self._handle_message(worker, message)
        return True

    def dispatch(self, chunk_index: int, chunk: RectDataset) -> bool:
        """Deal one raw chunk to the least-loaded ready worker, blocking
        while every worker is at full in-flight depth.  Returns ``False``
        when no worker could take the chunk before the timeout (the
        caller accumulates it inline instead)."""
        deadline = time.monotonic() + self._dispatch_timeout
        while True:
            candidates = [
                w
                for w in self._workers
                if w.ready and w.process.is_alive() and w.inflight < MAX_INFLIGHT
            ]
            if candidates:
                worker = min(candidates, key=lambda w: (w.inflight, w.slot))
                try:
                    worker.conn.send(
                        ("chunk", chunk_index, chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi)
                    )
                except (BrokenPipeError, OSError):
                    self._crash(worker)
                    continue
                worker.assigned.append(chunk_index)
                worker.inflight += 1
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Stalled: condemn the busy workers (their chunks replay
                # inline) rather than hanging the build.
                for w in self._workers:
                    if w.inflight:
                        self._crash(w)
                return False
            self._poll(min(remaining, 1.0))

    def drain(self, timeout: float = 120.0) -> ZonePoolResult:
        """Wait out the in-flight chunks, ask every worker to finish and
        collect the ``result`` replies.  Workers that crash or stall
        forfeit their chunks to :attr:`ZonePoolResult.lost_chunks`."""
        deadline = time.monotonic() + timeout
        while any(w.inflight for w in self._workers):
            if not self._poll(max(min(deadline - time.monotonic(), 1.0), 0.0)):
                if time.monotonic() >= deadline:
                    for w in self._workers:
                        if w.inflight:
                            self._crash(w, respawn=False)
                    break

        finishing: list[_BuildWorker] = []
        for w in self._workers:
            if not (w.ready and w.process.is_alive()):
                continue
            try:
                w.conn.send(("finish",))
                finishing.append(w)
            except (BrokenPipeError, OSError):
                self._crash(w, respawn=False)

        pending = set(finishing)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for w in list(pending):
                    self._crash(w, respawn=False)
                break
            conns = {w.conn: w for w in pending}
            sentinels = {w.process.sentinel: w for w in pending if w.process.is_alive()}
            ready_objs = connection_wait(list(conns) + list(sentinels), timeout=remaining)
            for obj in ready_objs:
                worker = conns.get(obj, sentinels.get(obj))
                if worker is None or worker not in pending:
                    continue
                if obj is not worker.conn and not worker.conn.poll():
                    pending.discard(worker)
                    self._crash(worker, respawn=False)
                    continue
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    pending.discard(worker)
                    self._crash(worker, respawn=False)
                    continue
                if message[0] == "result":
                    pending.discard(worker)
                    _, _, partials, stats = message
                    self.result.partials.extend(partials)
                    self.result.spills += int(stats["spills"])
                    self.result.peak_bytes += int(stats["peak_bytes"])
                    worker.assigned.clear()
                else:
                    self._handle_message(worker, message)
        return self.result
