"""Threaded stress on the state the gateway shares across executor
threads: session-keyed viewport deltas and the shared tile cache.

The gateway runs ``browse()`` on a thread pool, with per-tenant
services sharing one :class:`TileResultCache` and each owning a
session-keyed :class:`DeltaTracker` whose LRU bound is hammered by many
concurrent sessions.  This mirrors ``test_cache_stress`` for that
topology: panning sessions (delta-reuse-eligible) from many threads,
two tenants on one cache, small session bound to force evictions --
every raster must still be bit-identical to the fault-free reference.
"""

import threading

import numpy as np
import pytest

from repro.browse.delta import DeltaTracker
from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import GeoBrowsingService
from repro.cache import TileResultCache
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 24.0, 0.0, 16.0), 24, 16)
NUM_WORKERS = 8
STEPS_PER_SESSION = 8
MAX_SESSIONS = 3  # far fewer than workers: constant LRU eviction churn
JOIN_TIMEOUT_S = 60.0

#: An 8x8-cell viewport tiled 4x4, panned one tile right per step.
VIEW_W, VIEW_H, ROWS, COLS = 8, 8, 4, 4


@pytest.fixture(scope="module")
def hist():
    data = random_dataset(np.random.default_rng(31), GRID, 400, max_size_cells=4.0)
    return EulerHistogram.from_dataset(data, GRID)


def pan_path(step: int) -> TileQuery:
    """The session's viewport at ``step``: slides right, wraps around."""
    max_x = GRID.n1 - VIEW_W
    x = (2 * step) % (max_x + 1)
    return TileQuery(x, x + VIEW_W, 4, 4 + VIEW_H)


def test_threaded_sessions_with_shared_cache_and_bounded_delta(hist):
    estimator = SEulerApprox(hist)
    plain = GeoBrowsingService(estimator, GRID)
    references = {
        step: plain.browse(pan_path(step), ROWS, COLS).counts
        for step in range(STEPS_PER_SESSION)
    }

    cache = TileResultCache()
    trackers = [DeltaTracker(max_sessions=MAX_SESSIONS) for _ in range(2)]
    tenants = [
        ResilientBrowsingService(
            SEulerApprox(hist), GRID, cache=cache, delta=tracker
        )
        for tracker in trackers
    ]

    errors: list[str] = []
    barrier = threading.Barrier(NUM_WORKERS)

    def worker(worker_id: int) -> None:
        service = tenants[worker_id % 2]
        session = f"tenant{worker_id % 2}/user{worker_id}"
        try:
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            for step in range(STEPS_PER_SESSION):
                result = service.browse(
                    pan_path(step), ROWS, COLS, session=session
                )
                if result.valid is not None and not result.valid.all():
                    errors.append("partial raster without a deadline")
                elif not np.array_equal(result.counts, references[step]):
                    errors.append(f"raster diverged at step {step}")
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(NUM_WORKERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT_S)

    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads still running after {JOIN_TIMEOUT_S}s: {stuck}"
    assert not errors, errors[:5]
    # The tracker honoured its LRU bound under concurrent remember().
    for tracker in trackers:
        assert len(tracker) <= MAX_SESSIONS
    # The shared cache stayed inside its byte budget and saw real
    # cross-tenant traffic.
    assert cache.nbytes <= cache.capacity_bytes
    assert cache.hits > 0
