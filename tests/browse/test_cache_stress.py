"""Threaded stress test: many workers hammering one shared resilient
service with the cache and fault injector both enabled.

Both tiers wrap the same summary, so every fully-answered raster --
whichever tier answered, cached or not -- must equal the fault-free
reference bit for bit.  The test asserts that under concurrency, plus
the cache's byte bound and the absence of any raised error.

A warm service answers a raster whose tiles all miss as one chunk, and
cached tiles never reach the injector.  So the workers cycle through
every relation as well as every shape: each of the 15 cache scopes
costs the primary at least one chunk call, which is past the seeded
schedule's first fault whatever the thread interleaving.  One-row
chunks add a call per row while the service is cold, and the
interpreter's switch interval is cut to a microsecond so requests
interleave inside the shared cache and cost updates."""

import sys
import threading

import numpy as np
import pytest

from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import RELATION_FIELDS, GeoBrowsingService
from repro.cache import TileResultCache
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.testing.faults import FaultSchedule, FaultyBatchEstimator

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)
NUM_WORKERS = 6
REQUESTS_PER_WORKER = 12
JOIN_TIMEOUT_S = 60.0

#: The raster shapes the workers cycle through (all over the full grid,
#: so cache entries overlap across shapes with identical tile geometry).
SHAPES = ((4, 6), (8, 12), (2, 3))
RELATIONS = tuple(sorted(RELATION_FIELDS))


@pytest.fixture(scope="module")
def hist():
    data = random_dataset(np.random.default_rng(99), GRID, 300, max_size_cells=3.0)
    return EulerHistogram.from_dataset(data, GRID)


def test_threaded_stress_with_faults_cache_and_shards(hist):
    estimator = SEulerApprox(hist)
    references = {
        (shape, relation): GeoBrowsingService(estimator, GRID)
        .browse(TileQuery(0, 12, 0, 8), *shape, relation)
        .counts
        for shape in SHAPES
        for relation in RELATIONS
    }

    primary = FaultyBatchEstimator(
        SEulerApprox(hist),
        FaultSchedule(seed=5, error_rate=0.15, nan_rate=0.1),
        sleep=lambda _s: None,
    )
    cache = TileResultCache()
    service = ResilientBrowsingService([primary, estimator], GRID, cache=cache, chunk_rows=1)

    errors: list[str] = []
    barrier = threading.Barrier(NUM_WORKERS)

    def worker(worker_id: int) -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            for i in range(REQUESTS_PER_WORKER):
                shape = SHAPES[(worker_id + i) % len(SHAPES)]
                relation = RELATIONS[(worker_id + i) % len(RELATIONS)]
                result = service.browse(TileQuery(0, 12, 0, 8), *shape, relation)
                if result.valid is not None and not result.valid.all():
                    errors.append("partial result without a deadline")
                elif not np.array_equal(result.counts, references[(shape, relation)]):
                    errors.append(f"{relation} raster diverged on {shape}")
        except Exception as exc:
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(NUM_WORKERS)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)

    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads still running after {JOIN_TIMEOUT_S}s: {stuck}"
    assert not errors, errors[:5]
    assert primary.injected["error"] + primary.injected["nan"] > 0, (
        "the fault injector never fired; the stress test is vacuous"
    )
    assert cache.nbytes <= cache.capacity_bytes
    # The shared cache saw real traffic and stayed coherent.
    total_tiles = NUM_WORKERS * REQUESTS_PER_WORKER  # lower bound: 6 tiles/raster
    assert cache.hits + cache.misses >= total_tiles
