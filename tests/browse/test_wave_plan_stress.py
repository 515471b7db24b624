"""Threaded stress test of the wave plan's shared cost state.

One warmed resilient service is shared by more threads than the host
has cores, with the interpreter's switch interval cut to
a microsecond so threads interleave inside the cost update.  Every
raster must equal a direct ``estimate_batch`` over its tiles, and the
service's :class:`~repro.browse.resilience.ChunkCost` must account for
every chunk the chain answered and every tile in them: a lost update
in its read-modify-write breaks the count.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import RELATION_FIELDS
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.workloads.tiles import browsing_tile_batch

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 24.0, 0.0, 16.0), 24, 16)
REGION = TileQuery(0, 24, 0, 16)
NUM_THREADS = 2 * (os.cpu_count() or 1) + 2
REQUESTS_PER_THREAD = 20
JOIN_TIMEOUT_S = 60.0

#: Raster shapes and deadlines the threads cycle through: unbounded and
#: roomy budgets take the one-chunk plan, a zero budget expires at once.
SHAPES = ((16, 24), (8, 12), (4, 6), (16, 3))
DEADLINES = (None, 30.0, 0.0)


@pytest.fixture(scope="module")
def estimator():
    data = random_dataset(np.random.default_rng(77), GRID, 400, max_size_cells=4.0)
    return SEulerApprox(EulerHistogram.from_dataset(data, GRID))


def test_shared_cost_state_counts_every_chunk(estimator):
    oracles = {
        shape: np.asarray(
            getattr(estimator.estimate_batch(browsing_tile_batch(REGION, *shape)),
                    RELATION_FIELDS["overlap"])
        ).reshape(shape)
        for shape in SHAPES
    }
    service = ResilientBrowsingService(estimator, GRID, chunk_rows=2)
    errors: list[str] = []
    answered_tiles = [0] * NUM_THREADS
    barrier = threading.Barrier(NUM_THREADS)

    def worker(index: int) -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            for i in range(REQUESTS_PER_THREAD):
                shape = SHAPES[(index + i) % len(SHAPES)]
                deadline = DEADLINES[(index + i) % len(DEADLINES)]
                result = service.browse(REGION, *shape, deadline=deadline)
                if deadline == 0.0:
                    if result.valid is None or result.valid.any():
                        errors.append("a zero budget answered tiles")
                    continue
                if not result.is_complete:
                    errors.append(f"partial {shape} raster under budget {deadline}")
                elif not np.array_equal(result.counts, oracles[shape]):
                    errors.append(f"{shape} raster diverged from estimate_batch")
                answered_tiles[index] += result.counts.size
        except Exception as exc:  # reported below, with every other failure
            errors.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        warm = service.browse(REGION, 16, 24)
        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        stuck = [t.name for t in threads if t.is_alive()]
    finally:
        sys.setswitchinterval(previous)

    assert not stuck, f"threads still running after {JOIN_TIMEOUT_S}s: {stuck}"
    assert not errors, errors[:5]
    (tier,) = service.chain.tiers
    cost = service.chunk_cost
    assert cost.chunks == tier.successes
    assert cost.tiles == warm.counts.size + sum(answered_tiles)
    assert cost.seconds_per_tile is not None and cost.seconds_per_tile > 0.0
