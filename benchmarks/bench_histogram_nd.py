"""Extension benchmark: the d-dimensional Euler histogram.

3-d (space x time) browsing is the natural next step for the GeoBrowsing
service; this bench measures build and query cost of the Euler histogram
and S-EulerApprox at a spatio-temporal resolution (90 x 45 x 64) and
checks intersect exactness on the fly.
"""

import numpy as np

from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.grid.grid_nd import BoxQuery, GridND

CELLS = (90, 45, 64)


def _spatiotemporal_boxes(rng, grid, m):
    d = grid.ndim
    lows = np.empty((m, d))
    highs = np.empty((m, d))
    for k in range(d):
        size = rng.gamma(1.5, 1.0, size=m).clip(0.0, grid.cells[k] / 4)
        lo = rng.uniform(0.0, grid.cells[k] - size)
        lows[:, k] = lo
        highs[:, k] = lo + size
    return lows, highs


def test_build_3d_histogram(benchmark):
    grid = GridND.unit_cells(CELLS)
    rng = np.random.default_rng(0)
    lows, highs = _spatiotemporal_boxes(rng, grid, 100_000)
    hist = benchmark.pedantic(
        EulerHistogram.from_boxes, args=(grid, lows, highs), rounds=1, iterations=1
    )
    assert hist.total_sum == 100_000


def test_query_3d_histogram(benchmark):
    grid = GridND.unit_cells(CELLS)
    rng = np.random.default_rng(0)
    lows, highs = _spatiotemporal_boxes(rng, grid, 100_000)
    estimator = SEulerApprox(EulerHistogram.from_boxes(grid, lows, highs))
    query = BoxQuery(lo=(40, 20, 10), hi=(50, 30, 20))

    counts = benchmark(estimator.estimate, query)
    assert counts.total == 100_000

    # Exactness spot check: intersect equals a brute scan.
    brute = np.count_nonzero(
        np.all(
            (np.floor(lows) <= np.array(query.hi) - 1)
            & (np.maximum(np.ceil(highs) - 1, np.floor(lows)) >= np.array(query.lo)),
            axis=1,
        )
    )
    assert estimator.histogram.intersect_count(query) == brute
