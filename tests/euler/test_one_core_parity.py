"""One Euler core for every dimension.

The histogram, the three estimators and the exact evaluator serve d != 2
through ``from_boxes`` constructors on a :class:`GridND`, with the same
scalar code that answers 2-d tiles.  Two properties pin that down:

- on 2-d data, an estimator built with ``from_boxes`` on a ``GridND``
  answers each :class:`BoxQuery` with exactly the floats the usual 2-d
  build returns from the batch path that serves, for S-EulerApprox,
  EulerApprox on every :class:`QueryEdge`, M-EulerApprox and Exact;
- in 1, 3 and 4 dimensions, intersect counts and ``n_d`` equal a brute
  force scan, and every estimator's four counts sum to the object count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.full import EulerApprox, QueryEdge
from repro.euler.histogram import EulerHistogram
from repro.euler.multi import MEulerApprox
from repro.euler.simple import SEulerApprox
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND
from repro.grid.tiles_math import TileQueryBatch

from tests.conftest import random_dataset, random_query

THRESHOLDS = [1.0, 4.0, 16.0]
FIELDS = ("n_d", "n_cs", "n_cd", "n_o")


def _estimator_pairs(data, grid, lows, highs, grid_nd):
    hist = EulerHistogram.from_dataset(data, grid)
    hist_nd = EulerHistogram.from_boxes(grid_nd, lows, highs)
    yield SEulerApprox(hist_nd), SEulerApprox(hist)
    for edge in QueryEdge:
        yield EulerApprox(hist_nd, edge), EulerApprox(hist, edge)
    yield (
        MEulerApprox.from_boxes(grid_nd, lows, highs, THRESHOLDS),
        MEulerApprox(data, grid, THRESHOLDS),
    )
    yield ExactEvaluator.from_boxes(grid_nd, lows, highs), ExactEvaluator(data, grid)


@st.composite
def twin_grids(draw):
    n1 = draw(st.integers(1, 12))
    n2 = draw(st.integers(1, 10))
    x_lo, y_lo = draw(st.sampled_from([(0.0, 0.0), (-180.0, -90.0), (0.5, -3.0)]))
    cell_w, cell_h = draw(st.sampled_from([(1.0, 1.0), (2.5, 0.75)]))
    x_hi, y_hi = x_lo + n1 * cell_w, y_lo + n2 * cell_h
    grid = Grid(Rect(x_lo, x_hi, y_lo, y_hi), n1, n2)
    grid_nd = GridND(lows=(x_lo, y_lo), highs=(x_hi, y_hi), cells=(n1, n2))
    return grid, grid_nd, draw(st.integers(0, 2**31 - 1)), draw(st.integers(0, 80))


@settings(max_examples=40, deadline=None)
@given(twin_grids())
def test_from_boxes_scalar_equals_2d_batch(case):
    grid, grid_nd, seed, num_objects = case
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, grid, num_objects)
    lows = np.column_stack([data.x_lo, data.y_lo])
    highs = np.column_stack([data.x_hi, data.y_hi])
    queries = TileQueryBatch.from_queries(random_query(rng, grid) for _ in range(20))

    for nd, reference in _estimator_pairs(data, grid, lows, highs, grid_nd):
        batch = reference.estimate_batch(queries)
        for i, q in enumerate(queries):
            counts = nd.estimate(BoxQuery(lo=q.lo, hi=q.hi))
            for field in FIELDS:
                got, want = getattr(counts, field), float(getattr(batch, field)[i])
                assert got.hex() == want.hex(), (nd.name, getattr(nd, "edge", None), q, field)


def _random_boxes(rng, cells, m):
    lows = np.empty((m, len(cells)))
    highs = np.empty((m, len(cells)))
    for k, n in enumerate(cells):
        size = rng.uniform(0.0, n, size=m) * (rng.random(m) > 0.1)
        lows[:, k] = rng.uniform(0.0, n - size)
        highs[:, k] = lows[:, k] + size
    return lows, highs


def _brute_intersects(lows, highs, cells, query):
    """Per axis, the object's cell block from floor/ceil, tested against
    the query's cells -- independent of the lattice snapping."""
    hit = np.ones(lows.shape[0], dtype=bool)
    for k, n in enumerate(cells):
        c_lo = np.minimum(np.floor(lows[:, k]), n - 1)
        c_hi = np.maximum(np.ceil(highs[:, k]) - 1, c_lo)
        hit &= (c_lo <= query.hi[k] - 1) & (c_hi >= query.lo[k])
    return int(np.count_nonzero(hit))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 3, 4]).flatmap(
        lambda d: st.lists(st.integers(1, 5), min_size=d, max_size=d)
    ),
    st.integers(0, 2**31 - 1),
    st.integers(0, 60),
)
def test_other_dimensions_match_brute_force(cells, seed, num_objects):
    rng = np.random.default_rng(seed)
    grid = GridND.unit_cells(cells)
    lows, highs = _random_boxes(rng, cells, num_objects)
    hist = EulerHistogram.from_boxes(grid, lows, highs)
    assert hist.total_sum == num_objects
    edges = [QueryEdge.LEFT, QueryEdge.RIGHT, QueryEdge.ALL]
    if len(cells) > 1:
        edges += [QueryEdge.BOTTOM, QueryEdge.TOP]
    estimators = [SEulerApprox(hist), *(EulerApprox(hist, e) for e in edges)]
    estimators.append(MEulerApprox.from_boxes(grid, lows, highs, THRESHOLDS))
    estimators.append(ExactEvaluator.from_boxes(grid, lows, highs))

    for _ in range(10):
        lo = tuple(int(rng.integers(0, n)) for n in cells)
        hi = tuple(int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, cells))
        query = BoxQuery(lo=lo, hi=hi)
        n_int = _brute_intersects(lows, highs, cells, query)
        assert hist.intersect_count(query) == n_int
        for estimator in estimators:
            counts = estimator.estimate(query)
            assert counts.n_d == num_objects - n_int, estimator.name
            assert counts.total == num_objects, estimator.name
