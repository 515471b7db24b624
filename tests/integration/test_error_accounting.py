"""Exact error accounting for S-EulerApprox.

The S-EulerApprox errors are not noise -- they have a closed form.  Per
object, the outside-the-query bucket sum counts the Euler characteristic
of the object's exterior footprint:

- an object **within** the query contributes 0,
- a **container** contributes 0 (the loophole: annulus),
- a **crossover** (spans the query along exactly one axis while staying
  strictly inside it along the other) contributes 2,
- every other object meeting the exterior contributes 1.

Summing: ``n'_ei = N_d + N_o + X`` with ``X`` the crossover count, hence

    N_cs_est = N_cs + N_cd - X          (Eq. 16's exact error)
    N_o_est  = N_o + X                  (Eq. 17's exact error)

These identities must hold *exactly* for every dataset and aligned query.
Verifying them with an independent combinatorial crossover counter is a
complete audit of the histogram's bucket semantics, the prefix sums, and
the estimator algebra at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.histogram import EulerHistogram
from repro.euler.multi import MEulerApprox
from repro.euler.simple import SEulerApprox
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid

from tests.conftest import random_dataset, random_query


def _crossover_count(evaluator: ExactEvaluator, query) -> int:
    """Objects that span the query along exactly one axis while lying
    strictly inside the query's open span along the other: the only
    footprint shape whose exterior intersection has two pieces."""
    (a_lo, b_lo), (a_hi, b_hi) = evaluator._lo, evaluator._hi

    spans_x = (a_lo <= 2 * query.qx_lo - 1) & (a_hi >= 2 * query.qx_hi - 1)
    spans_y = (b_lo <= 2 * query.qy_lo - 1) & (b_hi >= 2 * query.qy_hi - 1)
    inside_x = (a_lo >= 2 * query.qx_lo) & (a_hi <= 2 * query.qx_hi - 2)
    inside_y = (b_lo >= 2 * query.qy_lo) & (b_hi <= 2 * query.qy_hi - 2)

    horizontal = spans_x & inside_y
    vertical = spans_y & inside_x
    return int(np.count_nonzero(horizontal | vertical))


@st.composite
def scenario(draw):
    seed = draw(st.integers(0, 100_000))
    n1 = draw(st.sampled_from([5, 8, 10]))
    n2 = draw(st.sampled_from([4, 6]))
    count = draw(st.integers(0, 100))
    return seed, n1, n2, count


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_s_euler_error_identities(params):
    seed, n1, n2, count = params
    grid = Grid(Rect(0.0, float(n1), 0.0, float(n2)), n1, n2)
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, grid, count, degenerate_fraction=0.2, aligned_fraction=0.3)

    estimator = SEulerApprox(EulerHistogram.from_dataset(data, grid))
    evaluator = ExactEvaluator(data, grid)

    for _ in range(6):
        query = random_query(rng, grid)
        truth = evaluator.estimate(query)
        crossovers = _crossover_count(evaluator, query)
        counts = estimator.estimate(query)

        assert counts.n_cs == truth.n_cs + truth.n_cd - crossovers
        assert counts.n_o == truth.n_o + crossovers
        assert counts.n_d == truth.n_d


@settings(max_examples=30, deadline=None)
@given(scenario())
def test_outside_sum_closed_form(params):
    """``n'_ei = N_d + N_o + X`` directly on the histogram primitive."""
    seed, n1, n2, count = params
    grid = Grid(Rect(0.0, float(n1), 0.0, float(n2)), n1, n2)
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, grid, count, degenerate_fraction=0.3, aligned_fraction=0.4)

    hist = EulerHistogram.from_dataset(data, grid)
    evaluator = ExactEvaluator(data, grid)
    for _ in range(6):
        query = random_query(rng, grid)
        truth = evaluator.estimate(query)
        crossovers = _crossover_count(evaluator, query)
        assert hist.outside_sum(query) == truth.n_d + truth.n_o + crossovers


@settings(max_examples=25, deadline=None)
@given(scenario())
def test_m_euler_overlap_inherits_the_same_crossovers(params):
    """M-Euler's N_o equals truth plus the *same* global crossover count:
    banding redistributes objects but crossover pieces are per-object."""
    seed, n1, n2, count = params
    grid = Grid(Rect(0.0, float(n1), 0.0, float(n2)), n1, n2)
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, grid, count, degenerate_fraction=0.2)

    multi = MEulerApprox(data, grid, [1.0, 4.0, 16.0])
    evaluator = ExactEvaluator(data, grid)
    for _ in range(5):
        query = random_query(rng, grid)
        truth = evaluator.estimate(query)
        crossovers = _crossover_count(evaluator, query)
        assert multi.estimate(query).n_o == pytest.approx(truth.n_o + crossovers)


def test_crossover_counter_spot_checks():
    grid = Grid(Rect(0.0, 10.0, 0.0, 8.0), 10, 8)
    from repro.datasets.base import RectDataset
    from repro.grid.tiles_math import TileQuery

    rects = [
        Rect(0.5, 9.5, 3.2, 3.8),   # horizontal crossover of a mid query
        Rect(3.2, 3.8, 0.5, 7.5),   # vertical crossover
        Rect(0.5, 9.5, 0.5, 7.5),   # container (not a crossover)
        Rect(3.1, 3.9, 3.1, 3.9),   # within
        Rect(0.2, 0.8, 0.2, 0.8),   # disjoint
    ]
    data = RectDataset.from_rects(rects, grid.extent)
    evaluator = ExactEvaluator(data, grid)
    assert _crossover_count(evaluator, TileQuery(3, 6, 2, 6)) == 2
    assert _crossover_count(evaluator, TileQuery(0, 10, 0, 8)) == 0
