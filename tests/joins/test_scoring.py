"""Batch scoring kernels: hand-computed values and scalar-reference parity."""

import numpy as np
import pytest

from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.joins import (
    JoinSketch,
    SummaryCatalog,
    score_dataset_batch,
    score_dataset_scalar,
    score_region_batch,
    score_region_scalar,
)

from tests.conftest import random_dataset


@pytest.fixture
def reference() -> Grid:
    return Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)


@pytest.fixture
def catalog(reference, rng):
    cat = SummaryCatalog(reference)
    for i in range(8):
        data = random_dataset(rng, reference, 40 + 10 * i, name=f"d{i}")
        cat.register(f"d{i}", ExactEvaluator(data, reference))
    return cat


@pytest.fixture
def query(reference, rng):
    return JoinSketch.from_dataset(
        random_dataset(rng, reference, 50, name="query"), reference, name="query"
    )


def test_dataset_scores_hand_computed(reference, rng):
    """Self-overlap of a dataset equals the sum of its own n_ii channel."""
    data = random_dataset(rng, reference, 30)
    sketch = JoinSketch.from_dataset(data, reference)
    catalog = SummaryCatalog(reference)
    catalog.register_sketch(sketch)
    scores = score_dataset_batch(catalog.stacked(), sketch)
    assert scores.overlap[0] == sketch.n_ii.sum()
    assert scores.containment[0] == np.minimum(sketch.n_ii, sketch.n_cs).sum()
    assert scores.coverage[0] == 1.0  # identical occupancy footprint


def test_disjoint_sketches_score_zero(reference):
    left = np.zeros((12, 8))
    left[:6] = 3.0
    right = np.zeros((12, 8))
    right[6:] = 2.0
    occ_l, occ_r = (left > 0).astype(float), (right > 0).astype(float)
    a = JoinSketch(reference, left, left, left, occ_l, num_objects=10, name="a")
    b = JoinSketch(reference, right, right, right, occ_r, num_objects=10, name="b")
    catalog = SummaryCatalog(reference)
    catalog.register_sketch(a)
    scores = score_dataset_batch(catalog.stacked(), b)
    assert scores.overlap[0] == 0.0
    assert scores.containment[0] == 0.0
    assert scores.coverage[0] == 0.0


def test_dataset_batch_matches_scalar_bitwise(catalog, query):
    stacked = catalog.stacked()
    batch = score_dataset_batch(stacked, query)
    for i in range(len(stacked)):
        overlap, containment, coverage = score_dataset_scalar(stacked, query, i)
        # bit-identical, not approximately equal
        assert batch.overlap[i] == overlap
        assert batch.containment[i] == containment
        assert batch.coverage[i] == coverage


def test_region_scores_hand_computed(reference, rng):
    data = random_dataset(rng, reference, 30)
    sketch = JoinSketch.from_dataset(data, reference)
    catalog = SummaryCatalog(reference)
    catalog.register_sketch(sketch)
    region = TileQuery(2, 9, 1, 6)
    scores = score_region_batch(catalog.stacked(), region)
    assert scores.intersect_mass[0] == sketch.n_ii[2:9, 1:6].sum()
    assert scores.contained_mass[0] == sketch.n_cs[2:9, 1:6].sum()
    assert scores.containing_mass[0] == sketch.n_cd[2:9, 1:6].sum()
    occupied = float(sketch.occupancy[2:9, 1:6].sum())
    assert scores.coverage[0] == occupied / region.area


def test_region_batch_matches_scalar_bitwise(catalog):
    stacked = catalog.stacked()
    for region in (TileQuery(0, 12, 0, 8), TileQuery(3, 4, 2, 3), TileQuery(1, 11, 0, 5)):
        batch = score_region_batch(stacked, region)
        for i in range(len(stacked)):
            mass, contained, containing, coverage = score_region_scalar(
                stacked, region, i
            )
            assert batch.intersect_mass[i] == mass
            assert batch.contained_mass[i] == contained
            assert batch.containing_mass[i] == containing
            assert batch.coverage[i] == coverage


def test_unknown_metric_rejected(catalog, query):
    scores = score_dataset_batch(catalog.stacked(), query)
    with pytest.raises((ValueError, AttributeError)):
        scores.metric("no_such_metric")
