"""JoinSearchEngine: ranking correctness, pruning accounting and
instrumentation."""

import numpy as np
import pytest

from repro.errors import CatalogAlignmentError
from repro.exact.evaluator import ExactEvaluator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.joins import (
    DATASET_METRICS,
    REGION_METRICS,
    JoinSearchEngine,
    JoinSketch,
    SummaryCatalog,
    score_dataset_batch,
)
from repro.obs import JoinInstrumentation
from repro.workloads.catalogs import build_catalog, generate_catalog_sources

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 24.0, 0.0, 16.0), 24, 16)


@pytest.fixture(scope="module")
def catalog():
    rng = np.random.default_rng(77)
    cat = SummaryCatalog(GRID)
    for i in range(48):
        data = random_dataset(rng, GRID, 30 + 5 * (i % 7), name=f"d{i:02d}")
        cat.register(f"d{i:02d}", ExactEvaluator(data, GRID))
    return cat


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(99)
    return JoinSketch.from_dataset(
        random_dataset(rng, GRID, 60, name="q"), GRID, name="q"
    )


def brute_force_topk(catalog, query, metric, k):
    values = score_dataset_batch(catalog.stacked(), query).metric(metric)
    order = np.lexsort((np.arange(len(values)), -values))[:k]
    return order, values[order]


@pytest.mark.parametrize("metric", DATASET_METRICS)
def test_exhaustive_matches_brute_force(catalog, query, metric):
    engine = JoinSearchEngine(catalog)
    result = engine.search_dataset(query, metric=metric, k=7, prune=False)
    idx, vals = brute_force_topk(catalog, query, metric, 7)
    assert np.array_equal(result.indices, idx)
    assert np.array_equal(result.scores, vals)
    assert result.names == tuple(catalog.names[i] for i in idx)
    assert result.candidates == len(catalog)
    assert result.fully_scored == len(catalog)
    assert result.pruned == 0
    assert result.levels == ()


@pytest.mark.parametrize("metric", DATASET_METRICS)
@pytest.mark.parametrize("k", [1, 5, 48])
@pytest.mark.parametrize("seed_pool", [None, 2, 8])
def test_pruned_equals_exhaustive(catalog, query, metric, k, seed_pool):
    engine = JoinSearchEngine(catalog, seed_pool=seed_pool)
    pruned = engine.search_dataset(query, metric=metric, k=k, prune=True)
    exhaustive = engine.search_dataset(query, metric=metric, k=k, prune=False)
    assert np.array_equal(pruned.indices, exhaustive.indices)
    assert np.array_equal(pruned.scores, exhaustive.scores)


def test_pruning_accounting_is_exhaustive(catalog, query):
    # a tight seed pool forces real pruning on this 48-summary catalog
    result = JoinSearchEngine(catalog, seed_pool=5).search_dataset(
        query, k=5, prune=True
    )
    # every candidate is either fully scored or pruned -- no silent caps
    assert result.fully_scored + result.pruned == result.candidates == len(catalog)
    assert result.pruned == sum(s.pruned for s in result.levels)
    assert result.levels[0].level == len(catalog.stacked().levels) - 1
    assert result.levels[0].evaluated == len(catalog)
    assert result.pruned > 0
    assert result.fully_scored < len(catalog)


def test_default_seed_pool_covers_small_catalogs(catalog, query):
    """With the default pool (>= 64) a 48-summary catalog is fully
    seeded: nothing pruned, ranking identical."""
    result = JoinSearchEngine(catalog).search_dataset(query, k=5, prune=True)
    assert result.pruned == 0
    assert result.fully_scored == len(catalog)


def test_default_planner_prunes_a_realistic_catalog():
    """128 mixed-family summaries on a 16x8 reference grid: the default
    seed pool (64) leaves half the catalog to the coarse bounds, so every
    top-10 search prunes and still returns the exhaustive ranking."""
    reference = Grid(Rect(0.0, 360.0, 0.0, 180.0), 16, 8)
    sources = generate_catalog_sources(reference, 128, 200, seed=42)
    catalog = build_catalog(
        sources, reference, family="mixed", summary_grid=Grid(reference.extent, 128, 64)
    )
    held_out = generate_catalog_sources(reference, 3, 200, seed=1042, name_prefix="query")
    engine = JoinSearchEngine(catalog)
    for metric in DATASET_METRICS:
        for data in held_out:
            query = JoinSketch.from_dataset(data, reference, name=data.name)
            pruned = engine.search_dataset(query, metric=metric, k=10)
            exhaustive = engine.search_dataset(query, metric=metric, k=10, prune=False)
            assert pruned.pruned > 0
            assert pruned.fully_scored + pruned.pruned == pruned.candidates == 128
            assert np.array_equal(pruned.indices, exhaustive.indices)
            assert np.array_equal(pruned.scores, exhaustive.scores)


def test_region_search_matches_manual_ranking(catalog):
    region = TileQuery(4, 18, 2, 12)
    engine = JoinSearchEngine(catalog)
    for metric in REGION_METRICS:
        result = engine.search_region(region, metric=metric, k=6)
        from repro.joins import score_region_batch

        values = score_region_batch(catalog.stacked(), region).metric(metric)
        order = np.lexsort((np.arange(len(values)), -values))[:6]
        assert np.array_equal(result.indices, order)
        assert np.array_equal(result.scores, values[order])
        assert result.mode == "region"
        assert result.pruned == 0


def test_instrumentation_records_search(catalog, query):
    instr = JoinInstrumentation()
    engine = JoinSearchEngine(catalog, instrumentation=instr)
    result = engine.search_dataset(query, k=5)
    assert instr.searches.labels(mode="dataset", metric="overlap").value == 1.0
    scored = instr.candidates.labels(mode="dataset", outcome="scored").value
    pruned = instr.candidates.labels(mode="dataset", outcome="pruned").value
    assert scored == result.fully_scored
    assert pruned == result.pruned
    assert scored + pruned == len(catalog)
    assert instr.catalog_summaries.value == len(catalog)

    engine.search_region(TileQuery(0, 4, 0, 4), k=3)
    assert instr.searches.labels(mode="region", metric="intersect_mass").value == 1.0


def test_empty_catalog_returns_empty_ranking(query):
    engine = JoinSearchEngine(SummaryCatalog(GRID))
    result = engine.search_dataset(query, k=5)
    assert result.indices.size == 0
    assert result.candidates == 0


def test_k_larger_than_catalog(catalog, query):
    result = JoinSearchEngine(catalog).search_dataset(query, k=1000)
    assert result.indices.size == len(catalog)
    # full ranking is sorted best-first
    assert (np.diff(result.scores) <= 0.0).all()


def test_validation_errors(catalog, query):
    engine = JoinSearchEngine(catalog)
    with pytest.raises(ValueError, match="unknown dataset metric"):
        engine.search_dataset(query, metric="bogus")
    with pytest.raises(ValueError, match="unknown region metric"):
        engine.search_region(TileQuery(0, 1, 0, 1), metric="overlap")
    with pytest.raises(ValueError, match="k must be"):
        engine.search_dataset(query, k=0)

    other_grid = Grid(GRID.extent, 12, 8)
    rng = np.random.default_rng(5)
    foreign = JoinSketch.from_dataset(random_dataset(rng, other_grid, 5), other_grid)
    with pytest.raises(CatalogAlignmentError):
        engine.search_dataset(foreign)
