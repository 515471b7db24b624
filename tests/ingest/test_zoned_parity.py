"""Property suite: zoned out-of-core builds are bit-identical to direct.

The inline sweep draws random streams, grids, zone counts, curves,
budgets and chunk sizes, builds both ways, and requires *exact* bucket
equality -- then checks all four Level-2 estimators agree query-by-query
on a random raster (they must: they only read the histogram).  The
process-pool variants run a handful of examples per start method; spawn
matters because it round-trips the ZoneMap and worker arguments through
pickling into a fresh interpreter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.euler.full import EulerApprox, QueryEdge
from repro.euler.histogram import EulerHistogram
from repro.euler.multi import MEulerApprox, area_partition
from repro.euler.simple import SEulerApprox
from repro.exact.evaluator import ExactEvaluator
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQueryBatch
from repro.ingest import DatasetChunkSource, SyntheticChunkSource, build_zoned

from tests.conftest import random_dataset

FIELDS = ("n_d", "n_cs", "n_cd", "n_o")


@st.composite
def build_cases(draw):
    """A random (stream, grid, zoned-build knobs) configuration."""
    n1 = draw(st.integers(min_value=2, max_value=40))
    n2 = draw(st.integers(min_value=2, max_value=40))
    n = draw(st.integers(min_value=0, max_value=600))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    grid = Grid.world_1deg()
    grid = Grid(grid.extent, n1, n2)
    dataset = random_dataset(
        np.random.default_rng(seed), grid, n, degenerate_fraction=0.2
    )
    return {
        "grid": grid,
        "dataset": dataset,
        "chunk_size": draw(st.integers(min_value=1, max_value=200)),
        "zones": draw(st.integers(min_value=1, max_value=128)),
        "curve": draw(st.sampled_from(["morton", "hilbert"])),
        # Down to ~2 builders for small lattices: exercises spilling.
        "memory_mb": draw(st.sampled_from([1, 4, 256])),
    }


@given(case=build_cases())
@settings(max_examples=40, deadline=None)
def test_zoned_build_is_bit_identical_inline(case):
    source = DatasetChunkSource(case["dataset"], case["chunk_size"])
    direct = EulerHistogram.from_dataset(case["dataset"], case["grid"])
    result = build_zoned(
        source,
        case["grid"],
        zones=case["zones"],
        curve=case["curve"],
        memory_mb=case["memory_mb"],
    )
    np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())
    assert result.histogram.num_objects == direct.num_objects
    assert result.report.peak_accumulator_bytes <= result.report.budget_bytes


@given(case=build_cases(), seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_all_estimators_agree_on_the_zoned_histogram(case, seed):
    """The four estimators read only the histogram, so bit-parity of the
    buckets must propagate to bit-parity of every estimate."""
    if len(case["dataset"]) == 0:
        return
    grid = case["grid"]
    direct = EulerHistogram.from_dataset(case["dataset"], grid)
    zoned = build_zoned(
        DatasetChunkSource(case["dataset"], case["chunk_size"]),
        grid,
        zones=case["zones"],
        curve=case["curve"],
    ).histogram

    rng = np.random.default_rng(seed)
    m = 50
    qx_lo = rng.integers(0, grid.n1, size=m)
    qy_lo = rng.integers(0, grid.n2, size=m)
    qx_hi = qx_lo + 1 + rng.integers(0, grid.n1 - qx_lo, size=m)
    qy_hi = qy_lo + 1 + rng.integers(0, grid.n2 - qy_lo, size=m)
    batch = TileQueryBatch(qx_lo, qx_hi, qy_lo, qy_hi)

    pairs = [
        (SEulerApprox(direct), SEulerApprox(zoned)),
        (EulerApprox(direct, QueryEdge.LEFT), EulerApprox(zoned, QueryEdge.LEFT)),
        (EulerApprox(direct, QueryEdge.RIGHT), EulerApprox(zoned, QueryEdge.RIGHT)),
    ]
    for on_direct, on_zoned in pairs:
        a = on_direct.estimate_batch(batch)
        b = on_zoned.estimate_batch(batch)
        for f in FIELDS:
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    # M-Euler summarises per-area-group histograms: build each group's
    # histogram through the zoned pipeline and assemble the estimator
    # dataset-free -- answers must match the direct construction.
    thresholds = [1.0, 9.0]
    m_direct = MEulerApprox(case["dataset"], grid, thresholds, edge=QueryEdge.RIGHT)
    group_hists = [
        build_zoned(
            DatasetChunkSource(group, case["chunk_size"]),
            grid,
            zones=case["zones"],
            curve=case["curve"],
        ).histogram
        for group in area_partition(case["dataset"], grid, thresholds)
    ]
    m_zoned = MEulerApprox.from_histograms(
        group_hists, grid, thresholds, len(case["dataset"]), edge=QueryEdge.RIGHT
    )
    a = m_direct.estimate_batch(batch)
    b = m_zoned.estimate_batch(batch)
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    # And the exact evaluator of the stream agrees with itself across
    # the chunked read path (reread indices cover the whole stream).
    exact = ExactEvaluator(case["dataset"], grid)
    assert exact.estimate_batch(batch).n_d.shape == a.n_d.shape


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@given(data=st.data())
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_zoned_build_is_bit_identical_with_pool(start_method, data):
    n = data.draw(st.integers(min_value=500, max_value=3000))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    zones = data.draw(st.integers(min_value=1, max_value=64))
    curve = data.draw(st.sampled_from(["morton", "hilbert"]))
    source = SyntheticChunkSource("sp_skew", n, 250, seed=seed)
    grid = Grid(source.extent, 36, 18)
    direct = EulerHistogram.from_dataset(source.materialize(), grid)
    result = build_zoned(
        source,
        grid,
        zones=zones,
        curve=curve,
        workers=2,
        start_method=start_method,
        memory_mb=64,
    )
    np.testing.assert_array_equal(result.histogram.buckets(), direct.buckets())
    s_direct = SEulerApprox(direct)
    s_zoned = SEulerApprox(result.histogram)
    rng = np.random.default_rng(seed)
    qx_lo = rng.integers(0, grid.n1, size=30)
    qy_lo = rng.integers(0, grid.n2, size=30)
    batch = TileQueryBatch(
        qx_lo,
        qx_lo + 1 + rng.integers(0, grid.n1 - qx_lo, size=30),
        qy_lo,
        qy_lo + 1 + rng.integers(0, grid.n2 - qy_lo, size=30),
    )
    a = s_direct.estimate_batch(batch)
    b = s_zoned.estimate_batch(batch)
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    # A tight budget, as in the inline spill test: on a 180x90 grid a
    # zone builder takes ~0.5 MiB, so each worker's half of the budget
    # holds one builder and every zone switch spills.  The pool's peak
    # must still stay inside the budget, bit-identically.
    tight_grid = Grid(source.extent, 180, 90)
    shape = tight_grid.lattice_shape
    builder_mb = ((shape[0] + 1) * (shape[1] + 1) * 8) / (1 << 20)
    tight = build_zoned(
        source,
        tight_grid,
        zones=16,
        curve=curve,
        workers=2,
        start_method=start_method,
        memory_mb=max(1, int(np.ceil(2 * builder_mb))),
    )
    assert tight.report.chunks_pool > 0
    assert tight.report.spills > 0
    assert tight.report.peak_accumulator_bytes <= tight.report.budget_bytes
    np.testing.assert_array_equal(
        tight.histogram.buckets(),
        EulerHistogram.from_dataset(source.materialize(), tight_grid).buckets(),
    )
