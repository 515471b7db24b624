"""Cross-form parity: the plain and the resilient browsing services answer
the same pan/zoom traces with the same rasters.

Both forms are driven through identical sessions under every combination
of tile cache, viewport delta and a scalar-loop estimator.  The oracle
is one direct ``estimate_batch`` over the raster's full tile batch -- it
shares no code with either service's pipeline (no delta plan, cache
probe or chunk planner).  The deadline axis is a third, pyramid-backed
resilient service browsed with a roomy budget: once it has measured a
chunk, every raster leaves as one chunk without the coarse prefill.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browse.delta import DeltaTracker
from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import RELATION_FIELDS, GeoBrowsingService
from repro.cache import TileResultCache
from repro.euler.base import ScalarBatchFallback
from repro.euler.histogram import EulerHistogram
from repro.euler.pyramid import HistogramPyramid
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs import BrowseInstrumentation
from repro.workloads.tiles import browsing_tile_batch

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 24.0, 0.0, 16.0), 24, 16)


@pytest.fixture(scope="module")
def data():
    return random_dataset(np.random.default_rng(12), GRID, 400, max_size_cells=4.0)


@pytest.fixture(scope="module")
def hist(data):
    return EulerHistogram.from_dataset(data, GRID)


@pytest.fixture(scope="module")
def pyramid(data):
    return HistogramPyramid(data, GRID, min_cells=2)


@st.composite
def sessions(draw):
    """A relation plus a browsing trace of fresh viewports, tile-aligned
    pans (delta-compatible) and zooms (re-tiles of the same region)."""
    relation = draw(st.sampled_from(sorted(RELATION_FIELDS)))

    def fresh():
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        tile_w, tile_h = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        x_lo = draw(st.integers(0, GRID.n1 - cols * tile_w))
        y_lo = draw(st.integers(0, GRID.n2 - rows * tile_h))
        return TileQuery(x_lo, x_lo + cols * tile_w, y_lo, y_lo + rows * tile_h), rows, cols

    steps = [fresh()]
    for _ in range(draw(st.integers(1, 5))):
        region, rows, cols = steps[-1]
        move = draw(st.sampled_from(["pan", "zoom", "fresh"]))
        if move == "pan":
            dx = draw(st.integers(-2, 2)) * (region.width // cols)
            dy = draw(st.integers(-2, 2)) * (region.height // rows)
            x_lo = min(max(region.qx_lo + dx, 0), GRID.n1 - region.width)
            y_lo = min(max(region.qy_lo + dy, 0), GRID.n2 - region.height)
            region = TileQuery(x_lo, x_lo + region.width, y_lo, y_lo + region.height)
        elif move == "zoom":
            rows = draw(st.sampled_from([d for d in (1, 2, 3) if region.height % d == 0]))
            cols = draw(st.sampled_from([d for d in (1, 2, 3) if region.width % d == 0]))
        else:
            region, rows, cols = fresh()
        steps.append((region, rows, cols))
    return relation, steps


def oracle(estimator, region, rows, cols, relation):
    counts = estimator.estimate_batch(browsing_tile_batch(region, rows, cols))
    return np.asarray(getattr(counts, RELATION_FIELDS[relation])).reshape(rows, cols)


@pytest.mark.parametrize("scalar", [False, True], ids=["batch", "scalar-loop"])
@pytest.mark.parametrize("delta", [False, True], ids=["no-delta", "delta"])
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@given(session=sessions())
@settings(max_examples=12, deadline=None)
def test_plain_and_resilient_forms_agree(
    hist, pyramid, cached, delta, scalar, session
):
    relation, steps = session
    estimator = SEulerApprox(hist)
    if scalar:
        estimator = ScalarBatchFallback(estimator)

    def options():
        return {
            "cache": TileResultCache() if cached else None,
            "delta": DeltaTracker() if delta else None,
        }

    plain = GeoBrowsingService(estimator, GRID, **options())
    resilient = ResilientBrowsingService(estimator, GRID, **options())
    timed = ResilientBrowsingService(
        estimator, GRID, pyramid=pyramid, instruments=BrowseInstrumentation(), **options()
    )
    # Warm the wave plan's cost on a raster outside the session.
    timed.browse(TileQuery(0, 24, 0, 16), 2, 2, relation, session="warm")
    for region, rows, cols in steps:
        want = oracle(estimator, region, rows, cols, relation)
        a = plain.browse(region, rows, cols, relation)
        b = resilient.browse(region, rows, cols, relation, deadline=None)
        c = timed.browse(region, rows, cols, relation, deadline=60.0)
        for result in (a, b, c):
            assert result.valid is None
            np.testing.assert_array_equal(result.counts, want)
            assert result.levels is None
        # One chunk, no coarse prefill, nothing left coarse.
        assert c.levels is None
        stages = {span.name: span for span in c.telemetry.spans}
        assert "pyramid" not in stages
        if "waves" in stages:
            assert stages["waves"].attrs["plan"] == "budget"
            assert stages["waves"].attrs["chunks"] == 1

