"""The vectorised wire encoder against the per-tile reference.

``GatewayResponse.to_wire`` renders the raster with one ``tolist()`` and
patches ``None`` in at the non-finite tiles.  The reference below is the
per-element encoder it replaced; for every raster the two must serialise
to the same JSON bytes.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.browse.service import BrowseResult
from repro.gateway.gateway import GatewayResponse, TileRequest
from repro.grid.tiles_math import TileQuery

SPECIAL_VALUES = [
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    1.0,
    -3.0,
    12345.0,
    2.0**53,
    5e-324,  # the smallest subnormal
    -2.2250738585072014e-309,  # a negative subnormal
    1e300,
    -1e300,
    0.1,
]

values = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.integers(min_value=-(2**31), max_value=2**31).map(float),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def rasters(draw):
    rows = draw(st.integers(1, 60))
    cols = draw(st.integers(1, 60))
    fill = draw(st.sampled_from([0.0, math.nan, 7.0]))
    counts = np.full((rows, cols), fill, dtype=np.float64)
    # A handful of drawn values scattered over the raster: drawing every
    # tile of a 60x60 raster would make each example needlessly slow.
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), values),
            max_size=80,
        )
    )
    for r, c, v in cells:
        counts[r, c] = v
    if draw(st.booleans()):
        # A dense random block exercises every tile, not just a few.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dense = rng.choice(np.array(SPECIAL_VALUES), size=(rows, cols))
        counts = np.where(rng.random((rows, cols)) < 0.5, dense, counts)
    return counts


def reference_counts(counts: np.ndarray) -> list:
    """The per-element encoder the vectorised one replaced."""
    return [[None if not np.isfinite(v) else float(v) for v in row] for row in counts]


def response_for(counts: np.ndarray) -> GatewayResponse:
    rows, cols = counts.shape
    region = TileQuery(0, cols, 0, rows)
    valid = np.isfinite(counts)
    return GatewayResponse(
        status="ok" if valid.all() else "degraded",
        request=TileRequest(tenant="t", dataset="d", region=region, rows=rows, cols=cols),
        result=BrowseResult(
            region=region,
            relation="overlap",
            counts=counts,
            valid=None if valid.all() else valid,
        ),
    )


@settings(max_examples=200, deadline=None)
@given(rasters())
@example(np.array([[-0.0, 5e-324], [1e300, np.nan], [-np.inf, np.inf]]))
def test_wire_bytes_equal_the_per_tile_encoder(counts):
    doc = response_for(counts).to_wire()
    expected = dict(doc, counts=reference_counts(counts))
    assert json.dumps(doc) == json.dumps(expected)
    # Strict JSON too: no NaN/Infinity tokens ever reach the wire.
    assert json.dumps(doc, allow_nan=False) == json.dumps(expected, allow_nan=False)


def test_non_float64_rasters_render_like_the_reference():
    for dtype in (np.float32, np.int64):
        counts = np.arange(12, dtype=dtype).reshape(3, 4) * 3
        doc = response_for(counts).to_wire()
        assert json.dumps(doc["counts"]) == json.dumps(reference_counts(counts))
