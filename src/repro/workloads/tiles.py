"""The paper's browsing query sets (Section 6.1.2).

Each query set ``Q_n`` is one browsing query over the complete 360x180
space, gridded into ``n x n`` tiles: ``Q_n`` holds
``(360/n) * (180/n)`` individual range queries.  The paper uses
``n in {20, 18, 15, 12, 10, 9, 6, 5, 4, 3, 2}`` -- every value divides
both 360 and 180, so the tilings are complete.

:func:`browsing_tiles` is the GeoBrowsing-shaped generalisation: tile an
arbitrary aligned region into a rows x columns array (Figure 1(b)'s
"California as 22 x 24 tiles" interaction).
"""

from __future__ import annotations

import numpy as np

from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery, TileQueryBatch

__all__ = [
    "PAPER_QUERY_SET_SIZES",
    "query_set",
    "paper_query_sets",
    "browsing_tiles",
    "browsing_tile_batch",
    "browsing_tile_batch_at",
    "validate_browsing_tiling",
]


def validate_browsing_tiling(region: TileQuery, rows: int, cols: int) -> None:
    """Raise ``ValueError`` unless ``region`` splits into a ``rows x
    cols`` array of equal aligned tiles.

    The shared front door of every tiling builder below; callers that
    defer batch construction (the resilient browse path) use it to
    reject malformed requests before doing any other work.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if region.width % cols or region.height % rows:
        raise ValueError(
            f"region {region.width}x{region.height} cells cannot be split "
            f"into {cols}x{rows} equal aligned tiles"
        )


#: Tile sizes of the paper's eleven query sets, largest first.
PAPER_QUERY_SET_SIZES: tuple[int, ...] = (20, 18, 15, 12, 10, 9, 6, 5, 4, 3, 2)


def query_set(grid: Grid, tile_size: int) -> list[TileQuery]:
    """The query set ``Q_n``: all ``tile_size x tile_size`` tiles of the
    complete grid, in row-major order.

    ``tile_size`` must divide both grid dimensions.
    """
    if tile_size < 1:
        raise ValueError("tile_size must be positive")
    if grid.n1 % tile_size or grid.n2 % tile_size:
        raise ValueError(
            f"tile size {tile_size} does not divide the {grid.n1}x{grid.n2} grid"
        )
    return [
        TileQuery(tx * tile_size, (tx + 1) * tile_size, ty * tile_size, (ty + 1) * tile_size)
        for tx in range(grid.n1 // tile_size)
        for ty in range(grid.n2 // tile_size)
    ]


def paper_query_sets(
    grid: Grid, sizes: tuple[int, ...] = PAPER_QUERY_SET_SIZES
) -> dict[int, list[TileQuery]]:
    """All of the paper's query sets, keyed by tile size ``n``."""
    return {n: query_set(grid, n) for n in sizes}


def browsing_tiles(region: TileQuery, rows: int, cols: int) -> list[list[TileQuery]]:
    """Tile an aligned region into a ``rows x cols`` array of queries.

    Returns a row-major nested list (``result[r][c]``, row 0 at the bottom
    of the region) so a browsing client can map it straight onto its
    raster.  The region's cell span must be divisible by the requested
    partitioning -- GeoBrowsing's UI constrains tile counts the same way
    for grid-resolution answers.
    """
    validate_browsing_tiling(region, rows, cols)
    tile_w = region.width // cols
    tile_h = region.height // rows
    return [
        [
            TileQuery(
                region.qx_lo + c * tile_w,
                region.qx_lo + (c + 1) * tile_w,
                region.qy_lo + r * tile_h,
                region.qy_lo + (r + 1) * tile_h,
            )
            for c in range(cols)
        ]
        for r in range(rows)
    ]


def browsing_tile_batch(region: TileQuery, rows: int, cols: int) -> TileQueryBatch:
    """The same tiling as :func:`browsing_tiles`, materialised as one
    :class:`TileQueryBatch` of corner arrays.

    Query ``r * cols + c`` of the batch is tile ``(r, c)`` of the nested
    list (row-major, row 0 at the bottom), so a raster is recovered by
    reshaping the batch result to ``(rows, cols)``.  Built entirely with
    numpy broadcasting -- no per-tile Python objects -- this is the O(1)
    front half of the batched browse path.
    """
    validate_browsing_tiling(region, rows, cols)
    tile_w = region.width // cols
    tile_h = region.height // rows
    x_lo = region.qx_lo + tile_w * np.arange(cols, dtype=np.intp)
    y_lo = region.qy_lo + tile_h * np.arange(rows, dtype=np.intp)
    # Row-major (r, c) flattening: the row coordinate varies slowest.
    qx_lo = np.broadcast_to(x_lo[None, :], (rows, cols)).reshape(-1)
    qy_lo = np.broadcast_to(y_lo[:, None], (rows, cols)).reshape(-1)
    return TileQueryBatch(qx_lo, qx_lo + tile_w, qy_lo, qy_lo + tile_h)


def browsing_tile_batch_at(
    region: TileQuery, rows: int, cols: int, flat_indices: np.ndarray
) -> TileQueryBatch:
    """The tiles at ``flat_indices`` (row-major positions) of the
    :func:`browsing_tile_batch` tiling, without materialising the rest.

    Equivalent to indexing every column of ``browsing_tile_batch(...)``
    with ``flat_indices``, but O(len(flat_indices)): the browse pipeline
    uses it to build queries for only the open tiles of each chunk, such
    as the fresh band of a panned raster.
    """
    validate_browsing_tiling(region, rows, cols)
    tile_w = region.width // cols
    tile_h = region.height // rows
    idx = np.asarray(flat_indices, dtype=np.intp)
    r, c = np.divmod(idx, cols)
    qx_lo = region.qx_lo + tile_w * c
    qy_lo = region.qy_lo + tile_h * r
    return TileQueryBatch(qx_lo, qx_lo + tile_w, qy_lo, qy_lo + tile_h)
