"""Exact Level-2 counts for a whole tiling in O(M + tiles) time.

The experiment harness needs ground truth for every tile of every query set
(up to 16,200 tiles of ``Q_2`` against millions of objects); per-query
evaluation would be quadratic-ish.  For a *complete, disjoint tiling* the
relations have closed forms over tile indices:

- an object **intersects** exactly the contiguous block of tiles its cell
  span maps to -- accumulate with a 2-d difference array;
- an object is **within** some tile iff its whole cell span falls in one
  tile on both axes -- a single ``bincount`` scatter;
- an object **covers** the contiguous (possibly empty) block of tiles whose
  boundary lines its footprint covers on both axes -- difference array
  again.

``overlap = intersect - within - covers`` and
``disjoint = |S| - intersect`` tile-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cube.difference import DifferenceArray
from repro.datasets.base import RectDataset
from repro.euler.estimates import Level2Counts
from repro.geometry.snapping import snap_rects
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

__all__ = ["TilingCounts", "exact_tiling_counts"]


@dataclass(frozen=True)
class TilingCounts:
    """Exact per-tile Level-2 counts over a complete tiling.

    Arrays are indexed ``[tile_x, tile_y]`` with shape
    ``(n1 // tile_w, n2 // tile_h)``.
    """

    tile_w: int
    tile_h: int
    n_d: np.ndarray
    n_cs: np.ndarray
    n_cd: np.ndarray
    n_o: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_d.shape

    @property
    def num_tiles(self) -> int:
        return int(self.n_d.size)

    def counts_at(self, tile_x: int, tile_y: int) -> Level2Counts:
        """Counts of one tile as a :class:`Level2Counts`."""
        return Level2Counts(
            n_d=float(self.n_d[tile_x, tile_y]),
            n_cs=float(self.n_cs[tile_x, tile_y]),
            n_cd=float(self.n_cd[tile_x, tile_y]),
            n_o=float(self.n_o[tile_x, tile_y]),
        )

    def query_at(self, tile_x: int, tile_y: int) -> TileQuery:
        """The tile's cell-span query."""
        return TileQuery(
            tile_x * self.tile_w,
            (tile_x + 1) * self.tile_w,
            tile_y * self.tile_h,
            (tile_y + 1) * self.tile_h,
        )


def _covered_tile_range(
    cell_lo: np.ndarray, cell_hi: np.ndarray, tile: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per object, the inclusive tile-index range the object *covers* on
    one axis: tiles ``T`` with ``T*tile > cell_lo`` and
    ``(T+1)*tile <= cell_hi + 1`` -- i.e. the object's footprint covers
    both boundary lines of the tile.  Ranges may be empty (lo > hi)."""
    t_lo = (cell_lo + tile) // tile          # ceil((cell_lo + 1) / tile)
    t_hi = cell_hi // tile - 1               # floor(cell_hi / tile) - 1
    return t_lo, t_hi


def exact_tiling_counts(dataset: RectDataset, grid: Grid, tile_w: int, tile_h: int) -> TilingCounts:
    """Exact counts for the complete ``tile_w x tile_h`` tiling of ``grid``.

    Tile sizes must divide the grid (the paper's ``Q_n`` sets satisfy this:
    every n in {20,18,15,12,10,9,6,5,4,3,2} divides both 360 and 180).
    """
    if tile_w < 1 or tile_h < 1:
        raise ValueError("tile dimensions must be positive")
    if grid.n1 % tile_w or grid.n2 % tile_h:
        raise ValueError(
            f"tiling {tile_w}x{tile_h} does not divide the {grid.n1}x{grid.n2} grid"
        )
    tiles_x, tiles_y = grid.n1 // tile_w, grid.n2 // tile_h
    shape = (tiles_x, tiles_y)

    a_lo, a_hi, b_lo, b_hi = snap_rects(
        grid.to_cell_units_x(dataset.x_lo),
        grid.to_cell_units_x(dataset.x_hi),
        grid.to_cell_units_y(dataset.y_lo),
        grid.to_cell_units_y(dataset.y_hi),
        grid.n1,
        grid.n2,
    )
    cell_lo_x, cell_hi_x = a_lo // 2, a_hi // 2
    cell_lo_y, cell_hi_y = b_lo // 2, b_hi // 2

    # intersect: the object's cell block, mapped to tiles.
    tx_lo, tx_hi = cell_lo_x // tile_w, cell_hi_x // tile_w
    ty_lo, ty_hi = cell_lo_y // tile_h, cell_hi_y // tile_h
    intersect_acc = DifferenceArray(shape)
    intersect_acc.add_boxes((tx_lo, ty_lo), (tx_hi, ty_hi))
    n_intersect = intersect_acc.materialize()

    # within: objects whose block is a single tile on both axes.
    one_tile = (tx_lo == tx_hi) & (ty_lo == ty_hi)
    n_cs = np.bincount(
        tx_lo[one_tile] * tiles_y + ty_lo[one_tile], minlength=tiles_x * tiles_y
    ).reshape(shape)

    # covers: the contiguous tile block whose boundaries the object covers.
    cx_lo, cx_hi = _covered_tile_range(cell_lo_x, cell_hi_x, tile_w)
    cy_lo, cy_hi = _covered_tile_range(cell_lo_y, cell_hi_y, tile_h)
    covering = (cx_lo <= cx_hi) & (cy_lo <= cy_hi)
    n_cd_acc = DifferenceArray(shape)
    if np.any(covering):
        n_cd_acc.add_boxes((cx_lo[covering], cy_lo[covering]), (cx_hi[covering], cy_hi[covering]))
    n_cd = n_cd_acc.materialize()

    n_o = n_intersect - n_cs - n_cd
    n_d = len(dataset) - n_intersect
    return TilingCounts(tile_w=tile_w, tile_h=tile_h, n_d=n_d, n_cs=n_cs, n_cd=n_cd, n_o=n_o)
