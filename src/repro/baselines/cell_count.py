"""The naive cell-count histogram (Figure 6's strawman).

One bucket per grid cell; every object increments every cell its interior
touches.  This is the bucket-spanning behaviour of Minskew-style
selectivity histograms (Acharya, Poosala & Ramaswamy, SIGMOD'99): "if an
object spans several histogram buckets, it is counted once in each bucket",
so a query covering several cells may count one object many times.

It is included as the motivating baseline: its ``intersect_count`` is only
an upper bound (exact only for single-cell queries), and it provably cannot
support Level-2 relations -- one big object spanning a 2x2 block and four
small per-cell objects produce identical histograms (Figure 6(a)/(b)),
demonstrated in ``tests/baselines/test_cell_count.py`` and the quickstart
example.
"""

from __future__ import annotations

import numpy as np

from repro.cube.difference import DifferenceArray
from repro.cube.prefix_sum import PrefixSumCube
from repro.datasets.base import RectDataset
from repro.geometry.snapping import snap_rects
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

__all__ = ["CellCountHistogram"]


class CellCountHistogram:
    """Per-cell multi-count histogram with prefix-sum queries."""

    def __init__(self, dataset: RectDataset, grid: Grid) -> None:
        self._grid = grid
        self._num_objects = len(dataset)
        acc = DifferenceArray((grid.n1, grid.n2))
        if len(dataset):
            a_lo, a_hi, b_lo, b_hi = snap_rects(
                grid.to_cell_units_x(dataset.x_lo),
                grid.to_cell_units_x(dataset.x_hi),
                grid.to_cell_units_y(dataset.y_lo),
                grid.to_cell_units_y(dataset.y_hi),
                grid.n1,
                grid.n2,
            )
            acc.add_boxes((a_lo // 2, b_lo // 2), (a_hi // 2, b_hi // 2))
        self._cells = acc.materialize()
        self._cube = PrefixSumCube(self._cells)

    @property
    def name(self) -> str:
        return "CellCount"

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def num_objects(self) -> int:
        return self._num_objects

    @property
    def num_buckets(self) -> int:
        return self._grid.num_cells

    def cells(self) -> np.ndarray:
        """Read-only view of the per-cell counts."""
        view = self._cells.view()
        view.setflags(write=False)
        return view

    def intersect_count(self, query: TileQuery) -> int:
        """Multi-counted intersect estimate: the sum of the query's cell
        buckets.  An upper bound on the true count; exact only when no
        intersecting object spans two of the query's cells."""
        query.validate_against(self._grid)
        return int(
            self._cube.range_sum_2d(
                query.qx_lo, query.qx_hi - 1, query.qy_lo, query.qy_hi - 1
            )
        )
