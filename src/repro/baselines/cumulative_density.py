"""The Cumulative Density (CD) algorithm of Jin, An & Sivasubramaniam
(ICDE'00), as characterised in Section 2 of the paper: a grid-based
histogram family that answers Level-1 *intersect* queries, exactly when the
query aligns with the grid.

CD keeps four corner histograms over the grid cells -- per cell, the number
of objects whose snapped footprint starts/ends there along each axis -- and
counts the *disjoint* objects by inclusion-exclusion over the four "object
entirely to one side of the query" events:

.. math::

    N_{disjoint} = L + R + B + A - LB - LA - RB - RA

where L/R/B/A are "entirely left/right/below/above" (pairs on the same
axis are impossible).  Each term is one prefix-sum box over a corner
histogram, so a query is O(1).  ``intersect = |S| - disjoint``.

The class exists as the Level-1 baseline of the evaluation: it matches the
Euler histogram's intersect counts bucket-exactly (cross-tested) while
offering no path to Level-2 relations -- the gap the paper's contribution
fills.
"""

from __future__ import annotations

from repro.cube.difference import DifferenceArray
from repro.cube.prefix_sum import PrefixSumCube
from repro.datasets.base import RectDataset
from repro.geometry.snapping import snap_rects
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

__all__ = ["CumulativeDensity"]


def _corner_cube(xs, ys, shape: tuple[int, int]) -> PrefixSumCube:
    acc = DifferenceArray(shape)
    if len(xs):
        acc.add_boxes((xs, ys), (xs, ys))
    return PrefixSumCube(acc.materialize())


class CumulativeDensity:
    """Four-corner-histogram intersect counter (exact for aligned queries).
    """

    def __init__(self, dataset: RectDataset, grid: Grid) -> None:
        self._grid = grid
        self._num_objects = len(dataset)
        shape = (grid.n1, grid.n2)
        a_lo, a_hi, b_lo, b_hi = snap_rects(
            grid.to_cell_units_x(dataset.x_lo),
            grid.to_cell_units_x(dataset.x_hi),
            grid.to_cell_units_y(dataset.y_lo),
            grid.to_cell_units_y(dataset.y_hi),
            grid.n1,
            grid.n2,
        )
        sx, ex = a_lo // 2, a_hi // 2  # first/last touched cell per axis
        sy, ey = b_lo // 2, b_hi // 2
        # Corner histograms, named by the (x coordinate, y coordinate)
        # they bin: end/end is the object's upper-right corner cell, etc.
        self._h_ee = _corner_cube(ex, ey, shape)
        self._h_es = _corner_cube(ex, sy, shape)
        self._h_se = _corner_cube(sx, ey, shape)
        self._h_ss = _corner_cube(sx, sy, shape)

    @property
    def name(self) -> str:
        return "CumulativeDensity"

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def num_objects(self) -> int:
        return self._num_objects

    @property
    def num_buckets(self) -> int:
        """Four cell-grids: ``4 * n1 * n2`` -- the O(N) space that Section
        3 contrasts with the contains lower bound."""
        return 4 * self._grid.num_cells

    def disjoint_count(self, query: TileQuery) -> int:
        """Objects whose interiors miss the query's interior."""
        query.validate_against(self._grid)
        n1, n2 = self._grid.n1, self._grid.n2
        lx = query.qx_lo - 1   # "entirely left": end-x cell <= lx
        rx = query.qx_hi       # "entirely right": start-x cell >= rx
        by = query.qy_lo - 1
        ay = query.qy_hi

        left = self._h_ee.range_sum_2d(0, lx, 0, n2 - 1)
        right = self._h_ss.range_sum_2d(rx, n1 - 1, 0, n2 - 1)
        below = self._h_ee.range_sum_2d(0, n1 - 1, 0, by)
        above = self._h_ss.range_sum_2d(0, n1 - 1, ay, n2 - 1)
        lb = self._h_ee.range_sum_2d(0, lx, 0, by)
        la = self._h_es.range_sum_2d(0, lx, ay, n2 - 1)
        rb = self._h_se.range_sum_2d(rx, n1 - 1, 0, by)
        ra = self._h_ss.range_sum_2d(rx, n1 - 1, ay, n2 - 1)
        return int(left + right + below + above - lb - la - rb - ra)

    def intersect_count(self, query: TileQuery) -> int:
        """Exact Level-1 intersect count for an aligned query."""
        return self._num_objects - self.disjoint_count(query)
