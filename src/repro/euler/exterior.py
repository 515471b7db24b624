"""The exterior histogram ``H_e`` of Section 5.3, made concrete.

The paper briefly considers a second histogram that records object
*exteriors* instead of interiors: "we can construct a histogram H_e in a
similar way as we constructed the histogram H, except that histogram H_e
keeps the information about object exteriors ... this approach also
suffers from the loophole effect ... it does not help unless the query is
of the same size as a unit cell of the grid."  The analysis is omitted
for space; this module implements ``H_e`` and the omitted analysis is in
the tests.

Construction: a lattice element gets +1 from an object iff the element is
*not contained in the object's closure* (equivalently: it intersects the
open exterior).  Complement-of-a-box indicators are not boxes, but their
sum is ``M - (closure coverage)``, so the build is one difference-array
pass like ``H``'s, and edge buckets are negated as usual.

Properties (tested in ``tests/euler/test_exterior.py``):

- for a **unit-cell query**, the inside sum of ``H_e`` is *exactly*
  ``n_ie`` (the number of objects whose exteriors meet the query
  interior): the query interior is a single face, counted once per
  object whose closure misses it;
- for **larger queries** the estimate breaks in both directions: an
  object strictly inside the query leaves a footprint with a hole (its
  own body) in the query's interior -- the loophole again -- and an
  object splitting the query interior into two exterior pieces double
  counts.  This is why the paper abandons ``H_e`` and derives the fourth
  equation from Region A/B instead.
"""

from __future__ import annotations

import numpy as np

from repro.cube.difference import DifferenceArray
from repro.cube.prefix_sum import PrefixSumCube
from repro.datasets.base import RectDataset
from repro.grid.grid import Grid
from repro.grid.lattice import lattice_sign
from repro.grid.tiles_math import TileQuery

__all__ = ["ExteriorHistogram"]


class ExteriorHistogram:
    """Section 5.3's ``H_e``: signed lattice counts of object exteriors."""

    def __init__(self, dataset: RectDataset, grid: Grid) -> None:
        self._grid = grid
        self._num_objects = len(dataset)
        shape = grid.lattice_shape

        closure_acc = DifferenceArray(shape)
        if len(dataset):
            # A lattice element escapes the object's exterior iff the
            # (shrunk, open) object strictly contains the closed element
            # -- *strict inner* snapping, the exterior-side mirror of the
            # shrinking convention (contrast the interior histogram's
            # outer snapping, where touching suffices).  Along one axis
            # the strictly-contained elements are the grid lines
            # floor(lo)+1 .. ceil(hi)-1 and the cells between them:
            # lattice range [2*(floor(lo)+1)-1, 2*(ceil(hi)-1)-1],
            # clipped, often empty (any object not strictly spanning a
            # grid line covers nothing).
            a_lo = 2 * (np.floor(grid.to_cell_units_x(dataset.x_lo)).astype(np.int64) + 1) - 1
            a_hi = 2 * (np.ceil(grid.to_cell_units_x(dataset.x_hi)).astype(np.int64) - 1) - 1
            b_lo = 2 * (np.floor(grid.to_cell_units_y(dataset.y_lo)).astype(np.int64) + 1) - 1
            b_hi = 2 * (np.ceil(grid.to_cell_units_y(dataset.y_hi)).astype(np.int64) - 1) - 1
            a_lo = np.maximum(a_lo, 0)
            b_lo = np.maximum(b_lo, 0)
            a_hi = np.minimum(a_hi, shape[0] - 1)
            b_hi = np.minimum(b_hi, shape[1] - 1)
            covering = (a_lo <= a_hi) & (b_lo <= b_hi)
            if np.any(covering):
                closure_acc.add_boxes(
                    (a_lo[covering], b_lo[covering]), (a_hi[covering], b_hi[covering])
                )
        closure_coverage = closure_acc.materialize()
        exterior_coverage = self._num_objects - closure_coverage
        signed = exterior_coverage * lattice_sign(shape)
        self._cube = PrefixSumCube(signed)

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def num_objects(self) -> int:
        return self._num_objects

    def inside_sum(self, query: TileQuery) -> int:
        """Sum of the ``H_e`` buckets strictly inside the query -- the
        candidate ``n_ie`` estimate the paper evaluates and rejects."""
        query.validate_against(self._grid)
        return int(
            self._cube.range_sum_2d(
                2 * query.qx_lo, 2 * query.qx_hi - 2, 2 * query.qy_lo, 2 * query.qy_hi - 2
            )
        )

    def n_ie_unit_cell(self, cell_x: int, cell_y: int) -> int:
        """Exact ``n_ie`` for a unit-cell query (the one case ``H_e``
        answers exactly)."""
        return self.inside_sum(TileQuery(cell_x, cell_x + 1, cell_y, cell_y + 1))
