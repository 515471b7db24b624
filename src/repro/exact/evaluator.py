"""Vectorised exact Level-2 evaluation, one query at a time.

Classifies every object against an aligned query with four lattice-span
comparisons per axis and counts each relation.  This is the ground truth
every approximation is scored against, and (run over a whole tile set) the
reference the O(M) tiling evaluator is cross-tested with.

Lattice-span predicates (see :mod:`repro.geometry.snapping` for why these
are exactly the open-object/closed-query semantics), on every axis:

- interiors intersect:  ``a_lo <= 2*qx_hi - 2  and  a_hi >= 2*qx_lo``
- object within query:  ``a_lo >= 2*qx_lo  and  a_hi <= 2*qx_hi - 2``
- object covers query:  ``a_lo <= 2*qx_lo - 1  and  a_hi >= 2*qx_hi - 1``,
  i.e. the object's footprint covers the query's boundary lines.

The scalar path serves any dimension (:meth:`ExactEvaluator.from_boxes`
on a :class:`~repro.grid.grid_nd.GridND`); the batch paths are 2-d.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.base import RectDataset
from repro.euler.estimates import Level2Counts, Level2CountsBatch
from repro.geometry.snapping import snap_rects
from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND
from repro.grid.tiles_math import TileQuery, TileQueryBatch

__all__ = ["ExactEvaluator"]

#: Upper bound on the object x query comparison matrix held at once by
#: :meth:`ExactEvaluator.estimate_batch` (elements, not bytes).
_BATCH_CHUNK_ELEMENTS = 16_000_000


class ExactEvaluator:
    """Exact Level-2 counts at grid resolution.

    The constructor snaps the whole dataset once; each query is then a
    handful of vectorised comparisons over the snapped columns (O(M) per
    query -- exactness at the price Theorem 3.1 says cannot be avoided in
    sub-quadratic space with constant query time).
    """

    def __init__(self, dataset: RectDataset, grid: Grid) -> None:
        self._grid = grid
        self._num_objects = len(dataset)
        a_lo, a_hi, b_lo, b_hi = snap_rects(
            grid.to_cell_units_x(dataset.x_lo),
            grid.to_cell_units_x(dataset.x_hi),
            grid.to_cell_units_y(dataset.y_lo),
            grid.to_cell_units_y(dataset.y_hi),
            grid.n1,
            grid.n2,
        )
        #: Snapped lattice spans, one column per axis on each side.
        self._lo, self._hi = (a_lo, b_lo), (a_hi, b_hi)

    @classmethod
    def from_boxes(cls, grid: GridND, lows: np.ndarray, highs: np.ndarray) -> "ExactEvaluator":
        """Exact counts for ``(M, d)`` world-coordinate boxes on a
        d-dimensional grid, snapped like :meth:`EulerHistogram.from_boxes`
        (:meth:`GridND.snap_boxes`).  Only the scalar path answers d != 2."""
        self = cls.__new__(cls)
        self._grid = grid
        self._lo, self._hi = grid.snap_boxes(lows, highs)
        self._num_objects = len(self._lo[0])
        return self

    @property
    def name(self) -> str:
        return "Exact"

    @property
    def grid(self) -> Grid | GridND:
        return self._grid

    @property
    def num_objects(self) -> int:
        return self._num_objects

    def masks(
        self, query: TileQuery | BoxQuery
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boolean object masks ``(intersects, within, covers)`` for one
        query -- the building blocks of :meth:`estimate`, exposed for tests
        and for drill-down use (e.g. listing the objects behind a tile)."""
        query.validate_against(self._grid)
        # In-place ANDs: no temporary per predicate on the O(M) scan.
        intersects = np.ones(self._num_objects, dtype=bool)
        within = intersects.copy()
        covers = intersects.copy()
        for lo, hi, q_lo, q_hi in zip(self._lo, self._hi, query.lo, query.hi):
            intersects &= lo <= 2 * q_hi - 2
            intersects &= hi >= 2 * q_lo
            within &= lo >= 2 * q_lo
            within &= hi <= 2 * q_hi - 2
            covers &= lo <= 2 * q_lo - 1
            covers &= hi >= 2 * q_hi - 1
        return intersects, within, covers

    def estimate(self, query: TileQuery | BoxQuery) -> Level2Counts:
        """Exact counts (the estimator protocol's method name is kept so
        the exact evaluator can stand in anywhere an estimator is used)."""
        intersects, within, covers = self.masks(query)
        n_int = int(np.count_nonzero(intersects))
        n_cs = int(np.count_nonzero(within))
        n_cd = int(np.count_nonzero(covers))
        return Level2Counts(
            n_d=float(self._num_objects - n_int),
            n_cs=float(n_cs),
            n_cd=float(n_cd),
            n_o=float(n_int - n_cs - n_cd),
        )

    def estimate_batch(self, queries: TileQueryBatch) -> Level2CountsBatch:
        """Exact counts for a whole query batch.

        Broadcasts the snapped object columns against chunks of the query
        corner arrays (chunk size bounded so the intermediate boolean
        matrix stays small) and reduces each relation along the object
        axis.  Still O(M) work per query -- exactness has no free lunch
        (Theorem 3.1) -- but the per-query Python interpreter cost of the
        scalar loop is gone, which is most of the wall clock at browsing
        batch sizes.
        """
        queries.validate_against(self._grid)
        n = len(queries)
        m = max(self._num_objects, 1)
        chunk = max(_BATCH_CHUNK_ELEMENTS // m, 1)

        n_int = np.empty(n, dtype=np.int64)
        n_cs = np.empty(n, dtype=np.int64)
        n_cd = np.empty(n, dtype=np.int64)
        a_lo = self._lo[0][:, None]
        a_hi = self._hi[0][:, None]
        b_lo = self._lo[1][:, None]
        b_hi = self._hi[1][:, None]
        for start in range(0, n, chunk):
            sl = slice(start, min(start + chunk, n))
            ax_lo = 2 * queries.qx_lo[None, sl]
            ax_hi = 2 * queries.qx_hi[None, sl] - 2
            bx_lo = 2 * queries.qy_lo[None, sl]
            bx_hi = 2 * queries.qy_hi[None, sl] - 2

            intersects = (
                (a_lo <= ax_hi) & (a_hi >= ax_lo) & (b_lo <= bx_hi) & (b_hi >= bx_lo)
            )
            within = (
                (a_lo >= ax_lo) & (a_hi <= ax_hi) & (b_lo >= bx_lo) & (b_hi <= bx_hi)
            )
            covers = (
                (a_lo <= ax_lo - 1)
                & (a_hi >= ax_hi + 1)
                & (b_lo <= bx_lo - 1)
                & (b_hi >= bx_hi + 1)
            )
            n_int[sl] = np.count_nonzero(intersects, axis=0)
            n_cs[sl] = np.count_nonzero(within, axis=0)
            n_cd[sl] = np.count_nonzero(covers, axis=0)

        n_o = n_int - n_cs - n_cd
        return Level2CountsBatch(
            n_d=(self._num_objects - n_int).astype(np.float64),
            n_cs=n_cs.astype(np.float64),
            n_cd=n_cd.astype(np.float64),
            n_o=n_o.astype(np.float64),
        )

    def intersection_counts(self, queries: TileQueryBatch) -> np.ndarray:
        """Per-query intersecting-object counts, intersect predicate only.

        The single-dataset row of :meth:`region_intersections_batch`;
        equal to ``estimate_batch(queries).n_intersect`` but int64 and
        roughly 3x cheaper (the within/covers predicates are skipped).
        """
        return self.region_intersections_batch([self], queries)[0]

    @staticmethod
    def region_intersections_batch(
        evaluators: "Sequence[ExactEvaluator]", queries: TileQueryBatch
    ) -> np.ndarray:
        """Intersecting-object counts for every (dataset, query) pair.

        The ground-truth kernel of join-search accuracy evaluation:
        given ``D`` evaluators sharing one grid and ``Q`` aligned
        queries, returns a ``(D, Q)`` int64 matrix whose ``(d, q)``
        entry is the number of objects of dataset ``d`` whose interior
        intersects query ``q`` -- exactly
        ``count_nonzero(evaluators[d].masks(queries[q])[0])``, the
        scalar path the parity tests pin this to.

        All datasets' snapped columns are concatenated once and the
        intersect predicate is evaluated over (object x query) chunks
        bounded like :meth:`estimate_batch`'s, then segment-reduced per
        dataset -- one pass instead of ``D`` scalar loops, which keeps
        truth evaluation out of the benchmark's hot-path timings.
        """
        evaluators = list(evaluators)
        if not evaluators:
            return np.zeros((0, len(queries)), dtype=np.int64)
        grid = evaluators[0]._grid
        for ev in evaluators[1:]:
            if ev._grid != grid:
                raise ValueError(
                    "all evaluators must share one grid, got "
                    f"{ev._grid.n1}x{ev._grid.n2} alongside {grid.n1}x{grid.n2}"
                )
        queries.validate_against(grid)

        sizes = np.array([ev._num_objects for ev in evaluators], dtype=np.intp)
        offsets = np.zeros(len(evaluators), dtype=np.intp)
        np.cumsum(sizes[:-1], out=offsets[1:])
        a_lo = np.concatenate([ev._lo[0] for ev in evaluators])[:, None]
        a_hi = np.concatenate([ev._hi[0] for ev in evaluators])[:, None]
        b_lo = np.concatenate([ev._lo[1] for ev in evaluators])[:, None]
        b_hi = np.concatenate([ev._hi[1] for ev in evaluators])[:, None]

        n = len(queries)
        total = max(int(sizes.sum()), 1)
        chunk = max(_BATCH_CHUNK_ELEMENTS // total, 1)
        counts = np.zeros((len(evaluators), n), dtype=np.int64)
        nonempty = sizes > 0
        for start in range(0, n, chunk):
            sl = slice(start, min(start + chunk, n))
            ax_lo = 2 * queries.qx_lo[None, sl]
            ax_hi = 2 * queries.qx_hi[None, sl] - 2
            bx_lo = 2 * queries.qy_lo[None, sl]
            bx_hi = 2 * queries.qy_hi[None, sl] - 2
            intersects = (
                (a_lo <= ax_hi) & (a_hi >= ax_lo) & (b_lo <= bx_hi) & (b_hi >= bx_lo)
            )
            # reduceat over bool would OR, and an empty dataset's segment
            # would echo its neighbour's first row -- cast and mask out.
            segments = np.add.reduceat(
                intersects.astype(np.int64), offsets[nonempty], axis=0
            )
            counts[nonempty, sl] = segments
        return counts
