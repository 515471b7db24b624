"""Progressive pyramid refinement: coarse-first rasters for browsing.

The paper frames browsing as summary information "at various resolutions"
(Section 1); GeoBlocks-style block hierarchies show why that matters
operationally: a zoomed-out viewport answered from a pre-aggregated
coarse level costs a fraction of the fine-grid work, and the answer can
then *refine* level-by-level as budget allows.  This module is the
serving-path face of :class:`~repro.euler.pyramid.HistogramPyramid`:

- :meth:`PyramidSource.plan` turns one browse request into a ladder of
  :class:`RefinementStep`\\ s, coarsest first -- for each pyramid level
  that aligns the requested region, the finest ``rows_k x cols_k`` tiling
  that still divides the requested ``rows x cols`` raster evenly (so a
  coarse tile's count broadcasts onto a whole block of fine tiles).
  Steps at the full requested resolution are excluded on purpose: the
  authoritative answer always comes from the service's estimator on the
  finest grid, never from the pyramid.
- :meth:`PyramidSource.raster` answers one step: a vectorised tile batch
  on the step's level, broadcast up to the requested raster shape, plus a
  per-tile error bound (the coarse tile's intersect count -- no fine tile
  it covers can differ from the broadcast value by more than the number
  of objects touching the coarse tile).

:class:`~repro.browse.resilience.ResilientBrowsingService` uses the plan
as its one degrade path: under a deadline the coarsest step gives a
complete, valid raster almost immediately, finer steps replace it while
budget remains, and the fine chunk path overwrites whatever it reaches in
time; a chunk the estimator fails is answered from the coarsest step.
Pyramid-served tiles are coarse-but-valid: they are never written to the
tile cache, reused by viewport deltas or kept as a finished raster,
because a coarse count must not outlive the interaction that produced
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.euler.base import Level2BatchEstimator, as_batch_estimator
from repro.euler.pyramid import HistogramPyramid
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.workloads.tiles import browsing_tile_batch

__all__ = ["PyramidSource", "RefinementStep"]

#: Entries kept per request-shape memo (ladders, step tile batches).
_MEMO_CAP = 128


@dataclass(frozen=True)
class RefinementStep:
    """One rung of a refinement ladder: serve the requested region as a
    ``rows x cols`` tiling of level-``level`` cells.

    ``region`` is the requested region re-expressed as a cell span on the
    step's level grid; ``rows``/``cols`` is the coarse tiling answered at
    this step (always dividing the requested raster evenly, so each
    coarse tile broadcasts onto a rectangular block of fine tiles).
    """

    level: int
    rows: int
    cols: int
    region: TileQuery

    @property
    def tiles(self) -> int:
        """Number of coarse tiles this step estimates."""
        return self.rows * self.cols


class PyramidSource:
    """Serves browse rasters from a histogram pyramid's coarse levels.

    Parameters
    ----------
    pyramid:
        The multi-resolution summary.  Its level-0 grid is the resolution
        contract: when ``grid`` is given it must equal the pyramid's
        finest grid, which is how the resilient service guarantees the
        pyramid summarises the same space it serves.
    grid:
        The owning service's evaluation grid, for validation (optional).
    """

    def __init__(self, pyramid: HistogramPyramid, *, grid: Grid | None = None) -> None:
        self._pyramid = pyramid
        finest = pyramid.grid(0)
        if grid is not None and grid != finest:
            raise ValueError(
                f"pyramid finest grid {finest.n1}x{finest.n2} over {finest.extent} "
                f"does not match the service grid {grid.n1}x{grid.n2} over {grid.extent}"
            )
        # Batch adapters per level, built once: the hot path must not
        # re-wrap estimators per request.
        self._batches: tuple[Level2BatchEstimator, ...] = tuple(
            as_batch_estimator(pyramid.estimator(level))
            for level in range(pyramid.num_levels)
        )
        # Request-shaped memos.  Browsing traffic repeats the same
        # (viewport, raster) shapes across pans, zoom bounces and
        # refinement rounds, and both the ladder and a step's coarse tile
        # batch are pure functions of those shapes -- only the *estimates*
        # depend on the (possibly maintained) histograms, so only those
        # are recomputed per call.  Bounded FIFO; safe under the GIL (a
        # racing miss merely recomputes the same immutable value).
        self._plan_memo: dict[tuple[TileQuery, int, int], tuple[RefinementStep, ...]] = {}
        self._step_memo: dict[RefinementStep, object] = {}

    @property
    def pyramid(self) -> HistogramPyramid:
        """The backing multi-resolution summary."""
        return self._pyramid

    @property
    def grid(self) -> Grid:
        """The pyramid's finest (level-0) grid."""
        return self._pyramid.grid(0)

    def plan(self, region: TileQuery, rows: int, cols: int) -> tuple[RefinementStep, ...]:
        """The refinement ladder for one browse request, coarsest first.

        ``region`` is the requested region as a cell span on the finest
        grid.  For every pyramid level whose grid aligns the region, the
        step tiles it ``gcd(rows, height_k) x gcd(cols, width_k)`` -- the
        finest tiling that both the level can answer with aligned queries
        and the requested raster can absorb by block broadcast.  Steps
        are kept only when strictly coarser than the requested resolution
        (the service's estimator owns the finest answer) and strictly finer
        than the previous kept step (each round must add information).
        Returns an empty ladder when no level helps.
        """
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        memo_key = (region, rows, cols)
        cached = self._plan_memo.get(memo_key)
        if cached is not None:
            return cached
        world = region.to_world(self.grid)
        steps: list[RefinementStep] = []
        last_tiles = 0
        for level in range(self._pyramid.num_levels - 1, -1, -1):
            grid_k = self._pyramid.grid(level)
            if not grid_k.is_aligned(world):
                continue
            x_lo, x_hi, y_lo, y_hi = grid_k.rect_to_cell_units(world)
            width = round(x_hi - x_lo)
            height = round(y_hi - y_lo)
            rows_k = math.gcd(rows, height)
            cols_k = math.gcd(cols, width)
            tiles_k = rows_k * cols_k
            if tiles_k >= rows * cols or tiles_k <= last_tiles:
                continue
            steps.append(
                RefinementStep(
                    level=level,
                    rows=rows_k,
                    cols=cols_k,
                    region=TileQuery(
                        round(x_lo), round(x_hi), round(y_lo), round(y_hi)
                    ),
                )
            )
            last_tiles = tiles_k
        if len(self._plan_memo) >= _MEMO_CAP:
            self._plan_memo.pop(next(iter(self._plan_memo)), None)
        ladder = tuple(steps)
        self._plan_memo[memo_key] = ladder
        return ladder

    def raster(
        self, step: RefinementStep, rows: int, cols: int, field_name: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Answer one refinement step at the requested raster shape.

        Returns ``(counts, bound)``, both ``rows x cols`` float64: the
        coarse counts broadcast onto the fine tiles each coarse tile
        covers, and the per-tile error bound -- the coarse tile's
        intersect count, since a fine tile's count for any relation can
        differ from the broadcast value by at most the number of objects
        touching the covering coarse tile (for *disjoint* the same bound
        follows from the total identity ``n_d = |S| - n_intersect``).
        The bound is on the pyramid's estimates, which inherit the level
        histogram's aligned-query guarantees.
        """
        batch = self._step_memo.get(step)
        if batch is None:
            batch = browsing_tile_batch(step.region, step.rows, step.cols)
            if len(self._step_memo) >= _MEMO_CAP:
                self._step_memo.pop(next(iter(self._step_memo)), None)
            self._step_memo[step] = batch
        estimates = self._batches[step.level].estimate_batch(batch)
        coarse = np.asarray(
            getattr(estimates, field_name), dtype=np.float64
        ).reshape(step.rows, step.cols)
        coarse_bound = np.maximum(
            np.asarray(estimates.n_intersect, dtype=np.float64), 0.0
        ).reshape(step.rows, step.cols)
        # Project the estimate into its feasible interval: a count of
        # objects *touching* the tile cannot leave [0, n_intersect], so
        # clamping only improves the estimate -- and it is what makes the
        # published bound hold unconditionally (two values in [0, B]
        # differ by at most B) even when the level estimator's raw answer
        # drifts a unit outside the interval.  Disjoint counts live near
        # |S| via the identity n_d = |S| - n_intersect, not inside the
        # interval, so they are exempt (their bound follows from the
        # identity and the exactness of aligned intersect counts).
        if field_name != "n_d":
            np.clip(coarse, 0.0, coarse_bound, out=coarse)
        r_factor = rows // step.rows
        c_factor = cols // step.cols
        counts = np.repeat(np.repeat(coarse, r_factor, axis=0), c_factor, axis=1)
        bound = np.repeat(np.repeat(coarse_bound, r_factor, axis=0), c_factor, axis=1)
        return counts, bound
