"""Incremental viewport deltas: reuse overlapping tiles across interactions.

A browsing *session* (Figure 1's loop) is a sequence of rasters whose
viewports overlap heavily: the user pans by a few tile rows, re-tiles the
same region, or bounces back to a previous view.  Recomputing every tile
of every raster throws that overlap away; the tile cache (PR 4) recovers
exact tile revisits but still pays a probe-and-merge round trip through
the shared cache for what is, per session, a purely local phenomenon --
*this* raster is almost the same as *the previous one*.

This module answers the overlap directly.  Given the previous
:class:`~repro.browse.service.BrowseResult` and a new request, it decides
whether the two rasters are **tile-compatible** and, when they are, maps
every new tile that coincides with a previously answered tile onto its
source so the service can copy those counts and estimate only the fresh
band.  The predicate is deliberately strict -- reuse must be *bit
identical* to full recomputation, never approximate:

- **Same answering scope.**  The previous raster must have been answered
  by the same estimator over the same summary object *at the same
  generation* and for the same relation field.  The scope rides on every
  result as a :class:`~repro.cache.CacheKey` (``BrowseResult.scope``), so
  a maintained histogram's insert/delete bumps the generation and
  disables reuse -- stale counts are never copied, exactly like the tile
  cache's generation invalidation.
- **Same tile extents in cell units.**  Both rasters' tiles must span
  ``tile_w x tile_h`` cells.  Counts of coarser or finer tiles cannot be
  derived from each other (the Level-2 relations are not additive over
  tile unions), so only identical tile geometry is ever reused.
- **Lattice-aligned offset.**  The new region's origin must differ from
  the previous one by whole tiles (``k * tile_w`` / ``k * tile_h``
  cells).  Then new tile ``(r, c)`` occupies exactly the cells of
  previous tile ``(r + dr, c + dc)`` -- the same :class:`TileQuery` --
  and a deterministic estimator gives it the same count by definition.

Tiles outside the overlap, tiles the previous raster never answered
(deadline NaNs) and tiles a pyramid level served (``previous.levels``)
are excluded from the mapping; they fall through to the normal serving
path (cache probe, then estimation).

:class:`DeltaTracker` is the per-service memory that makes this
hands-free: it remembers the last result per *session key* so a service
can answer ``browse(..., session="user-42")`` incrementally without the
client threading results back in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cache.keys import CacheKey
from repro.grid.tiles_math import TileQuery

__all__ = ["DeltaPlan", "DeltaTracker", "plan_delta"]


@dataclass(frozen=True)
class DeltaPlan:
    """The tile mapping from a previous raster onto a new one.

    ``reused`` is the new raster's flat (row-major) boolean mask of tiles
    answerable by copying.  Two copy representations exist:

    - ``block`` (the common case -- every tile of the previous raster
      was answered at full resolution): the overlap is one contiguous
      rectangle, recorded as ``(r0, r1, c0, c1, dr, dc)`` -- new raster
      rows ``r0:r1`` x cols ``c0:c1`` copy from the previous raster
      shifted by ``(dr, dc)``.  :meth:`fill` is then two strided slice
      views and one memcpy, no index arrays.
    - ``source`` (set when the previous raster left tiles unanswered or
      pyramid-served): for each flat position the flat index of the
      matching previous tile, applied by fancy indexing where ``reused``
      is ``True``.
    """

    shape: tuple[int, int]
    reused: np.ndarray
    source: np.ndarray | None = None
    block: tuple[int, int, int, int, int, int] | None = None

    @property
    def n_reused(self) -> int:
        """Number of tiles the plan copies from the previous raster."""
        if self.block is not None:
            r0, r1, c0, c1, _, _ = self.block
            return (r1 - r0) * (c1 - c0)
        return int(np.count_nonzero(self.reused))

    def fill(self, counts_flat: np.ndarray, previous_counts: np.ndarray) -> None:
        """Copy the reused tiles' counts out of ``previous_counts`` (the
        previous raster, 2-D) into the new flat counts array."""
        if self.block is not None:
            r0, r1, c0, c1, dr, dc = self.block
            counts_flat.reshape(self.shape)[r0:r1, c0:c1] = previous_counts[
                r0 + dr : r1 + dr, c0 + dc : c1 + dc
            ]
        else:
            counts_flat[self.reused] = previous_counts.reshape(-1)[
                self.source[self.reused]
            ]


def _tile_extent(region: TileQuery, rows: int, cols: int) -> tuple[int, int] | None:
    """The raster's per-tile cell extent, or ``None`` when the partition
    does not divide the region (the batch builder raises for those)."""
    if rows < 1 or cols < 1 or region.width % cols or region.height % rows:
        return None
    return region.width // cols, region.height // rows


def plan_delta(
    previous,
    region: TileQuery,
    rows: int,
    cols: int,
    scope: CacheKey,
) -> DeltaPlan | None:
    """Plan tile reuse from ``previous`` (a ``BrowseResult``) for a new
    ``rows x cols`` raster over ``region`` answered under ``scope``.

    Returns ``None`` when the rasters are not tile-compatible (different
    scope, tile extents or a misaligned offset) or when no previously
    answered tile lands inside the new raster; otherwise the
    :class:`DeltaPlan` mapping every reusable tile to its source.
    """
    if previous.scope != scope:
        return None
    extent = _tile_extent(region, rows, cols)
    prev_rows, prev_cols = previous.counts.shape
    prev_extent = _tile_extent(previous.region, prev_rows, prev_cols)
    if extent is None or prev_extent is None or extent != prev_extent:
        return None
    tile_w, tile_h = extent
    dx_cells = region.qx_lo - previous.region.qx_lo
    dy_cells = region.qy_lo - previous.region.qy_lo
    if dx_cells % tile_w or dy_cells % tile_h:
        return None

    # New tile (r, c) covers the cells of previous tile (r + dr, c + dc);
    # the tiles with an in-bounds source form one contiguous rectangle.
    dr = dy_cells // tile_h
    dc = dx_cells // tile_w
    r0, r1 = max(0, -dr), min(rows, prev_rows - dr)
    c0, c1 = max(0, -dc), min(cols, prev_cols - dc)
    if r0 >= r1 or c0 >= c1:
        return None

    # Only copy tiles the previous raster answered at full resolution:
    # finite counts, marked valid and not served from a pyramid level.
    # When the previous raster is all of that, the whole overlap
    # rectangle is reusable and the plan is a pure block copy -- no
    # per-tile index arrays.
    if (
        previous.valid is None
        and previous.levels is None
        and bool(np.isfinite(previous.counts).all())
    ):
        reused = np.zeros((rows, cols), dtype=bool)
        reused[r0:r1, c0:c1] = True
        return DeltaPlan(
            shape=(rows, cols),
            reused=reused.reshape(-1),
            block=(r0, r1, c0, c1, dr, dc),
        )

    src_r = np.arange(rows, dtype=np.intp) + dr
    src_c = np.arange(cols, dtype=np.intp) + dc
    reused = np.logical_and.outer(
        (src_r >= 0) & (src_r < prev_rows), (src_c >= 0) & (src_c < prev_cols)
    )
    source = (
        np.clip(src_r, 0, prev_rows - 1)[:, None] * prev_cols
        + np.clip(src_c, 0, prev_cols - 1)[None, :]
    )
    answered = np.isfinite(previous.counts.reshape(-1))
    if previous.valid is not None:
        answered &= previous.valid.reshape(-1)
    if previous.levels is not None:
        answered &= previous.levels.reshape(-1) < 0
    reused &= answered[source]
    if not reused.any():
        return None
    return DeltaPlan(
        shape=(rows, cols), reused=reused.reshape(-1), source=source.reshape(-1)
    )


class DeltaTracker:
    """Thread-safe per-session memory of the last answered raster.

    A browsing service holding a tracker remembers each session's most
    recent :class:`~repro.browse.service.BrowseResult` and plans delta
    reuse against it on the session's next request.  Sessions are
    LRU-bounded: once ``max_sessions`` distinct keys are live, the least
    recently touched session's history is dropped (its next request is
    simply answered cold).
    """

    def __init__(self, max_sessions: int = 256) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self._max_sessions = max_sessions
        self._lock = threading.Lock()
        self._last: OrderedDict[str, object] = OrderedDict()

    def __len__(self) -> int:
        """Number of sessions with a remembered raster."""
        with self._lock:
            return len(self._last)

    def lookup(self, session: str):
        """The session's last result (refreshing its LRU slot), or
        ``None`` for a new or evicted session."""
        with self._lock:
            result = self._last.get(session)
            if result is not None:
                self._last.move_to_end(session)
            return result

    def remember(self, session: str, result) -> None:
        """Record the session's newest result, evicting the least
        recently used session over the bound."""
        with self._lock:
            self._last[session] = result
            self._last.move_to_end(session)
            while len(self._last) > self._max_sessions:
                self._last.popitem(last=False)

    def forget(self, session: str) -> None:
        """Drop one session's history (no-op when absent)."""
        with self._lock:
            self._last.pop(session, None)

    def clear(self) -> None:
        """Drop every session's history."""
        with self._lock:
            self._last.clear()
