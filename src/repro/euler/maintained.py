"""A maintained (updatable) Euler histogram.

The paper builds its histograms in one offline pass; a deployed browsing
service also needs inserts and deletes as the catalogue changes.  Because
every query the estimators issue is a *linear* functional of the bucket
array, maintenance can be layered without touching the algorithms:

- a **base** :class:`~repro.euler.histogram.EulerHistogram` holds the bulk
  of the data behind its prefix-sum cube;
- updates accumulate in a **pending delta** of snapped footprints, stored
  as structure-of-arrays columns (:class:`_PendingSpans`) so query-time
  folding is numpy broadcasting, never a Python loop per span;
- a region sum is the base cube's answer plus each pending footprint's
  closed-form contribution, which is O(1) per pending object: the signed
  sum of an axis-aligned coverage box over an axis-aligned lattice box
  factors per axis into ``+1`` (odd-length overlap starting on a face
  coordinate), ``-1`` (odd length starting on an edge coordinate) or
  ``0`` (even length);
- when the delta grows past ``merge_threshold``, it is folded into a
  rebuilt base (one vectorised difference-array scatter for the whole
  delta plus an O(buckets) pass), keeping query cost bounded.

:class:`MaintainedEulerHistogram` exposes the same query surface as
:class:`EulerHistogram`, so ``SEulerApprox(MaintainedEulerHistogram(...))``
and friends work unchanged -- verified in
``tests/euler/test_maintained.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.base import RectDataset
from repro.errors import SummaryCorruptError
from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder, RegionSums
from repro.geometry.rect import Rect
from repro.geometry.snapping import LatticeSpan, snap_rect
from repro.grid.grid import Grid
from repro.obs.instruments import record_persistence_event

__all__ = ["MaintainedEulerHistogram"]


def _axis_factor(span_lo: int, span_hi: int, box_lo: int, box_hi: int) -> int:
    """Signed sum of one axis of a footprint restricted to a lattice box.

    The alternating lattice sign along one axis is ``+1`` on even (cell)
    coordinates and ``-1`` on odd (grid-line) coordinates; summed over the
    overlap ``[max(lo), min(hi)]`` this telescopes to 0 for even overlap
    lengths and to the sign of the first overlapped coordinate otherwise.
    """
    lo = max(span_lo, box_lo)
    hi = min(span_hi, box_hi)
    if hi < lo:
        return 0
    if (hi - lo + 1) % 2 == 0:
        return 0
    return 1 if lo % 2 == 0 else -1


def _axis_factor_batch(span_lo, span_hi, box_lo, box_hi) -> np.ndarray:
    """Vectorised :func:`_axis_factor` under numpy broadcasting.

    The factor is symmetric in its two intervals, so either side may be
    the array: scalar span against a batch of query boxes, a column of
    pending spans against one scalar box, or a ``(P, 1)`` span column
    against a ``(Q,)`` query batch for an all-pairs ``(P, Q)`` matrix.
    """
    lo = np.maximum(span_lo, box_lo)
    hi = np.minimum(span_hi, box_hi)
    length = hi - lo + 1
    sign = np.where(lo % 2 == 0, 1, -1)
    return np.where((length > 0) & (length % 2 == 1), sign, 0)


#: Bound on elements per (pending spans x queries) factor matrix; span
#: chunks are sized so the broadcast temporaries stay a few megabytes.
_DELTA_BROADCAST_ELEMENTS = 1 << 21


class _PendingSpans:
    """Growable structure-of-arrays store of snapped pending updates.

    One ``(5, capacity)`` int64 block holding ``a_lo``/``a_hi``/``b_lo``/
    ``b_hi``/``weight`` columns, doubled on overflow.  Compared to a list
    of ``(LatticeSpan, weight)`` tuples, the query paths read the live
    columns directly and fold the whole delta with a handful of numpy
    broadcasts instead of a Python loop per span.
    """

    __slots__ = ("_data", "_n")

    def __init__(self, capacity: int = 64) -> None:
        self._data = np.empty((5, max(capacity, 1)), dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, span: LatticeSpan, weight: int) -> None:
        if self._n == self._data.shape[1]:
            self._data = np.concatenate([self._data, np.empty_like(self._data)], axis=1)
        self._data[:, self._n] = (span.a_lo, span.a_hi, span.b_lo, span.b_hi, weight)
        self._n += 1

    def clear(self) -> None:
        self._n = 0

    @property
    def columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views of the live ``(a_lo, a_hi, b_lo, b_hi, weight)`` columns."""
        live = self._data[:, : self._n]
        return live[0], live[1], live[2], live[3], live[4]

    @property
    def weight_sum(self) -> int:
        """Net weight of the pending delta (inserts minus deletes)."""
        return int(self._data[4, : self._n].sum())


class MaintainedEulerHistogram(RegionSums):
    """An Euler histogram supporting online inserts and deletes.

    Exposes the full scalar *and* batch query surface of
    :class:`EulerHistogram`, so batch estimators work unchanged over a
    maintained histogram: batch sums are the base cube's gathers plus a
    vectorised closed-form delta per pending update.
    """

    def __init__(
        self,
        grid: Grid,
        dataset: RectDataset | None = None,
        *,
        merge_threshold: int = 1024,
    ) -> None:
        if merge_threshold < 1:
            raise ValueError("merge_threshold must be positive")
        self._grid = grid
        self._merge_threshold = merge_threshold
        self._builder = EulerHistogramBuilder(grid)
        if dataset is not None:
            self._builder.add_dataset(dataset)
        self._base: EulerHistogram = self._builder.build()
        #: Snapped pending updates (SoA columns), weights in {+1, -1}.
        self._pending = _PendingSpans()
        self._pending_objects = 0
        self._generation = 0

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def num_objects(self) -> int:
        return self._base.num_objects + self._pending_objects

    @property
    def num_buckets(self) -> int:
        return self._base.num_buckets

    @property
    def pending_updates(self) -> int:
        """Number of updates not yet merged into the base cube."""
        return len(self._pending)

    @property
    def generation(self) -> int:
        """The summary's update generation: bumped by every
        :meth:`insert`/:meth:`delete`, so any tile-cache entry keyed
        against a previous generation (:mod:`repro.cache.keys`) becomes
        unreachable the moment the histogram changes.  A :meth:`merge`
        does not bump it -- merging is a representation change with
        bit-identical query answers, so cached results stay valid."""
        return self._generation

    def insert(self, rect: Rect) -> None:
        """Add one object (world coordinates)."""
        self._apply(rect, +1)

    def delete(self, rect: Rect) -> None:
        """Remove one previously inserted object.

        The caller is responsible for only deleting objects that are in
        the histogram; the structure is a summary and cannot check.
        """
        self._apply(rect, -1)

    def _apply(self, rect: Rect, weight: int) -> None:
        if self.num_objects + weight < 0:
            raise ValueError(
                f"removing {-weight} object(s) from a histogram holding "
                f"{self.num_objects} would make the count negative"
            )
        span = snap_rect(*self._grid.rect_to_cell_units(rect), self._grid.n1, self._grid.n2)
        self._generation += 1
        self._pending.append(span, weight)
        self._pending_objects += weight
        if len(self._pending) >= self._merge_threshold:
            self.merge()

    def merge(self) -> None:
        """Fold the pending delta into a rebuilt base cube.

        The shadow builder receives the whole delta as one vectorised
        :meth:`~repro.euler.histogram.EulerHistogramBuilder.add_spans`
        scatter (not one ``add_box`` per span) and rebuilds the base.
        """
        if not len(self._pending):
            return
        a_lo, a_hi, b_lo, b_hi, weights = self._pending.columns
        self._builder.add_spans(a_lo, a_hi, b_lo, b_hi, weights)
        self._base = self._builder.build()
        self._pending.clear()
        self._pending_objects = 0

    # ------------------------------------------------------------------ #
    # the EulerHistogram query surface
    # ------------------------------------------------------------------ #

    @property
    def total_sum(self) -> int:
        return self._base.total_sum + self._pending_objects

    def lattice_range_sum(self, lo: Sequence[int], hi: Sequence[int]) -> int:
        """Inclusive lattice-box sum: base cube plus pending deltas.

        The delta is one broadcast over the pending-span columns (the
        axis factor is symmetric, so the scalar query plays the "span"
        argument) -- no Python loop per pending update.
        """
        base = self._base.lattice_range_sum(lo, hi)
        if not len(self._pending):
            return base
        p_a_lo, p_a_hi, p_b_lo, p_b_hi, weights = self._pending.columns
        factors = _axis_factor_batch(lo[0], hi[0], p_a_lo, p_a_hi) * _axis_factor_batch(
            lo[1], hi[1], p_b_lo, p_b_hi
        )
        return base + int((weights * factors).sum())

    def lattice_range_sum_batch(
        self, a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
    ) -> np.ndarray:
        """Batch inclusive lattice-box sums: base-cube gathers plus the
        pending-delta contribution as all-pairs ``(spans x queries)``
        factor broadcasts.

        Span chunks bound the broadcast temporaries
        (:data:`_DELTA_BROADCAST_ELEMENTS`); integer arithmetic makes the
        chunked accumulation bit-identical to the per-span loop it
        replaces.
        """
        sums = self._base.lattice_range_sum_batch(a_lo, a_hi, b_lo, b_hi)
        if not len(self._pending):
            return sums
        a_lo = np.asarray(a_lo)
        a_hi = np.asarray(a_hi)
        b_lo = np.asarray(b_lo)
        b_hi = np.asarray(b_hi)
        p_a_lo, p_a_hi, p_b_lo, p_b_hi, weights = self._pending.columns
        # Spans get a fresh leading axis; chunks of it cap temp memory.
        expand = (slice(None),) + (None,) * a_lo.ndim
        step = max(_DELTA_BROADCAST_ELEMENTS // max(a_lo.size, 1), 1)
        for start in range(0, len(self._pending), step):
            chunk = slice(start, start + step)
            factors = _axis_factor_batch(
                p_a_lo[chunk][expand], p_a_hi[chunk][expand], a_lo, a_hi
            ) * _axis_factor_batch(
                p_b_lo[chunk][expand], p_b_hi[chunk][expand], b_lo, b_hi
            )
            sums = sums + (weights[chunk][expand] * factors).sum(axis=0)
        return sums

    def snapshot(self) -> EulerHistogram:
        """An immutable point-in-time :class:`EulerHistogram` (merges
        pending updates first)."""
        self.merge()
        return self._base

    def verify(self) -> "MaintainedEulerHistogram":
        """Check the maintained state's invariants, returning ``self``.

        Verifies the base histogram (:meth:`EulerHistogram.verify`), the
        pending-delta bookkeeping (the pending weights sum to the pending
        object count and the shadow builder's count matches the total),
        and the maintained Euler invariant: the full-lattice sum *with
        pending deltas applied* equals the live object count.  After a
        :meth:`merge` the delta list must be empty, so the same call also
        validates post-merge consistency.  Raises
        :class:`~repro.errors.SummaryCorruptError` on any violation.
        """
        try:
            self._base.verify()
            weight_sum = self._pending.weight_sum
            if weight_sum != self._pending_objects:
                raise SummaryCorruptError(
                    f"pending weights sum to {weight_sum} but the pending object "
                    f"count is {self._pending_objects}"
                )
            if self._builder.num_objects + weight_sum != self.num_objects:
                raise SummaryCorruptError(
                    f"shadow builder holds {self._builder.num_objects} objects "
                    f"plus {weight_sum} pending but the maintained count is "
                    f"{self.num_objects}"
                )
            shape = self._grid.lattice_shape
            full_sum = self.lattice_range_sum((0, 0), (shape[0] - 1, shape[1] - 1))
            if full_sum != self.num_objects:
                raise SummaryCorruptError(
                    f"full-lattice sum {full_sum} (base + pending deltas) does not "
                    f"equal the object count {self.num_objects}"
                )
        except SummaryCorruptError:
            record_persistence_event("maintained Euler histogram", "verify", "invariant_violation")
            raise
        record_persistence_event("maintained Euler histogram", "verify", "ok")
        return self
