"""The Euler histogram of Section 5.1.

One bucket per lattice element (cell, interior grid edge, interior grid
vertex) of an ``n1 x n2`` grid -- ``(2*n1 - 1) * (2*n2 - 1)`` buckets.
Construction: for every object, increment every bucket whose lattice
element intersects the object's (open) interior; afterwards negate the edge
buckets.  By Corollary 4.1 the sum of the buckets strictly inside any
aligned region then evaluates ``V_i - E_i + F_i`` summed over all
object/region intersection footprints, i.e. it counts one per *connected,
hole-free* intersection region:

- the sum inside the query counts intersecting objects exactly
  (``n_ii``, Equation 12) -- every object/query intersection of two
  rectangles is a single hole-free rectangle;
- the sum outside the closed query approximates ``n_ei`` (Equation 13) but
  over-counts crossover objects (two intersection pieces) and, by the
  *loophole effect* of Corollary 4.2, misses objects containing the query
  (footprint with a hole: ``V_i - E_i + F_i = 0``), which is why it is
  written ``n'_ei`` in Section 5.3.

Queries are answered through a prefix-sum cube, making every region sum a
constant number of lookups (Section 5.2's complexity claim).

Two construction paths are provided: the vectorised batch builder (a
difference-array pass, ``O(M + buckets)`` for M objects) used everywhere,
and an incremental per-object ``add``/``remove`` path on
:class:`EulerHistogramBuilder` that supports streaming maintenance and is
the reference implementation the batch path is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.cube.difference import DifferenceArray2D
from repro.cube.prefix_sum import PrefixSumCube
from repro.datasets.base import RectDataset
from repro.errors import SummaryCorruptError
from repro.geometry.rect import Rect
from repro.geometry.snapping import snap_rect, snap_rects
from repro.grid.grid import Grid
from repro.grid.lattice import lattice_sign_matrix
from repro.grid.tiles_math import TileQuery, TileQueryBatch
from repro.obs.instruments import record_persistence_event
from repro.persistence import load_verified_npz, save_verified_npz

__all__ = ["EulerHistogram", "EulerHistogramBuilder", "BatchRegionSums"]


def _coerce_span_array(values: np.ndarray, name: str) -> np.ndarray:
    """Coerce one span-corner array to the difference array's int64.

    Integer arrays of any width pass through (widened losslessly);
    float/bool/other dtypes raise a clear ``ValueError`` instead of being
    silently truncated by a downstream ``astype`` -- a float ``2.7``
    snapped lattice coordinate is always a caller bug, never a value to
    round.
    """
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"{name} must hold integer lattice coordinates, got dtype "
            f"{arr.dtype}; snap spans with repro.geometry.snapping before "
            "adding them (refusing to truncate float values)"
        )
    return arr.astype(np.int64, copy=False)


class BatchRegionSums:
    """Vectorised region-sum surface derived from a batch lattice sum.

    Mixin shared by :class:`EulerHistogram` and
    :class:`~repro.euler.maintained.MaintainedEulerHistogram`: given a
    ``lattice_range_sum_batch`` primitive plus ``grid``, ``total_sum`` and
    ``num_objects``, it derives the batch forms of every Section-5.2/5.3
    region sum.  Each method answers its whole batch with a constant
    number of numpy gathers, which is what the batch estimators build on.
    """

    def _interior_sum_corners(
        self, qx_lo: np.ndarray, qx_hi: np.ndarray, qy_lo: np.ndarray, qy_hi: np.ndarray
    ) -> np.ndarray:
        """Batch bucket sums strictly inside cell spans (corner arrays)."""
        return self.lattice_range_sum_batch(
            2 * qx_lo, 2 * qx_hi - 2, 2 * qy_lo, 2 * qy_hi - 2
        )

    def _closed_sum_corners(
        self, qx_lo: np.ndarray, qx_hi: np.ndarray, qy_lo: np.ndarray, qy_hi: np.ndarray
    ) -> np.ndarray:
        """Batch closed-region bucket sums for cell spans given as corner
        arrays.  Degenerate spans (``hi <= lo``) yield empty lattice boxes
        and therefore sum to 0, which the EulerApprox Region-B path relies
        on for queries touching the data-space boundary."""
        shape = self.grid.lattice_shape
        return self.lattice_range_sum_batch(
            np.maximum(2 * qx_lo - 1, 0),
            np.minimum(2 * qx_hi - 1, shape[0] - 1),
            np.maximum(2 * qy_lo - 1, 0),
            np.minimum(2 * qy_hi - 1, shape[1] - 1),
        )

    def intersect_count_batch(self, queries: TileQueryBatch) -> np.ndarray:
        """Batch ``n_ii`` (Equation 12/14): one int64 per query."""
        queries.validate_against(self.grid)
        return self._interior_sum_corners(
            queries.qx_lo, queries.qx_hi, queries.qy_lo, queries.qy_hi
        )

    def closed_region_sum_batch(self, queries: TileQueryBatch) -> np.ndarray:
        """Batch closed-region sums (interior plus clipped boundary)."""
        queries.validate_against(self.grid)
        return self._closed_sum_corners(
            queries.qx_lo, queries.qx_hi, queries.qy_lo, queries.qy_hi
        )

    def outside_sum_batch(self, queries: TileQueryBatch) -> np.ndarray:
        """Batch ``n'_ei`` (Equation 15/19): one int64 per query."""
        return self.total_sum - self.closed_region_sum_batch(queries)

    def contained_count_batch(self, queries: TileQueryBatch) -> np.ndarray:
        """Batch S-Euler contains estimate ``N_cs = |S| - n'_ei``."""
        return self.num_objects - self.outside_sum_batch(queries)


class EulerHistogramBuilder:
    """Mutable accumulator of object footprints on the lattice.

    Holds the *pre-inversion* coverage counts (every intersected lattice
    element gets +1); the edge negation is applied when :meth:`build`
    materialises the immutable, queryable :class:`EulerHistogram`.
    """

    def __init__(self, grid: Grid) -> None:
        self._grid = grid
        self._diff = DifferenceArray2D(grid.lattice_shape, dtype=np.int64)
        self._num_objects = 0

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def num_objects(self) -> int:
        return self._num_objects

    def add(self, rect: Rect, weight: int = 1) -> None:
        """Add one object (world coordinates) with the given weight.

        ``weight=-1`` removes a previously added object, supporting
        deletions in a maintained histogram.  Removing more objects than
        were ever added (a ``weight=-1`` call against an empty builder,
        or any weight that would drive the object count negative) is a
        caller bug and raises ``ValueError`` before the accumulator is
        touched, so the builder never reaches a corrupt state.
        """
        if self._num_objects + weight < 0:
            raise ValueError(
                f"removing {-weight} object(s) from a builder holding "
                f"{self._num_objects} would make the count negative"
            )
        x_lo, x_hi, y_lo, y_hi = self._grid.rect_to_cell_units(rect)
        span = snap_rect(x_lo, x_hi, y_lo, y_hi, self._grid.n1, self._grid.n2)
        self._diff.add_box(span.a_lo, span.a_hi, span.b_lo, span.b_hi, weight)
        self._num_objects += weight

    def add_spans(
        self,
        a_lo: np.ndarray,
        a_hi: np.ndarray,
        b_lo: np.ndarray,
        b_hi: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Vectorised bulk insert of pre-snapped lattice spans with
        per-span weights.

        The maintained histogram's merge path: folds its whole pending
        delta into the accumulator with one difference-array scatter
        (:meth:`DifferenceArray2D.add_boxes`) instead of one
        ``add_box`` per span.  A net weight that would drive the object
        count negative raises ``ValueError`` before the accumulator is
        touched, like :meth:`add`.

        Span arrays must hold integer lattice coordinates and weights
        must be integers: any integer dtype is widened to the difference
        array's int64, while float-typed arrays raise ``ValueError``
        up front instead of being silently truncated.
        """
        weights = _coerce_span_array(weights, "weights")
        if weights.size == 0:
            return
        a_lo = _coerce_span_array(a_lo, "a_lo")
        a_hi = _coerce_span_array(a_hi, "a_hi")
        b_lo = _coerce_span_array(b_lo, "b_lo")
        b_hi = _coerce_span_array(b_hi, "b_hi")
        total = int(weights.sum())
        if self._num_objects + total < 0:
            raise ValueError(
                f"removing a net {-total} object(s) from a builder holding "
                f"{self._num_objects} would make the count negative"
            )
        self._diff.add_boxes(a_lo, a_hi, b_lo, b_hi, weights)
        self._num_objects += total

    def add_dataset(self, dataset: RectDataset) -> None:
        """Vectorised bulk insert of a whole dataset.

        World coordinates are snapped here; the resulting spans go
        through the same integer-dtype coercion as :meth:`add_spans`, so
        a snapping helper that ever regressed to float output would fail
        loudly instead of truncating.
        """
        if len(dataset) == 0:
            return
        grid = self._grid
        a_lo, a_hi, b_lo, b_hi = snap_rects(
            grid.to_cell_units_x(dataset.x_lo),
            grid.to_cell_units_x(dataset.x_hi),
            grid.to_cell_units_y(dataset.y_lo),
            grid.to_cell_units_y(dataset.y_hi),
            grid.n1,
            grid.n2,
        )
        self._diff.add_boxes(
            _coerce_span_array(a_lo, "a_lo"),
            _coerce_span_array(a_hi, "a_hi"),
            _coerce_span_array(b_lo, "b_lo"),
            _coerce_span_array(b_hi, "b_hi"),
        )
        self._num_objects += len(dataset)

    def merge(self, other: "EulerHistogramBuilder") -> None:
        """Fold another builder's accumulated state into this one.

        Element-wise accumulator sum plus object-count add: after the
        merge, this builder is exactly what it would have been had it
        also received every ``add``/``add_spans``/``add_dataset`` call
        ``other`` received (difference-domain addition is linear and
        int64-exact, so the equivalence is bit-level).  Both builders
        must share a grid; ``other`` is left untouched and stays usable.

        The out-of-core zoned construction pipeline (:mod:`repro.ingest`)
        folds each accumulator's live per-zone builders together this
        way, bit-identically to a direct build.
        """
        if other._grid != self._grid:
            raise ValueError(
                f"cannot merge builders over different grids: "
                f"{self._grid} vs {other._grid}"
            )
        self._diff.merge(other._diff)
        self._num_objects += other._num_objects

    def add_partial(self, a_lo: int, b_lo: int, patch: np.ndarray, num_objects: int) -> None:
        """Paste a spilled partial accumulator (a scratch patch from
        :meth:`DifferenceArray2D.patch` plus its object count) at lattice
        offset ``(a_lo, b_lo)``.

        The disk side of the spill/merge pass: a partial that was
        clipped to its spans' bounding box replays exactly when pasted
        back at the same offset.  ``num_objects`` must be non-negative
        (partials only ever accumulate insertions).
        """
        if num_objects < 0:
            raise ValueError(f"partial object count must be non-negative, got {num_objects}")
        self._diff.add_patch(a_lo, b_lo, patch)
        self._num_objects += int(num_objects)

    def export_partial(
        self, a_lo: int, a_hi: int, b_lo: int, b_hi: int
    ) -> tuple[np.ndarray, int]:
        """Export the accumulator state clipped to the inclusive lattice
        box ``[a_lo..a_hi] x [b_lo..b_hi]`` as ``(patch, num_objects)``.

        The memory side of the spill/merge pass: when every span this
        builder received lies inside the box, the patch carries the
        builder's entire state and :meth:`add_partial` at ``(a_lo,
        b_lo)`` reconstructs it exactly.
        """
        return self._diff.patch(a_lo, a_hi, b_lo, b_hi), self._num_objects

    @property
    def accumulator_nbytes(self) -> int:
        """Bytes held by the difference-array accumulator -- the figure
        the out-of-core builder's ``--memory-mb`` budget is charged
        against."""
        return self._diff.nbytes

    def build(self) -> "EulerHistogram":
        """Materialise the queryable histogram (coverage * sign pattern +
        prefix-sum cube).  The builder stays usable for further updates.

        Raises ``ValueError`` when the accumulated object count is
        negative (over-removal through weighted :meth:`add` calls) rather
        than constructing a corrupt histogram."""
        if self._num_objects < 0:
            raise ValueError(
                f"cannot build a histogram with negative object count "
                f"{self._num_objects}; more objects were removed than added"
            )
        coverage = self._diff.materialize()
        signed = coverage * lattice_sign_matrix(self._grid.n1, self._grid.n2)
        return EulerHistogram(self._grid, signed, self._num_objects)


class EulerHistogram(BatchRegionSums):
    """Immutable, queryable Euler histogram.

    Construct via :meth:`from_dataset` (the common path) or from an
    :class:`EulerHistogramBuilder`.  Scalar region sums answer one query
    in four lookups; the ``*_batch`` methods (from
    :class:`BatchRegionSums`) answer whole query batches in four gathers.
    """

    def __init__(self, grid: Grid, signed_buckets: np.ndarray, num_objects: int) -> None:
        expected = grid.lattice_shape
        if signed_buckets.shape != expected:
            raise ValueError(
                f"bucket array shape {signed_buckets.shape} does not match lattice {expected}"
            )
        if num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        self._grid = grid
        self._buckets = signed_buckets
        self._cube = PrefixSumCube(signed_buckets)
        self._num_objects = int(num_objects)

    @classmethod
    def from_dataset(cls, dataset: RectDataset, grid: Grid) -> "EulerHistogram":
        """Build the histogram of ``dataset`` on ``grid`` in one pass."""
        builder = EulerHistogramBuilder(grid)
        builder.add_dataset(dataset)
        return builder.build()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def num_objects(self) -> int:
        """``|S|``: number of objects summarised."""
        return self._num_objects

    @property
    def generation(self) -> int:
        """The summary's update generation, part of every tile-cache key
        (:mod:`repro.cache.keys`).  A built histogram is immutable, so
        its generation is 0 forever; the maintained variant bumps its
        counter on every insert/delete, which is what invalidates cached
        results keyed against the previous state."""
        return 0

    @property
    def num_buckets(self) -> int:
        """``(2*n1 - 1) * (2*n2 - 1)``, the storage figure of Section 5.2."""
        shape = self._grid.lattice_shape
        return shape[0] * shape[1]

    @property
    def nbytes(self) -> int:
        """Memory footprint of buckets plus the prefix-sum cube."""
        return int(self._buckets.nbytes) + self._cube.nbytes

    def buckets(self) -> np.ndarray:
        """A read-only view of the signed bucket array (edges negated)."""
        view = self._buckets.view()
        view.setflags(write=False)
        return view

    @property
    def total_sum(self) -> int:
        """Sum of all buckets = number of objects (every whole-object
        footprint is one hole-free region contributing 1)."""
        return int(self._cube.total)

    # ------------------------------------------------------------------ #
    # region sums (the primitives of Sections 5.2/5.3)
    # ------------------------------------------------------------------ #

    def lattice_range_sum(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> int:
        """Raw inclusive lattice-box sum (empty boxes sum to 0)."""
        return int(self._cube.range_sum_2d(a_lo, a_hi, b_lo, b_hi))

    def lattice_range_sum_batch(
        self, a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
    ) -> np.ndarray:
        """Raw inclusive lattice-box sums for arrays of boxes: one int64
        per box, empty boxes summing to 0, answered with four gathers."""
        return self._cube.range_sum_2d_batch(a_lo, a_hi, b_lo, b_hi)

    def intersect_count(self, region: TileQuery) -> int:
        """``n_ii`` of Equation 12/14: objects whose interiors intersect
        the (open) region -- the sum of the buckets strictly inside it.

        Exact for any aligned rectangular region (each rectangle/rectangle
        intersection is one hole-free region).  This is also the
        Beigel-Tanin Level-1 answer.
        """
        region.validate_against(self._grid)
        return self.lattice_range_sum(
            2 * region.qx_lo, 2 * region.qx_hi - 2, 2 * region.qy_lo, 2 * region.qy_hi - 2
        )

    def closed_region_sum(self, region: TileQuery) -> int:
        """Sum over the closed region: its interior plus its boundary
        lines (clipped at the data-space boundary, which carries no
        buckets)."""
        region.validate_against(self._grid)
        shape = self._grid.lattice_shape
        return self.lattice_range_sum(
            max(2 * region.qx_lo - 1, 0),
            min(2 * region.qx_hi - 1, shape[0] - 1),
            max(2 * region.qy_lo - 1, 0),
            min(2 * region.qy_hi - 1, shape[1] - 1),
        )

    def outside_sum(self, region: TileQuery) -> int:
        """``n'_ei`` of Equation 15/19: the sum of all buckets outside the
        closed region (excluding the region's boundary buckets).

        Counts objects whose interiors intersect the region's exterior,
        except that objects *containing* the region contribute 0 (the
        loophole effect, Corollary 4.2 with k=2) and objects *crossing* it
        contribute 2.
        """
        return self.total_sum - self.closed_region_sum(region)

    def contained_count(self, region: TileQuery) -> int:
        """S-EulerApprox's contains estimate for an aligned region:
        ``N_cs = |S| - n'_ei`` (Equation 16).

        Exact whenever no object contains or crosses the region -- in
        particular for the Region-B side rectangles of EulerApprox, which
        touch the data-space boundary.
        """
        return self._num_objects - self.outside_sum(region)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def verify(self) -> "EulerHistogram":
        """Check the histogram's structural invariants, returning ``self``.

        Verifies that the bucket array matches the grid's lattice shape
        and holds integers, that the object count is non-negative, and
        the Euler invariant of Corollary 4.1: the sum of *all* buckets
        (the prefix-sum cube's corner) equals the object count, because
        every whole-object footprint is one hole-free region contributing
        exactly 1.  Raises :class:`~repro.errors.SummaryCorruptError` on
        any violation -- a flipped bucket almost always breaks the corner
        sum even without a checksum.

        Outcomes are recorded as ``repro_persistence_ops_total{op="verify"}``
        when a default observability registry is installed.
        """
        try:
            expected = self._grid.lattice_shape
            if self._buckets.shape != expected:
                raise SummaryCorruptError(
                    f"bucket array shape {self._buckets.shape} does not match lattice {expected}"
                )
            if not np.issubdtype(self._buckets.dtype, np.integer):
                raise SummaryCorruptError(
                    f"bucket array must hold integers, got dtype {self._buckets.dtype}"
                )
            if self._num_objects < 0:
                raise SummaryCorruptError(f"negative object count {self._num_objects}")
            if self.total_sum != self._num_objects:
                raise SummaryCorruptError(
                    f"corner-bucket sum {self.total_sum} does not equal the object "
                    f"count {self._num_objects}; the bucket array is corrupt"
                )
        except SummaryCorruptError:
            record_persistence_event("Euler histogram", "verify", "invariant_violation")
            raise
        record_persistence_event("Euler histogram", "verify", "ok")
        return self

    def save(self, path) -> None:
        """Persist to a compressed ``.npz``: the signed buckets plus grid
        metadata, stamped with a CRC-32 checksum so corruption is caught
        at load.  A browsing service builds once, ships the file, and
        serves queries from the loaded copy."""
        save_verified_npz(
            path,
            {
                "buckets": self._buckets,
                "extent": np.array(self._grid.extent.as_tuple(), dtype=np.float64),
                "cells": np.array([self._grid.n1, self._grid.n2], dtype=np.int64),
                "num_objects": np.int64(self._num_objects),
            },
            kind="Euler histogram",
        )

    @classmethod
    def load(cls, path) -> "EulerHistogram":
        """Load a histogram persisted with :meth:`save` (the prefix-sum
        cube is rebuilt on load).

        The payload is integrity-checked end to end -- checksum, grid
        metadata, bucket shape/dtype and the Euler corner-sum invariant
        -- and any violation raises a
        :class:`~repro.errors.SummaryCorruptError` naming the file and
        the problem instead of a cryptic numpy error.
        """
        payload = load_verified_npz(
            path, kind="Euler histogram", required=("buckets", "extent", "cells", "num_objects")
        )
        extent_arr = np.asarray(payload["extent"], dtype=np.float64).reshape(-1)
        cells = np.asarray(payload["cells"]).reshape(-1)
        if extent_arr.shape != (4,) or not np.isfinite(extent_arr).all():
            raise SummaryCorruptError(
                f"histogram file {path!s} has a malformed extent {extent_arr!r}"
            )
        if cells.shape != (2,) or not np.issubdtype(cells.dtype, np.integer):
            raise SummaryCorruptError(
                f"histogram file {path!s} has malformed grid cells {cells!r}"
            )
        num_objects = np.asarray(payload["num_objects"]).reshape(-1)
        if num_objects.shape != (1,) or not np.issubdtype(num_objects.dtype, np.integer):
            raise SummaryCorruptError(
                f"histogram file {path!s} has a malformed object count "
                f"{payload['num_objects']!r}"
            )
        try:
            grid = Grid(Rect(*(float(v) for v in extent_arr)), int(cells[0]), int(cells[1]))
            hist = cls(grid, payload["buckets"], int(num_objects[0]))
        except ValueError as exc:
            raise SummaryCorruptError(
                f"histogram file {path!s} holds an inconsistent payload: {exc}"
            ) from exc
        return hist.verify()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EulerHistogram(grid={self._grid.n1}x{self._grid.n2}, "
            f"objects={self._num_objects}, buckets={self.num_buckets})"
        )
