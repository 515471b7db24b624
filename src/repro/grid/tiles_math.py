"""Aligned-query math: converting world queries into integer cell spans.

Every browsing query is a grid-aligned rectangle; downstream code (Euler
histograms, exact evaluators) works exclusively on the integer cell span
``[qx_lo, qx_hi) x [qy_lo, qy_hi)``.  :class:`TileQuery` is that integer
form, and :func:`aligned_query_cells` is the validated world -> cells
conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.geometry.rect import Rect
from repro.grid.grid import Grid

__all__ = ["TileQuery", "TileQueryBatch", "aligned_query_cells"]


@dataclass(frozen=True, slots=True)
class TileQuery:
    """A grid-aligned query: cells ``[qx_lo, qx_hi) x [qy_lo, qy_hi)``.

    In cell units the closed query rectangle is
    ``[qx_lo, qx_hi] x [qy_lo, qy_hi]``; the half-open fields here index the
    *cells* the query covers, so ``qx_hi - qx_lo`` is the query width in
    cells and is always >= 1.
    """

    qx_lo: int
    qx_hi: int
    qy_lo: int
    qy_hi: int

    def __post_init__(self) -> None:
        if self.qx_lo < 0 or self.qy_lo < 0:
            raise ValueError(f"query cells must be non-negative: {self}")
        if self.qx_hi <= self.qx_lo or self.qy_hi <= self.qy_lo:
            raise ValueError(f"query must cover at least one cell: {self}")

    @property
    def width(self) -> int:
        return self.qx_hi - self.qx_lo

    @property
    def height(self) -> int:
        return self.qy_hi - self.qy_lo

    @property
    def area(self) -> int:
        """Query area in unit cells (``area(Q)`` in Section 5.4)."""
        return self.width * self.height

    @property
    def lo(self) -> tuple[int, int]:
        """Per-axis first covered cell, as on
        :class:`~repro.grid.grid_nd.BoxQuery`."""
        return (self.qx_lo, self.qy_lo)

    @property
    def hi(self) -> tuple[int, int]:
        """Per-axis end of the covered cells (exclusive)."""
        return (self.qx_hi, self.qy_hi)

    @property
    def volume(self) -> int:
        """The query's size in unit cells: its :attr:`area`."""
        return self.area

    def validate_against(self, grid: Grid) -> None:
        """Raise when the query pokes outside ``grid``."""
        if self.qx_hi > grid.n1 or self.qy_hi > grid.n2:
            raise ValueError(f"query {self} exceeds grid {grid.n1}x{grid.n2}")

    def to_world(self, grid: Grid) -> Rect:
        """The query's world-coordinate rectangle on ``grid``."""
        self.validate_against(grid)
        return Rect(
            grid.to_world_x(self.qx_lo),
            grid.to_world_x(self.qx_hi),
            grid.to_world_y(self.qy_lo),
            grid.to_world_y(self.qy_hi),
        )


@dataclass(frozen=True)
class TileQueryBatch:
    """A batch of grid-aligned queries as a struct of corner arrays.

    The batch form of :class:`TileQuery`: four equal-length 1-d integer
    arrays holding the cell spans ``[qx_lo, qx_hi) x [qy_lo, qy_hi)`` of
    every query.  This is the input type of the vectorised
    ``estimate_batch`` path -- the whole batch is answered with a constant
    number of numpy gathers, so materialising the corners once per
    interaction is the only per-batch cost.

    Invariants match :class:`TileQuery`: non-negative corners and at least
    one covered cell per query, validated once at construction.
    """

    qx_lo: np.ndarray
    qx_hi: np.ndarray
    qy_lo: np.ndarray
    qy_hi: np.ndarray

    def __post_init__(self) -> None:
        arrays = {
            name: np.ascontiguousarray(getattr(self, name), dtype=np.intp)
            for name in ("qx_lo", "qx_hi", "qy_lo", "qy_hi")
        }
        lengths = {a.shape for a in arrays.values()}
        if len(lengths) != 1 or arrays["qx_lo"].ndim != 1:
            raise ValueError(
                f"corner arrays must be 1-d and equal-length, got shapes "
                f"{[a.shape for a in arrays.values()]}"
            )
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        if len(self.qx_lo) and (self.qx_lo.min() < 0 or self.qy_lo.min() < 0):
            raise ValueError("query cells must be non-negative")
        if np.any(self.qx_hi <= self.qx_lo) or np.any(self.qy_hi <= self.qy_lo):
            raise ValueError("every query must cover at least one cell")

    @classmethod
    def from_queries(cls, queries: Iterable[TileQuery]) -> "TileQueryBatch":
        """Pack an iterable of :class:`TileQuery` into one batch."""
        qs = list(queries)
        return cls(
            np.array([q.qx_lo for q in qs], dtype=np.intp),
            np.array([q.qx_hi for q in qs], dtype=np.intp),
            np.array([q.qy_lo for q in qs], dtype=np.intp),
            np.array([q.qy_hi for q in qs], dtype=np.intp),
        )

    def __len__(self) -> int:
        return len(self.qx_lo)

    def __getitem__(self, i: int) -> TileQuery:
        """The ``i``-th query as a scalar :class:`TileQuery`."""
        return TileQuery(
            int(self.qx_lo[i]), int(self.qx_hi[i]), int(self.qy_lo[i]), int(self.qy_hi[i])
        )

    def __iter__(self) -> Iterator[TileQuery]:
        return (self[i] for i in range(len(self)))

    @property
    def area(self) -> np.ndarray:
        """Per-query areas in unit cells (``area(Q)`` in Section 5.4)."""
        return (self.qx_hi - self.qx_lo) * (self.qy_hi - self.qy_lo)

    def validate_against(self, grid: Grid) -> None:
        """Raise when any query in the batch pokes outside ``grid``."""
        if len(self.qx_lo) == 0:
            return
        if self.qx_hi.max() > grid.n1 or self.qy_hi.max() > grid.n2:
            raise ValueError(f"batch contains a query exceeding grid {grid.n1}x{grid.n2}")


def aligned_query_cells(grid: Grid, rect: Rect, *, tol: float = 1e-9) -> TileQuery:
    """Convert a world-coordinate query rectangle to its cell span.

    Raises ``ValueError`` when the rectangle is not aligned with the grid or
    lies outside the data space: the histogram algorithms' guarantees only
    hold for aligned queries, so misalignment is a caller bug rather than
    something to silently round.
    """
    if not grid.contains_rect(rect):
        raise ValueError(f"query {rect} lies outside the data space {grid.extent}")
    if not grid.is_aligned(rect, tol=tol):
        raise ValueError(f"query {rect} is not aligned with the {grid.n1}x{grid.n2} grid")
    x_lo, x_hi, y_lo, y_hi = grid.rect_to_cell_units(rect)
    return TileQuery(round(x_lo), round(x_hi), round(y_lo), round(y_hi))
