"""d-dimensional grid specification.

The paper develops its model for d-dimensional hyper-rectangles (Section
3: "Let S be a set of d-dimensional objects and R^d a hyper-rectangle that
encloses all the objects"), and evaluates at d=2.  :class:`GridND` is the
d-dimensional sibling of :class:`repro.grid.grid.Grid`, carrying one
``(lo, hi, cells)`` triple per axis.  The Euler histogram, its estimators
and the exact evaluator take one through their ``from_boxes``
constructors and answer :class:`BoxQuery` boxes with the same code that
answers 2-d :class:`~repro.grid.tiles_math.TileQuery` tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.snapping import snap_axis_arrays

__all__ = ["GridND", "BoxQuery"]


@dataclass(frozen=True)
class GridND:
    """A uniform gridding of a d-dimensional hyper-rectangle.

    Attributes
    ----------
    lows, highs:
        Per-axis data-space bounds.
    cells:
        Per-axis cell counts ``(n_1, ..., n_d)``.
    """

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lows", tuple(float(v) for v in self.lows))
        object.__setattr__(self, "highs", tuple(float(v) for v in self.highs))
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        if not self.cells:
            raise ValueError("at least one dimension is required")
        if not (len(self.lows) == len(self.highs) == len(self.cells)):
            raise ValueError("lows, highs and cells must have equal length")
        if any(hi <= lo for lo, hi in zip(self.lows, self.highs)):
            raise ValueError("every axis must have positive extent")
        if any(n < 1 for n in self.cells):
            raise ValueError("every axis must have at least one cell")

    @classmethod
    def unit_cells(cls, cells: Sequence[int]) -> "GridND":
        """A grid over ``[0, n_k]`` per axis with unit cells."""
        cells = tuple(int(n) for n in cells)
        return cls(lows=(0.0,) * len(cells), highs=tuple(float(n) for n in cells), cells=cells)

    @property
    def ndim(self) -> int:
        return len(self.cells)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def cell_sizes(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / n for lo, hi, n in zip(self.lows, self.highs, self.cells)
        )

    @property
    def lattice_shape(self) -> tuple[int, ...]:
        """Euler-histogram bucket shape: ``(2 n_k - 1)`` per axis."""
        return tuple(2 * n - 1 for n in self.cells)

    def to_cell_units(self, axis: int, values: np.ndarray) -> np.ndarray:
        """World coordinates -> cell units on one axis."""
        size = self.cell_sizes[axis]
        return (np.asarray(values, dtype=np.float64) - self.lows[axis]) / size

    def box_corners(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validate world-coordinate box corners as two ``(M, d)`` float
        arrays, raising ``ValueError`` on any other shape."""
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.ndim != 2 or lows.shape[1] != self.ndim or lows.shape != highs.shape:
            raise ValueError(
                f"expected (M, {self.ndim}) corner arrays, got {lows.shape} / {highs.shape}"
            )
        return lows, highs

    def snap_boxes(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Snap ``(M, d)`` world-coordinate boxes to lattice spans: one
        ``lo`` and one ``hi`` int64 array per axis.

        Boxes are treated as open (the shrinking convention), snapped per
        axis with :func:`repro.geometry.snapping.snap_axis_arrays`.
        """
        lows, highs = self.box_corners(lows, highs)
        spans = [
            snap_axis_arrays(
                self.to_cell_units(k, lows[:, k]), self.to_cell_units(k, highs[:, k]), n
            )
            for k, n in enumerate(self.cells)
        ]
        return tuple(lo for lo, _ in spans), tuple(hi for _, hi in spans)


@dataclass(frozen=True)
class BoxQuery:
    """A grid-aligned d-dimensional query: cells ``[lo_k, hi_k)`` per axis.

    The d-dimensional sibling of :class:`repro.grid.tiles_math.TileQuery`.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", tuple(int(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(int(v) for v in self.hi))
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be non-empty and equally long")
        if any(a < 0 for a in self.lo) or any(b <= a for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"query must cover at least one cell per axis: {self}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> int:
        """Query volume in unit cells."""
        return int(np.prod([b - a for a, b in zip(self.lo, self.hi)]))

    def validate_against(self, grid: GridND) -> None:
        """Raise when the query does not fit the grid."""
        if self.ndim != grid.ndim:
            raise ValueError(f"{self.ndim}-d query against {grid.ndim}-d grid")
        if any(b > n for b, n in zip(self.hi, grid.cells)):
            raise ValueError(f"query {self} exceeds grid cells {grid.cells}")
