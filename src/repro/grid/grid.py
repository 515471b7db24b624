"""The grid specification: a uniform gridding of the data space.

Section 3 of the paper: "A gridding of R^d partitions each dimension D_i of
R^d into n_i equi-width segments, so R^d is partitioned into prod(n_i) = N
equi-sized cells.  We use a unit cell c to represent the resolution of the
grid."

:class:`Grid` is the single source of truth for the correspondence between
world coordinates (e.g. degrees in the 360x180 space) and cell units; every
histogram, workload and evaluator in the library carries one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.rect import Rect

__all__ = ["Grid"]


@dataclass(frozen=True, slots=True)
class Grid:
    """A uniform ``n1 x n2`` gridding of the data space ``extent``.

    Parameters
    ----------
    extent:
        The hyper-rectangle enclosing all objects (``R^2`` in the paper).
        The paper's experiments use ``Rect(0, 360, 0, 180)``.
    n1, n2:
        Number of equi-width cells along x and y.  The paper's experiments
        grid the world at 1-degree resolution: ``n1=360, n2=180``.
    """

    extent: Rect
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"grid must have at least one cell per axis, got {self.n1}x{self.n2}")
        if self.extent.width <= 0 or self.extent.height <= 0:
            raise ValueError("grid extent must have positive area")

    @classmethod
    def world_1deg(cls) -> "Grid":
        """The paper's evaluation grid: 360x180 space at 1x1 resolution."""
        return cls(Rect(0.0, 360.0, 0.0, 180.0), 360, 180)

    @property
    def cell_width(self) -> float:
        return self.extent.width / self.n1

    @property
    def cell_height(self) -> float:
        return self.extent.height / self.n2

    @property
    def cell_area(self) -> float:
        return self.cell_width * self.cell_height

    @property
    def num_cells(self) -> int:
        """``N`` in the paper: total number of grid cells."""
        return self.n1 * self.n2

    @property
    def cells(self) -> tuple[int, int]:
        """Per-axis cell counts ``(n1, n2)``, as on
        :class:`~repro.grid.grid_nd.GridND`."""
        return (self.n1, self.n2)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def lattice_shape(self) -> tuple[int, int]:
        """Shape of the Euler-histogram bucket array:
        ``(2*n1 - 1, 2*n2 - 1)``."""
        return (2 * self.n1 - 1, 2 * self.n2 - 1)

    # ------------------------------------------------------------------ #
    # world <-> cell-unit conversion
    # ------------------------------------------------------------------ #

    def to_cell_units_x(self, x: float | np.ndarray) -> float | np.ndarray:
        """Map a world x coordinate into cell units (0 .. n1)."""
        return (x - self.extent.x_lo) / self.cell_width

    def to_cell_units_y(self, y: float | np.ndarray) -> float | np.ndarray:
        """Map a world y coordinate into cell units (0 .. n2)."""
        return (y - self.extent.y_lo) / self.cell_height

    def to_world_x(self, u: float | np.ndarray) -> float | np.ndarray:
        """Map a cell-unit x coordinate back to world coordinates."""
        return self.extent.x_lo + u * self.cell_width

    def to_world_y(self, v: float | np.ndarray) -> float | np.ndarray:
        """Map a cell-unit y coordinate back to world coordinates."""
        return self.extent.y_lo + v * self.cell_height

    def rect_to_cell_units(self, rect: Rect) -> tuple[float, float, float, float]:
        """Convert a world-coordinate rectangle to cell units."""
        return (
            float(self.to_cell_units_x(rect.x_lo)),
            float(self.to_cell_units_x(rect.x_hi)),
            float(self.to_cell_units_y(rect.y_lo)),
            float(self.to_cell_units_y(rect.y_hi)),
        )

    # ------------------------------------------------------------------ #
    # alignment
    # ------------------------------------------------------------------ #

    def is_aligned(self, rect: Rect, *, tol: float = 1e-9) -> bool:
        """True when all four edges of ``rect`` lie on grid lines.

        Queries at the grid resolution must be aligned; the histograms only
        guarantee their accuracy properties for aligned queries (Section 3's
        "query at resolution c").
        """
        coords = self.rect_to_cell_units(rect)
        return all(abs(c - round(c)) <= tol for c in coords)

    def cell_rect(self, i: int, j: int) -> Rect:
        """World-coordinate rectangle of grid cell ``(i, j)`` (0-based
        column ``i`` along x, row ``j`` along y)."""
        if not (0 <= i < self.n1 and 0 <= j < self.n2):
            raise IndexError(f"cell ({i}, {j}) outside {self.n1}x{self.n2} grid")
        return Rect(
            self.to_world_x(i),
            self.to_world_x(i + 1),
            self.to_world_y(j),
            self.to_world_y(j + 1),
        )

    def contains_rect(self, rect: Rect) -> bool:
        """True when ``rect`` lies inside the data space (closed test)."""
        return self.extent.covers_closed(rect)
