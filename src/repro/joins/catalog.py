"""The summary catalog: hundreds of join sketches stacked into SoA blocks.

Scanning a catalog one summary at a time is the scalar hot path PR 1's
batch engine killed for tiles, reborn at the catalog scale: a Python
loop, per-summary dispatch, tiny numpy calls.  :class:`SummaryCatalog`
fixes it the same way -- structure-of-arrays.  Every registered
summary's sketch channels land in one contiguous
``(n_summaries, gx, gy)`` float64 block per channel, so scoring a query
against the *whole catalog* is a handful of NumPy reductions over those
blocks (see :mod:`repro.joins.scoring`).

Three derived layouts are materialised lazily per catalog generation:

- **blocks** -- the ``(n, gx, gy)`` channel stacks themselves,
- **cubes** -- zero-padded 2-d prefix sums ``(n, gx+1, gy+1)`` per
  channel, making any aligned reference-region reduction four gathers
  per summary (the same trick
  :class:`~repro.cube.prefix_sum.PrefixSumCube` plays for one histogram,
  vectorised across the summary axis),
- **levels** -- a GeoBlocks-style coarsening ladder: each level halves
  both axes by summing 2x2 cell blocks, down to a handful of cells.
  Because channels are non-negative, a level-``l`` cell is the exact sum
  of its level-0 descendants, which is what makes the pruning bounds in
  :mod:`repro.joins.search` sound.

Registration is validated, not forgiving: a summary whose grid does not
tile the reference grid exactly raises
:class:`~repro.errors.CatalogAlignmentError` (see
:mod:`repro.joins.sketch`).  The catalog carries a ``generation``
counter bumped on every registration; each search result records the
generation it was scored against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.grid import Grid
from repro.joins.sketch import CHANNELS, JoinSketch

__all__ = [
    "StackedCatalog",
    "SummaryCatalog",
    "coarsen_channel",
    "coarsen_ladder",
    "level_shapes",
]

#: Stop the coarsening ladder once both axes are at most this many cells.
_MIN_LEVEL_CELLS = 4


def level_shapes(gx: int, gy: int, *, min_cells: int = _MIN_LEVEL_CELLS) -> list[tuple[int, int]]:
    """The coarsening ladder's per-level shapes, finest first.

    Level 0 is ``(gx, gy)``; each next level ceil-halves both axes until
    neither exceeds ``min_cells``.  Always contains at least level 0.
    """
    shapes = [(gx, gy)]
    while shapes[-1][0] > min_cells or shapes[-1][1] > min_cells:
        lx, ly = shapes[-1]
        shapes.append(((lx + 1) // 2, (ly + 1) // 2))
    return shapes


def coarsen_channel(block: np.ndarray) -> np.ndarray:
    """Sum 2x2 cell blocks along the last two axes (odd edges keep a
    1-wide remainder block), halving a channel grid one pyramid level.

    Works on a single ``(gx, gy)`` sketch channel and on a stacked
    ``(n, gx, gy)`` block alike.
    """
    gx, gy = block.shape[-2], block.shape[-1]
    coarse = np.add.reduceat(block, np.arange(0, gx, 2), axis=-2)
    return np.ascontiguousarray(
        np.add.reduceat(coarse, np.arange(0, gy, 2), axis=-1)
    )


def coarsen_ladder(
    channels: dict[str, np.ndarray], num_levels: int
) -> list[dict[str, np.ndarray]]:
    """The full coarsening ladder of a channel set, finest first."""
    levels = [channels]
    for _ in range(num_levels - 1):
        levels.append({name: coarsen_channel(arr) for name, arr in levels[-1].items()})
    return levels


@dataclass(frozen=True)
class StackedCatalog:
    """One catalog generation's immutable SoA view (see module doc).

    ``levels[0]`` holds the finest ``(n, gx, gy)`` channel blocks (the
    canonical stacking); ``levels[l]`` the ``l``-times-coarsened blocks.
    ``cubes`` holds the per-channel zero-padded prefix sums of level 0.
    """

    reference: Grid
    names: tuple[str, ...]
    num_objects: np.ndarray
    levels: tuple[dict[str, np.ndarray], ...]
    cubes: dict[str, np.ndarray]
    generation: int

    def __len__(self) -> int:
        return len(self.names)

    @property
    def blocks(self) -> dict[str, np.ndarray]:
        """The finest-level ``(n, gx, gy)`` channel stacks."""
        return self.levels[0]

    @property
    def nbytes(self) -> int:
        """Total bytes across all levels and cubes."""
        total = sum(arr.nbytes for level in self.levels for arr in level.values())
        return total + sum(arr.nbytes for arr in self.cubes.values())


class SummaryCatalog:
    """A registry of join sketches over one shared reference grid.

    ``register`` accepts any of the four estimator families (S-Euler,
    Euler, M-Euler, exact) and extracts the summary's sketch in one
    batched estimate; ``register_sketch`` accepts a pre-built
    :class:`~repro.joins.sketch.JoinSketch` (e.g. the exact ground-truth
    sketches the accuracy harness builds).  ``stacked()`` returns the
    current generation's SoA view, rebuilt lazily after registrations.
    """

    def __init__(self, reference: Grid, *, min_level_cells: int = _MIN_LEVEL_CELLS) -> None:
        if min_level_cells < 1:
            raise ValueError("min_level_cells must be at least 1")
        self._reference = reference
        self._min_level_cells = min_level_cells
        self._sketches: list[JoinSketch] = []
        self._names: dict[str, int] = {}
        self._generation = 0
        self._stacked: StackedCatalog | None = None

    @property
    def reference_grid(self) -> Grid:
        return self._reference

    @property
    def generation(self) -> int:
        """Update counter: bumped by every registration."""
        return self._generation

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._sketches)

    def __len__(self) -> int:
        return len(self._sketches)

    def __getitem__(self, index: int) -> JoinSketch:
        """The ``index``-th registered sketch."""
        return self._sketches[index]

    def index_of(self, name: str) -> int:
        """The registration index of ``name`` (KeyError when absent)."""
        return self._names[name]

    def register(self, name: str, estimator: object) -> int:
        """Register an estimator-backed summary; returns its index.

        Raises :class:`~repro.errors.CatalogAlignmentError` when the
        summary's grid cannot be aligned to the reference grid, and
        ``ValueError`` on a duplicate name.
        """
        return self.register_sketch(
            JoinSketch.from_estimator(estimator, self._reference, name=name)
        )

    def register_sketch(self, sketch: JoinSketch) -> int:
        """Register a pre-built sketch; returns its index."""
        if sketch.reference != self._reference:
            raise ValueError(
                f"sketch {sketch.name!r} was built on reference grid "
                f"{sketch.reference.n1}x{sketch.reference.n2}, catalog uses "
                f"{self._reference.n1}x{self._reference.n2}"
            )
        if sketch.name in self._names:
            raise ValueError(f"summary name {sketch.name!r} already registered")
        index = len(self._sketches)
        self._sketches.append(sketch)
        self._names[sketch.name] = index
        self._generation += 1
        self._stacked = None
        return index

    def stacked(self) -> StackedCatalog:
        """The current generation's SoA view (cached until the next
        registration)."""
        if self._stacked is None or self._stacked.generation != self._generation:
            self._stacked = self._build_stacked()
        return self._stacked

    def _build_stacked(self) -> StackedCatalog:
        gx, gy = self._reference.n1, self._reference.n2
        n = len(self._sketches)
        blocks: dict[str, np.ndarray] = {}
        for channel in CHANNELS:
            block = np.empty((n, gx, gy), dtype=np.float64)
            for i, sketch in enumerate(self._sketches):
                block[i] = getattr(sketch, channel)
            blocks[channel] = block

        cubes: dict[str, np.ndarray] = {}
        for channel, block in blocks.items():
            cube = np.zeros((n, gx + 1, gy + 1), dtype=np.float64)
            cube[:, 1:, 1:] = block.cumsum(axis=1).cumsum(axis=2)
            cubes[channel] = cube

        shapes = level_shapes(gx, gy, min_cells=self._min_level_cells)
        levels = coarsen_ladder(blocks, len(shapes))
        return StackedCatalog(
            reference=self._reference,
            names=self.names,
            num_objects=np.array(
                [s.num_objects for s in self._sketches], dtype=np.int64
            ),
            levels=tuple(levels),
            cubes=cubes,
            generation=self._generation,
        )
