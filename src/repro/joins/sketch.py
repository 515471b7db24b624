"""Join sketches: a summary's Level-2 counts resampled onto a reference grid.

A *join sketch* is the fixed-size signature the catalog scan engine works
on: for every cell of a shared ``gx x gy`` reference grid, the summary's
Level-2 counts for that cell treated as an aligned query.  Three mass
channels and one occupancy channel are kept:

- ``n_ii``  -- objects intersecting the cell (``N_cs + N_cd + N_o``),
- ``n_cs``  -- objects contained in the cell,
- ``n_cd``  -- objects containing the cell,
- ``occupancy`` -- 1.0 where ``n_ii > 0``, else 0.0.

Because every estimator family in this library answers aligned queries
through the same ``estimate_batch`` protocol, one batched call over the
``gx * gy`` reference cells extracts a sketch from *any* summary --
S-Euler, Euler, M-Euler or the exact evaluator -- and the exact family
yields the ground-truth sketch the approximate ones are scored against.

Channels are clamped to zero at extraction: approximation can
legitimately produce negative per-cell estimates (see
:class:`~repro.euler.estimates.Level2Counts`), but negative values carry
no joinability mass and would poison the monotone pruning bounds, so the
clamp happens once here rather than per scan.

Alignment contract: the summary's grid must share the reference grid's
data-space extent and refine it by an integer factor per axis, so every
reference cell is expressible as an aligned query on the summary's own
grid.  Anything else raises
:class:`~repro.errors.CatalogAlignmentError` -- a structured error, not
a silent resample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import RectDataset
from repro.errors import CatalogAlignmentError
from repro.exact.evaluator import ExactEvaluator
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQueryBatch

__all__ = ["CHANNELS", "JoinSketch", "estimator_grid", "estimator_num_objects"]

#: The per-cell channels every sketch carries, in storage order.
CHANNELS = ("n_ii", "n_cs", "n_cd", "occupancy")


def estimator_grid(estimator: object) -> Grid:
    """The grid a Level-2 estimator answers queries on.

    Resolves the grid across the four estimator families' differing
    surfaces: a direct ``grid`` property (exact evaluator, M-Euler), a
    backing ``histogram`` (S-Euler, Euler) or a ``histograms`` tuple.
    """
    grid = getattr(estimator, "grid", None)
    if isinstance(grid, Grid):
        return grid
    hist = getattr(estimator, "histogram", None)
    if hist is not None and isinstance(getattr(hist, "grid", None), Grid):
        return hist.grid
    hists = getattr(estimator, "histograms", None)
    if hists and isinstance(getattr(hists[0], "grid", None), Grid):
        return hists[0].grid
    raise CatalogAlignmentError(
        f"cannot resolve a grid from estimator {type(estimator).__name__}; "
        "expected a grid, histogram or histograms attribute"
    )


def estimator_num_objects(estimator: object) -> int:
    """``|S|`` of the dataset behind an estimator (any family)."""
    n = getattr(estimator, "num_objects", None)
    if n is not None:
        return int(n)
    hist = getattr(estimator, "histogram", None)
    if hist is not None:
        return int(hist.num_objects)
    raise CatalogAlignmentError(
        f"cannot resolve num_objects from estimator {type(estimator).__name__}"
    )


def _reference_cell_batch(summary_grid: Grid, reference: Grid) -> TileQueryBatch:
    """All ``gx * gy`` reference cells as aligned queries on the summary
    grid, in row-major ``(i, j)`` order (x-index outer)."""
    fx = summary_grid.n1 // reference.n1
    fy = summary_grid.n2 // reference.n2
    ii, jj = np.meshgrid(
        np.arange(reference.n1, dtype=np.intp),
        np.arange(reference.n2, dtype=np.intp),
        indexing="ij",
    )
    qx_lo = ii.ravel() * fx
    qy_lo = jj.ravel() * fy
    return TileQueryBatch(qx_lo, qx_lo + fx, qy_lo, qy_lo + fy)


@dataclass(frozen=True)
class JoinSketch:
    """A summary's per-reference-cell Level-2 channels (see module doc).

    ``n_ii``, ``n_cs``, ``n_cd`` and ``occupancy`` are ``(gx, gy)``
    float64 arrays on ``reference``'s cell lattice; ``num_objects`` is
    the summarised dataset's cardinality.  Channels are non-negative by
    construction (clamped at extraction).
    """

    reference: Grid
    n_ii: np.ndarray
    n_cs: np.ndarray
    n_cd: np.ndarray
    occupancy: np.ndarray
    num_objects: int
    name: str = field(default="sketch")

    def __post_init__(self) -> None:
        shape = (self.reference.n1, self.reference.n2)
        for channel in CHANNELS:
            arr = np.ascontiguousarray(getattr(self, channel), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(
                    f"channel {channel} has shape {arr.shape}, expected {shape}"
                )
            object.__setattr__(self, channel, arr)

    @classmethod
    def from_estimator(
        cls, estimator: object, reference: Grid, *, name: str | None = None
    ) -> "JoinSketch":
        """Extract a sketch from any Level-2 estimator family.

        Raises :class:`~repro.errors.CatalogAlignmentError` when the
        estimator's grid does not tile ``reference`` exactly (different
        extent, or per-axis cell counts that are not integer multiples).
        """
        sketch_name = name if name is not None else getattr(estimator, "name", "sketch")
        grid = estimator_grid(estimator)
        if grid.extent != reference.extent:
            raise CatalogAlignmentError(
                f"summary {sketch_name!r} covers extent {grid.extent}, reference "
                f"covers {reference.extent}; extents must match exactly",
                summary_name=str(sketch_name),
                summary_cells=(grid.n1, grid.n2),
                reference_cells=(reference.n1, reference.n2),
            )
        if grid.n1 % reference.n1 or grid.n2 % reference.n2:
            raise CatalogAlignmentError(
                f"summary {sketch_name!r} grid {grid.n1}x{grid.n2} does not refine "
                f"the {reference.n1}x{reference.n2} reference grid by an integer "
                "factor per axis",
                summary_name=str(sketch_name),
                summary_cells=(grid.n1, grid.n2),
                reference_cells=(reference.n1, reference.n2),
            )
        counts = estimator.estimate_batch(_reference_cell_batch(grid, reference))
        shape = (reference.n1, reference.n2)
        n_ii = np.maximum(counts.n_intersect, 0.0).reshape(shape)
        n_cs = np.maximum(counts.n_cs, 0.0).reshape(shape)
        n_cd = np.maximum(counts.n_cd, 0.0).reshape(shape)
        return cls(
            reference=reference,
            n_ii=n_ii,
            n_cs=n_cs,
            n_cd=n_cd,
            occupancy=(n_ii > 0.0).astype(np.float64),
            num_objects=estimator_num_objects(estimator),
            name=str(sketch_name),
        )

    @classmethod
    def from_dataset(
        cls, dataset: RectDataset, reference: Grid, *, name: str | None = None
    ) -> "JoinSketch":
        """The *exact* sketch of a raw dataset at reference resolution.

        Used both for query datasets (the query side of a dataset-mode
        search) and as ground truth when scoring approximate sketches.
        """
        if dataset.extent != reference.extent:
            raise CatalogAlignmentError(
                f"dataset {dataset.name!r} covers extent {dataset.extent}, "
                f"reference covers {reference.extent}; extents must match exactly",
                summary_name=dataset.name,
                reference_cells=(reference.n1, reference.n2),
            )
        return cls.from_estimator(
            ExactEvaluator(dataset, reference),
            reference,
            name=name if name is not None else dataset.name,
        )

    @property
    def channels(self) -> dict[str, np.ndarray]:
        """The four channel arrays keyed by name, in storage order."""
        return {channel: getattr(self, channel) for channel in CHANNELS}
