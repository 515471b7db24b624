"""Join scoring kernels: whole-catalog scores in a few NumPy reductions.

Two query shapes, each with a vectorised kernel and a scalar per-pair
reference implementation kept solely for parity testing (the property
suite asserts *bit-identical* results, not approximate ones -- both
paths read the same stacked arrays and apply the same IEEE operations in
the same order):

**Dataset mode** (:func:`score_dataset_batch`): the query is a
:class:`~repro.joins.sketch.JoinSketch`; each candidate summary ``s``
gets three scores against query ``q``:

- ``overlap``     = sum_c min(q.n_ii[c],  s.n_ii[c])  -- co-located
  intersecting mass, the joinability signal;
- ``containment`` = sum_c min(q.n_ii[c],  s.n_cs[c])  -- candidate mass
  fully contained in single reference cells where the query has mass;
- ``coverage``    = sum_c min(q.occ[c], s.occ[c]) / sum_c q.occ[c] --
  the fraction of the query's occupied cells the candidate also
  occupies (0 when the query occupies nothing).

"Mass" scores count object-cell incidences, not distinct objects: an
object spanning r reference cells contributes up to r.  That is the
price of a fixed-size sketch;
:func:`~repro.joins.accuracy.region_mass_vs_count` measures the
resulting mass-vs-count ratio against true ``ExactEvaluator`` pair
counts.

**Region mode** (:func:`score_region_batch`): the query is an aligned
reference-grid region; each candidate gets its channel masses inside the
region -- four gathers per channel on the stacked prefix-sum cubes,
O(1) per candidate regardless of region size:

- ``intersect_mass``, ``contained_mass``, ``containing_mass`` -- region
  sums of ``n_ii``, ``n_cs``, ``n_cd``;
- ``coverage`` -- occupied cells inside the region / region area.

Every score is monotone in the non-negative channels, which is what the
pyramid pruning bounds in :mod:`repro.joins.search` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.tiles_math import TileQuery
from repro.joins.catalog import StackedCatalog
from repro.joins.sketch import JoinSketch

__all__ = [
    "DATASET_METRICS",
    "REGION_METRICS",
    "CatalogScores",
    "RegionScores",
    "score_dataset_batch",
    "score_dataset_scalar",
    "score_region_batch",
    "score_region_scalar",
]

#: Rankable dataset-mode score fields, in :class:`CatalogScores` order.
DATASET_METRICS = ("overlap", "containment", "coverage")

#: Rankable region-mode score fields, in :class:`RegionScores` order.
REGION_METRICS = ("intersect_mass", "contained_mass", "containing_mass", "coverage")


@dataclass(frozen=True)
class CatalogScores:
    """Dataset-mode scores for a run of catalog summaries (SoA form)."""

    overlap: np.ndarray
    containment: np.ndarray
    coverage: np.ndarray

    def __len__(self) -> int:
        return len(self.overlap)

    def metric(self, name: str) -> np.ndarray:
        """The score array for one of :data:`DATASET_METRICS`."""
        if name not in DATASET_METRICS:
            raise ValueError(f"unknown dataset metric {name!r}, expected {DATASET_METRICS}")
        return getattr(self, name)


@dataclass(frozen=True)
class RegionScores:
    """Region-mode scores for a run of catalog summaries (SoA form)."""

    intersect_mass: np.ndarray
    contained_mass: np.ndarray
    containing_mass: np.ndarray
    coverage: np.ndarray

    def __len__(self) -> int:
        return len(self.intersect_mass)

    def metric(self, name: str) -> np.ndarray:
        """The score array for one of :data:`REGION_METRICS`."""
        if name not in REGION_METRICS:
            raise ValueError(f"unknown region metric {name!r}, expected {REGION_METRICS}")
        return getattr(self, name)


def _coverage_denominator(query: JoinSketch) -> float:
    """The query's occupied-cell count, floored at 1 so an empty query
    scores 0 everywhere instead of dividing by zero."""
    denom = float(query.occupancy.sum())
    return denom if denom > 0.0 else 1.0


def score_dataset_batch(stacked: StackedCatalog, query: JoinSketch) -> CatalogScores:
    """Score a query sketch against every summary at once.

    The whole computation is three ``minimum``+``sum`` reductions over
    the stacked channel blocks -- no per-summary Python dispatch.
    """
    blocks = stacked.blocks
    s_ii, s_cs, s_occ = blocks["n_ii"], blocks["n_cs"], blocks["occupancy"]
    n = len(s_ii)
    q_ii = query.n_ii[None]
    overlap = np.minimum(q_ii, s_ii).reshape(n, -1).sum(axis=1)
    containment = np.minimum(q_ii, s_cs).reshape(n, -1).sum(axis=1)
    shared = np.minimum(query.occupancy[None], s_occ).reshape(n, -1).sum(axis=1)
    return CatalogScores(
        overlap=overlap,
        containment=containment,
        coverage=shared / _coverage_denominator(query),
    )


def score_dataset_scalar(
    stacked: StackedCatalog, query: JoinSketch, i: int
) -> tuple[float, float, float]:
    """Per-pair reference: ``(overlap, containment, coverage)`` of the
    query against summary ``i``, computed one pair at a time.

    Kept because the property suite pins :func:`score_dataset_batch`
    to be bit-identical to this path.
    """
    blocks = stacked.blocks
    overlap = np.minimum(query.n_ii, blocks["n_ii"][i]).sum()
    containment = np.minimum(query.n_ii, blocks["n_cs"][i]).sum()
    shared = np.minimum(query.occupancy, blocks["occupancy"][i]).sum()
    return (
        float(overlap),
        float(containment),
        float(shared / _coverage_denominator(query)),
    )


def _validate_region(stacked: StackedCatalog, region: TileQuery) -> None:
    region.validate_against(stacked.reference)


def score_region_batch(stacked: StackedCatalog, region: TileQuery) -> RegionScores:
    """Score an aligned reference-grid region against every summary --
    four prefix-cube gathers per channel, O(1) per summary."""
    _validate_region(stacked, region)
    x_lo, x_hi = region.qx_lo, region.qx_hi
    y_lo, y_hi = region.qy_lo, region.qy_hi

    def region_sum(channel: str) -> np.ndarray:
        cube = stacked.cubes[channel]
        return (
            cube[:, x_hi, y_hi]
            - cube[:, x_lo, y_hi]
            - cube[:, x_hi, y_lo]
            + cube[:, x_lo, y_lo]
        )

    return RegionScores(
        intersect_mass=region_sum("n_ii"),
        contained_mass=region_sum("n_cs"),
        containing_mass=region_sum("n_cd"),
        coverage=region_sum("occupancy") / float(region.area),
    )


def score_region_scalar(
    stacked: StackedCatalog, region: TileQuery, i: int
) -> tuple[float, float, float, float]:
    """Per-pair reference: ``(intersect_mass, contained_mass,
    containing_mass, coverage)`` of the region against summary ``i``.

    Reads the same prefix cubes with the same four-corner arithmetic as
    :func:`score_region_batch`, so parity is exact."""
    _validate_region(stacked, region)
    x_lo, x_hi = region.qx_lo, region.qx_hi
    y_lo, y_hi = region.qy_lo, region.qy_hi

    def region_sum(channel: str) -> float:
        cube = stacked.cubes[channel]
        return float(
            cube[i, x_hi, y_hi]
            - cube[i, x_lo, y_hi]
            - cube[i, x_hi, y_lo]
            + cube[i, x_lo, y_lo]
        )

    return (
        region_sum("n_ii"),
        region_sum("n_cs"),
        region_sum("n_cd"),
        region_sum("occupancy") / float(region.area),
    )
