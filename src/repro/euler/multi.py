"""M-EulerApprox: the Multi-resolution Euler Approximation (Section 5.4).

EulerApprox's O1/O2 cancellation degrades as queries grow relative to the
objects in play.  M-EulerApprox therefore partitions the dataset by object
area into ``m`` groups, builds one Euler histogram per group, and answers
each query by combining per-group partial answers, choosing the cheapest
sound algorithm per group:

for query ``q`` and group histogram ``H_i`` with area band
``[area(H_i), area(H_{i+1}))``:

- ``area(q) <= area(H_i)``: no object of the group fits inside the query,
  so ``N_cs^i = 0``; invoke S-EulerApprox for ``N_o^i`` (its ``N_o``
  estimate is immune to containing objects -- containers cancel between
  ``n'_ei`` and ``N_d``).
- ``area(q) >= area(H_{i+1})`` (and ``i < m-1``): no object of the group
  can contain the query, so S-EulerApprox's assumption holds; take both
  ``N_o^i`` and ``N_cs^i``.
- otherwise (the bands straddle, or ``i = m-1`` with an unbounded band):
  containers are possible; invoke EulerApprox.

Final results sum the partials; ``N_cd`` is the residual
``|S| - N_d - N_o - N_cs`` (the paper prints ``N_cd = |S| - N_o - N_cs``,
an evident typo -- without subtracting the disjoint count the formula
cannot be a count; ``N_d = |S| - n_ii`` is exact and computed per group).

Area comparisons use the paper's necessary-condition semantics ("no object
with area >= area(q) fits inside q"): an object can only be contained in a
query of equal or larger area, and can only contain a query of strictly
smaller area.  Areas are measured in unit cells, e.g. the paper's
``10 x 10`` threshold is ``100.0``.

In d dimensions (:meth:`MEulerApprox.from_boxes`) areas become volumes in
unit cells and the dispatch is the same, with one parity twist: for a
query no larger than the band, containers are possible, and in odd d
S-EulerApprox's ``N_o`` counts them twice (see
:meth:`~repro.euler.histogram.RegionSums.outside_sum`), so that branch
uses the parity-aware EulerApprox.  In even d the two share one ``N_o``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.base import RectDataset
from repro.euler.estimates import Level2Counts, Level2CountsBatch
from repro.euler.full import EulerApprox, QueryEdge
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND
from repro.grid.tiles_math import TileQuery, TileQueryBatch

__all__ = ["MEulerApprox", "area_partition", "validate_thresholds"]


def validate_thresholds(area_thresholds: Sequence[float]) -> tuple[float, ...]:
    """Validate an ``area(H_i)`` sequence: strictly increasing, first entry
    the unit-cell area 1 (the paper fixes ``area(H_0) = 1x1``)."""
    thresholds = tuple(float(t) for t in area_thresholds)
    if not thresholds:
        raise ValueError("at least one area threshold is required")
    if thresholds[0] != 1.0:
        raise ValueError(f"area(H_0) must be the unit cell area 1, got {thresholds[0]}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {thresholds}")
    return thresholds


def area_partition(
    dataset: RectDataset, grid: Grid, area_thresholds: Sequence[float]
) -> list[RectDataset]:
    """Split ``dataset`` into the paper's area groups.

    Group 0 holds areas in ``[0, t_1)`` (including ``area(H_0)=1`` objects
    below ``t_1``), group ``i`` holds ``[t_i, t_{i+1})``, the last group
    ``[t_{m-1}, inf)``.  Areas are in cell units on ``grid``.
    """
    thresholds = validate_thresholds(area_thresholds)
    areas = dataset.areas_in_cells(grid.cell_width, grid.cell_height)
    # Edges t_1 .. t_{m-1} slice the dataset into m bins.
    bins = np.digitize(areas, thresholds[1:], right=False)
    return [
        dataset.select(bins == i, name=f"{dataset.name}[H_{i}]")
        for i in range(len(thresholds))
    ]


class MEulerApprox:
    """Multi-resolution Euler Approximation over ``m`` area-banded
    histograms.

    Parameters
    ----------
    dataset, grid:
        The summarised dataset and its grid.
    area_thresholds:
        The ``area(H_i)`` sequence in unit cells, starting at 1.  The
        paper's Figure 18 configurations are e.g. ``[1, 9, 100]``
        (1x1, 3x3, 10x10) for the 3-histogram case.
    edge:
        Region A/B split edge forwarded to the per-group EulerApprox.
    """

    def __init__(
        self,
        dataset: RectDataset,
        grid: Grid,
        area_thresholds: Sequence[float],
        *,
        edge: QueryEdge = QueryEdge.LEFT,
    ) -> None:
        self._grid = grid
        self._thresholds = validate_thresholds(area_thresholds)
        groups = area_partition(dataset, grid, self._thresholds)
        self._histograms = [EulerHistogram.from_dataset(g, grid) for g in groups]
        self._simple = [SEulerApprox(h) for h in self._histograms]
        self._full = [EulerApprox(h, edge) for h in self._histograms]
        self._num_objects = len(dataset)

    @classmethod
    def from_histograms(
        cls,
        histograms: Sequence[EulerHistogram],
        grid: Grid,
        area_thresholds: Sequence[float],
        num_objects: int,
        *,
        edge: QueryEdge = QueryEdge.LEFT,
    ) -> "MEulerApprox":
        """Assemble the estimator from prebuilt per-group histograms.

        The dataset-free constructor: ``histograms[i]`` must be the Euler
        histogram of area group ``i`` under ``area_thresholds`` (one per
        threshold) and ``num_objects`` the total object count across
        groups.  Query answers are identical to building from the dataset,
        which is how per-group histograms built out of core
        (:mod:`repro.ingest`) are assembled into the estimator.
        """
        thresholds = validate_thresholds(area_thresholds)
        histograms = list(histograms)
        if len(histograms) != len(thresholds):
            raise ValueError(
                f"expected {len(thresholds)} group histogram(s) for "
                f"{len(thresholds)} threshold(s), got {len(histograms)}"
            )
        if num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        self = cls.__new__(cls)
        self._grid = grid
        self._thresholds = thresholds
        self._histograms = histograms
        self._simple = [SEulerApprox(h) for h in histograms]
        self._full = [EulerApprox(h, edge) for h in histograms]
        self._num_objects = int(num_objects)
        return self

    @classmethod
    def from_boxes(
        cls,
        grid: GridND,
        lows: np.ndarray,
        highs: np.ndarray,
        area_thresholds: Sequence[float],
    ) -> "MEulerApprox":
        """Build from ``(M, d)`` world-coordinate boxes on a d-dimensional
        grid, banding objects by their volume in unit cells (the ``H_0``
        threshold is the d-dimensional unit cell, 1)."""
        thresholds = validate_thresholds(area_thresholds)
        lows, highs = grid.box_corners(lows, highs)
        volumes = np.prod((highs - lows) / np.asarray(grid.cell_sizes), axis=1)
        bins = np.digitize(volumes, thresholds[1:], right=False)
        histograms = [
            EulerHistogram.from_boxes(grid, lows[bins == i], highs[bins == i])
            for i in range(len(thresholds))
        ]
        return cls.from_histograms(histograms, grid, thresholds, lows.shape[0])

    @property
    def name(self) -> str:
        return f"M-EulerApprox(m={self.num_histograms})"

    @property
    def num_histograms(self) -> int:
        return len(self._histograms)

    @property
    def area_thresholds(self) -> tuple[float, ...]:
        return self._thresholds

    @property
    def edge(self) -> QueryEdge:
        """The Region A/B split edge forwarded to the per-group
        EulerApprox instances."""
        return self._full[0].edge

    @property
    def histograms(self) -> tuple[EulerHistogram, ...]:
        return tuple(self._histograms)

    @property
    def num_objects(self) -> int:
        return self._num_objects

    @property
    def nbytes(self) -> int:
        """Total storage across all group histograms (the "slightly
        increased space complexity" of Section 7)."""
        return sum(h.nbytes for h in self._histograms)

    def estimate(self, query: TileQuery | BoxQuery) -> Level2Counts:
        """Combine per-group partial answers as described above."""
        query.validate_against(self._grid)
        q_area = float(query.volume)
        m = self.num_histograms
        small = self._full if self._grid.ndim % 2 else self._simple

        n_d = 0.0
        n_o = 0.0
        n_cs = 0.0
        for i in range(m):
            if self._histograms[i].num_objects == 0:
                continue
            # Group 0's band really starts at 0 (it stores "areas from 0 to
            # H_1", Section 5.4), so sub-cell objects in it can always be
            # contained in a query; the paper's area(H_0)=1 label is only
            # the unit-cell tag, not the band's lower bound.
            band_lo = 0.0 if i == 0 else self._thresholds[i]
            band_hi = self._thresholds[i + 1] if i + 1 < m else float("inf")
            if q_area <= band_lo:
                # Nothing in this group fits inside the query; containers
                # may exist, so odd d needs EulerApprox's N_o.
                partial = small[i].estimate(query)
                n_cs_i = 0.0
            elif q_area >= band_hi:
                # Nothing in this group can contain the query.
                partial = self._simple[i].estimate(query)
                n_cs_i = partial.n_cs
            else:
                partial = self._full[i].estimate(query)
                n_cs_i = partial.n_cs
            n_d += partial.n_d
            n_o += partial.n_o
            n_cs += n_cs_i

        n_cd = float(self._num_objects) - n_d - n_o - n_cs
        return Level2Counts(n_d=n_d, n_cs=n_cs, n_cd=n_cd, n_o=n_o)

    def estimate_batch(self, queries: TileQueryBatch) -> Level2CountsBatch:
        """Vectorised :meth:`estimate` over a query batch.

        The per-group algorithm choice depends only on the query's area
        relative to the group's band, so it vectorises as three masks per
        group: the simple batch estimate always runs (its cost is a
        constant number of gathers), the full batch estimate only when
        some query's area straddles the band, and ``np.where`` selects
        per query.  Accumulation order matches the scalar path exactly,
        keeping results bit-identical.
        """
        queries.validate_against(self._grid)
        q_area = queries.area.astype(np.float64)
        m = self.num_histograms
        n = len(queries)

        n_d = np.zeros(n, dtype=np.float64)
        n_o = np.zeros(n, dtype=np.float64)
        n_cs = np.zeros(n, dtype=np.float64)
        for i in range(m):
            if self._histograms[i].num_objects == 0:
                continue
            band_lo = 0.0 if i == 0 else self._thresholds[i]
            band_hi = self._thresholds[i + 1] if i + 1 < m else float("inf")
            m_small = q_area <= band_lo
            m_large = ~m_small & (q_area >= band_hi)
            m_mid = ~m_small & ~m_large

            simple = self._simple[i].estimate_batch(queries)
            if m_mid.any():
                full = self._full[i].estimate_batch(queries)
                n_d = n_d + np.where(m_mid, full.n_d, simple.n_d)
                n_o = n_o + np.where(m_mid, full.n_o, simple.n_o)
                n_cs = n_cs + np.where(
                    m_mid, full.n_cs, np.where(m_small, 0.0, simple.n_cs)
                )
            else:
                n_d = n_d + simple.n_d
                n_o = n_o + simple.n_o
                n_cs = n_cs + np.where(m_small, 0.0, simple.n_cs)

        n_cd = float(self._num_objects) - n_d - n_o - n_cs
        return Level2CountsBatch(n_d=n_d, n_cs=n_cs, n_cd=n_cd, n_o=n_o)
