"""Attribute-filtered browsing: histograms per category.

GeoBrowsing queries combine the spatial constraint with "other attributes
such as date and subject type" (Section 1).  A histogram summarises only
geometry, so attribute filters are supported the standard way: partition
the collection by the categorical attribute and keep one summary per
category.  A browse with a category filter sums the selected categories'
estimates -- counts over disjoint partitions are additive, so accuracy is
whatever the per-category estimators deliver.

:class:`AttributeCatalog` owns the partitioning and the per-category
estimators; :meth:`AttributeCatalog.service` yields a
:class:`~repro.browse.service.GeoBrowsingService` scoped to any category
subset.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.browse.service import GeoBrowsingService
from repro.datasets.base import RectDataset
from repro.euler.base import Level2Estimator, as_batch_estimator
from repro.euler.estimates import Level2Counts, Level2CountsBatch
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery, TileQueryBatch

__all__ = ["AttributeCatalog", "SummedEstimator"]

#: Builds one estimator for one category's objects.
EstimatorFactory = Callable[[RectDataset, Grid], Level2Estimator]


def _default_factory(dataset: RectDataset, grid: Grid) -> Level2Estimator:
    return SEulerApprox(EulerHistogram.from_dataset(dataset, grid))


class SummedEstimator:
    """Sums the estimates of several estimators (disjoint partitions)."""

    def __init__(self, estimators: Sequence[Level2Estimator], label: str) -> None:
        if not estimators:
            raise ValueError("at least one estimator is required")
        self._estimators = tuple(estimators)
        self._label = label

    @property
    def name(self) -> str:
        return self._label

    def estimate(self, query: TileQuery) -> Level2Counts:
        """Sum of the member estimators' counts for one query."""
        total = Level2Counts(0.0, 0.0, 0.0, 0.0)
        for estimator in self._estimators:
            total = total + estimator.estimate(query)
        return total

    def estimate_batch(self, queries: TileQueryBatch) -> Level2CountsBatch:
        """Sum of the member estimators' batch results, member order
        matching the scalar path (bit-identical accumulation)."""
        n = len(queries)
        n_d = np.zeros(n, dtype=np.float64)
        n_cs = np.zeros(n, dtype=np.float64)
        n_cd = np.zeros(n, dtype=np.float64)
        n_o = np.zeros(n, dtype=np.float64)
        for estimator in self._estimators:
            part = as_batch_estimator(estimator).estimate_batch(queries)
            n_d = n_d + part.n_d
            n_cs = n_cs + part.n_cs
            n_cd = n_cd + part.n_cd
            n_o = n_o + part.n_o
        return Level2CountsBatch(n_d=n_d, n_cs=n_cs, n_cd=n_cd, n_o=n_o)


class AttributeCatalog:
    """Per-category summaries of one collection.

    Parameters
    ----------
    dataset, grid:
        The collection and its grid.
    categories:
        One label per object (any hashable values; e.g. subject types).
    factory:
        Builds the per-category estimator; defaults to S-EulerApprox.
        Pass e.g. ``lambda d, g: MEulerApprox(d, g, [1, 9, 100])`` for
        Level-2-heavy catalogues.
    """

    def __init__(
        self,
        dataset: RectDataset,
        grid: Grid,
        categories: Sequence,
        factory: EstimatorFactory = _default_factory,
    ) -> None:
        labels = np.asarray(categories)
        if labels.shape != (len(dataset),):
            raise ValueError(
                f"need one category per object: {labels.shape} vs {len(dataset)} objects"
            )
        self._grid = grid
        self._estimators: dict[object, Level2Estimator] = {}
        self._sizes: dict[object, int] = {}
        for value in np.unique(labels):
            mask = labels == value
            subset = dataset.select(mask, name=f"{dataset.name}[{value}]")
            key = value.item() if hasattr(value, "item") else value
            self._estimators[key] = factory(subset, grid)
            self._sizes[key] = len(subset)

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def categories(self) -> tuple:
        return tuple(self._estimators)

    def category_size(self, category) -> int:
        """Number of objects in one category."""
        return self._sizes[self._validate(category)]

    def _validate(self, category):
        if category not in self._estimators:
            raise KeyError(
                f"unknown category {category!r}; have {sorted(map(str, self.categories))}"
            )
        return category

    def estimator(self, categories: Sequence | None = None) -> Level2Estimator:
        """A (possibly filtered) estimator over the selected categories;
        None selects the whole collection."""
        if categories is None:
            selected = list(self.categories)
            if not selected:
                raise ValueError(
                    "catalog has no categories (built over an empty collection); "
                    "nothing to estimate over"
                )
        else:
            selected = [self._validate(c) for c in categories]
            if not selected:
                raise ValueError("category filter must select at least one category")
        label = "all" if categories is None else "+".join(str(c) for c in selected)
        return SummedEstimator(
            [self._estimators[c] for c in selected], f"Catalog[{label}]"
        )

    def service(self, categories: Sequence | None = None) -> GeoBrowsingService:
        """A browsing service scoped to the selected categories."""
        return GeoBrowsingService(self.estimator(categories), self._grid)

    def estimate(self, query: TileQuery, categories: Sequence | None = None) -> Level2Counts:
        """One tile's counts under a category filter."""
        return self.estimator(categories).estimate(query)
