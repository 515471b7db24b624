"""Cross-dataset join search: Euler histograms as join sketches.

The paper's Level-2 counts (``N_o``, ``N_cs``, ``N_cd``) are the
sufficient statistics for estimating how much two datasets overlap
without touching raw objects -- the workload "Joinable Search over
Multi-source Spatial Datasets" formalises.  This package is that
workload as a catalog-scale scan engine:

- :mod:`repro.joins.sketch`   -- fixed-size per-summary signatures on a
  shared reference grid, extractable from all four estimator families;
- :mod:`repro.joins.catalog`  -- :class:`SummaryCatalog`, stacking
  hundreds of sketches into contiguous ``(n, gx, gy)`` SoA blocks with
  prefix-sum cubes and a GeoBlocks-style coarsening ladder;
- :mod:`repro.joins.scoring`  -- vectorised overlap/containment/coverage
  kernels plus the scalar per-pair references they are parity-pinned to;
- :mod:`repro.joins.search`   -- :class:`JoinSearchEngine`, exhaustive
  (one kernel call) or pyramid-pruned top-k with sound upper bounds,
  generation-keyed score caching and ``repro_join_*`` metrics;
- :mod:`repro.joins.accuracy` -- ARE evaluation against
  :class:`~repro.exact.evaluator.ExactEvaluator` ground truth.

See DESIGN.md section 18 and ``repro join-search`` for the CLI surface.
"""

from repro.joins.accuracy import (
    dataset_score_are,
    exact_catalog,
    region_mass_vs_count,
    region_score_are,
)
from repro.joins.catalog import (
    StackedCatalog,
    SummaryCatalog,
    coarsen_channel,
    coarsen_ladder,
    level_shapes,
)
from repro.joins.scoring import (
    DATASET_METRICS,
    REGION_METRICS,
    CatalogScores,
    RegionScores,
    score_dataset_batch,
    score_dataset_scalar,
    score_region_batch,
    score_region_scalar,
)
from repro.joins.search import JoinSearchEngine, JoinSearchResult, LevelStats
from repro.joins.sketch import CHANNELS, JoinSketch, estimator_grid, estimator_num_objects

__all__ = [
    "CHANNELS",
    "DATASET_METRICS",
    "REGION_METRICS",
    "CatalogScores",
    "JoinSearchEngine",
    "JoinSearchResult",
    "JoinSketch",
    "LevelStats",
    "RegionScores",
    "StackedCatalog",
    "SummaryCatalog",
    "coarsen_channel",
    "coarsen_ladder",
    "dataset_score_are",
    "estimator_grid",
    "estimator_num_objects",
    "exact_catalog",
    "level_shapes",
    "region_mass_vs_count",
    "region_score_are",
    "score_dataset_batch",
    "score_dataset_scalar",
    "score_region_batch",
    "score_region_scalar",
]
