"""Exact Level-2 evaluation and the Theorem 3.1 storage results.

Ground truth in this library is "exact at resolution c" (Section 3): the
Level-2 relation of an object/query pair as determined by the object's
snapped lattice footprint, which for grid-aligned queries coincides with
the continuous open-object/closed-query semantics.

Two independent implementations are provided and cross-tested: the
vectorised per-query :class:`ExactEvaluator` and the O(M) whole-tiling
:func:`exact_tiling_counts` used by the experiment harness.
"""

from repro.exact.continuous import ContinuousExactEvaluator
from repro.exact.evaluator import ExactEvaluator
from repro.exact.reconstruction import reconstruct_1d, reconstruct_2d
from repro.exact.storage import exact_contains_bucket_count, exact_contains_storage_bytes
from repro.exact.store import ExactContainsStore1D, ExactLevel2Store2D
from repro.exact.tiling import TilingCounts, exact_tiling_counts

__all__ = [
    "ExactEvaluator",
    "ContinuousExactEvaluator",
    "TilingCounts",
    "exact_tiling_counts",
    "ExactContainsStore1D",
    "ExactLevel2Store2D",
    "exact_contains_bucket_count",
    "exact_contains_storage_bytes",
    "reconstruct_1d",
    "reconstruct_2d",
]
