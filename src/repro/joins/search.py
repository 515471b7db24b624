"""The catalog scan engine: top-k join search with pyramid pruning.

:class:`JoinSearchEngine` answers "which of these hundreds of summaries
most overlaps this query?" two ways:

- **Exhaustive** -- one vectorised kernel call over the stacked blocks,
  on the calling thread.  Region-mode searches are always exhaustive:
  the prefix-cube kernel is O(1) per candidate, so there is nothing for
  a coarse filter to save.

- **Pyramid-pruned** (dataset mode) -- the planner scores the catalog's
  *coarsest* level first and only fully scores candidates whose coarse
  upper bound can still reach the top-k.

**Pruning bound.**  Every dataset metric is a sum of per-cell
``min(q_c, s_c)`` over non-negative channels (coverage divided by a
query constant).  For any cell block ``B``,
``sum_{c in B} min(q_c, s_c) <= min(sum_B q, sum_B s)``, and a pyramid
level's cell holds exactly ``sum_B`` of its descendants -- so the same
``min``+``sum`` kernel applied to a coarse level upper-bounds the
level-0 score.  At level 0 the "bound" *is* the exact score, which is
what terminates refinement.

**Planner.**  Rank all candidates by coarsest bound; fully score a seed
pool of the most promising (``max(4k, 64)``, capped at the catalog
size -- coarse bounds are loose, so a pool of exactly ``k`` often seeds
a uselessly low threshold) to establish the threshold
``(tau, tau_idx)`` -- the k-th ranked seed's exact score and
registration index; prune every candidate
whose bound is strictly below ``tau`` *or* ties ``tau`` with a higher
registration index; refine the survivors' bounds level by level,
re-pruning against the threshold, until the finest level resolves them
exactly.  Soundness of the tie rule: seeds are ranked score-descending
with ties broken by ascending index, so every seed either out-scores a
``(score == tau, index > tau_idx)`` candidate or ties it with a smaller
index -- all ``k`` seeds beat it, and a candidate with
``bound <= tau`` has ``score < tau`` or ties it.  (Without the tie rule
a sparse query whose k-th score is 0 would prune nothing: every bound
is ``>= 0``.)  Hence the pruned top-k equals the exhaustive top-k --
scores, order and tie-breaks (ties rank by registration index; the
property suite pins this).  Pruned counts are logged per level in the
result and in the ``repro_join_*`` metrics -- never silently dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import CatalogAlignmentError
from repro.grid.tiles_math import TileQuery
from repro.joins.catalog import SummaryCatalog, coarsen_ladder
from repro.joins.scoring import (
    DATASET_METRICS,
    REGION_METRICS,
    CatalogScores,
    RegionScores,
    _coverage_denominator,
    score_dataset_batch,
    score_region_batch,
)
from repro.joins.sketch import JoinSketch

__all__ = ["JoinSearchEngine", "JoinSearchResult", "LevelStats"]

#: Floor of the pruning planner's default seed-pool size.
_MIN_SEED_POOL = 64


@dataclass(frozen=True)
class LevelStats:
    """One pyramid level's contribution to a pruned search."""

    #: Pyramid level index (0 = finest / exact).
    level: int
    #: The level's channel-grid shape ``(lx, ly)``.
    shape: tuple[int, int]
    #: Candidates whose bound (or exact score, at level 0) was evaluated.
    evaluated: int
    #: Candidates eliminated at this level (bound strictly below tau).
    pruned: int


@dataclass(frozen=True)
class JoinSearchResult:
    """A ranked top-k answer plus the scan's accounting.

    ``indices``/``names``/``scores`` are the ranked answer (best first;
    ties broken by registration index).  ``fully_scored`` + ``pruned``
    always equals ``candidates``: every candidate is either exactly
    scored or provably unable to reach the top-k -- no silent caps.
    """

    mode: str
    metric: str
    k: int
    indices: np.ndarray
    names: tuple[str, ...]
    scores: np.ndarray
    candidates: int
    fully_scored: int
    pruned: int
    levels: tuple[LevelStats, ...] = ()
    elapsed_s: float = 0.0
    #: Catalog generation the scores were computed against.
    generation: int = 0
    _dataset_scores: CatalogScores | None = field(default=None, repr=False)
    _region_scores: RegionScores | None = field(default=None, repr=False)


class JoinSearchEngine:
    """Top-k catalog search over one :class:`SummaryCatalog`.

    Parameters
    ----------
    catalog:
        The catalog to scan.  Its ``stacked()`` view is fetched per
        search, so registrations between searches are picked up.
    instrumentation:
        An optional :class:`~repro.obs.instruments.JoinInstrumentation`.
    seed_pool:
        How many bound-ranked candidates the pruning planner exactly
        scores to establish its top-k threshold; ``None`` picks
        ``max(4k, 64)`` (capped at the catalog size).  Must be at least
        ``k`` when given.
    """

    def __init__(
        self,
        catalog: SummaryCatalog,
        *,
        instrumentation=None,
        seed_pool: int | None = None,
    ) -> None:
        if seed_pool is not None and seed_pool < 1:
            raise ValueError("seed_pool must be at least 1")
        self._catalog = catalog
        self._instr = instrumentation
        self._seed_pool = seed_pool

    @property
    def catalog(self) -> SummaryCatalog:
        return self._catalog

    # ------------------------------------------------------------------ #
    # public search entry points
    # ------------------------------------------------------------------ #

    def search_dataset(
        self,
        query: JoinSketch,
        *,
        metric: str = "overlap",
        k: int = 10,
        prune: bool = True,
    ) -> JoinSearchResult:
        """Rank the catalog against a query sketch; top-``k`` best first.

        ``prune=True`` runs the pyramid planner (identical ranking,
        fewer fully-scored candidates); ``prune=False`` forces the
        exhaustive vectorised scan.
        """
        if metric not in DATASET_METRICS:
            raise ValueError(
                f"unknown dataset metric {metric!r}, expected one of {DATASET_METRICS}"
            )
        if k < 1:
            raise ValueError("k must be at least 1")
        if query.reference != self._catalog.reference_grid:
            raise CatalogAlignmentError(
                f"query sketch {query.name!r} was built on a "
                f"{query.reference.n1}x{query.reference.n2} reference grid, the "
                f"catalog uses "
                f"{self._catalog.reference_grid.n1}x{self._catalog.reference_grid.n2}",
                summary_name=query.name,
                summary_cells=(query.reference.n1, query.reference.n2),
                reference_cells=(
                    self._catalog.reference_grid.n1,
                    self._catalog.reference_grid.n2,
                ),
            )
        return self._run(
            mode="dataset",
            metric=metric,
            k=k,
            prune=prune,
            query=query,
        )

    def search_region(
        self, region: TileQuery, *, metric: str = "intersect_mass", k: int = 10
    ) -> JoinSearchResult:
        """Rank the catalog against an aligned reference-grid region.

        Always exhaustive: region scoring is four prefix-cube gathers
        per candidate, cheaper than any bound that could prune it.
        """
        if metric not in REGION_METRICS:
            raise ValueError(
                f"unknown region metric {metric!r}, expected one of {REGION_METRICS}"
            )
        if k < 1:
            raise ValueError("k must be at least 1")
        return self._run(mode="region", metric=metric, k=k, prune=False, query=region)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _run(self, *, mode, metric, k, prune, query) -> JoinSearchResult:
        start = time.perf_counter()
        stacked = self._catalog.stacked()
        n = len(stacked)
        if mode == "region":
            result = self._exhaustive(stacked, query, mode, metric, k)
        elif prune and n > k and len(stacked.levels) > 1:
            result = self._pruned(stacked, query, metric, k)
        else:
            result = self._exhaustive(stacked, query, mode, metric, k)
        result = replace(result, elapsed_s=time.perf_counter() - start)
        self._record(result)
        return result

    def _record(self, result: JoinSearchResult) -> None:
        if self._instr is None:
            return
        self._instr.searches.labels(mode=result.mode, metric=result.metric).inc()
        self._instr.candidates.labels(mode=result.mode, outcome="scored").inc(
            result.fully_scored
        )
        self._instr.candidates.labels(mode=result.mode, outcome="pruned").inc(
            result.pruned
        )
        self._instr.search_seconds.labels(mode=result.mode).observe(result.elapsed_s)
        self._instr.catalog_summaries.set(len(self._catalog))

    def _exhaustive(self, stacked, query, mode, metric, k) -> JoinSearchResult:
        n = len(stacked)
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return JoinSearchResult(
                mode=mode,
                metric=metric,
                k=k,
                indices=np.empty(0, dtype=np.int64),
                names=(),
                scores=empty,
                candidates=0,
                fully_scored=0,
                pruned=0,
                generation=stacked.generation,
            )
        scores_obj: CatalogScores | RegionScores = (
            score_dataset_batch(stacked, query)
            if mode == "dataset"
            else score_region_batch(stacked, query)
        )
        values = scores_obj.metric(metric)
        order = np.lexsort((np.arange(n), -values))[:k]
        return JoinSearchResult(
            mode=mode,
            metric=metric,
            k=k,
            indices=order.astype(np.int64),
            names=tuple(stacked.names[i] for i in order),
            scores=values[order],
            candidates=n,
            fully_scored=n,
            pruned=0,
            generation=stacked.generation,
            _dataset_scores=scores_obj if mode == "dataset" else None,
            _region_scores=scores_obj if mode == "region" else None,
        )

    @staticmethod
    def _bound(level: dict, q_level: dict, metric: str, denom: float, index) -> np.ndarray:
        """Upper bound (exact at level 0) of ``metric`` for a candidate
        subset at one pyramid level -- the same ``min``+``sum`` kernel as
        the exhaustive scan, applied to coarse channels."""
        if metric == "overlap":
            q, s = q_level["n_ii"], level["n_ii"]
        elif metric == "containment":
            q, s = q_level["n_ii"], level["n_cs"]
        else:  # coverage
            q, s = q_level["occupancy"], level["occupancy"]
        s = s if index is None else s[index]
        values = np.minimum(q[None], s).reshape(len(s), -1).sum(axis=1)
        if metric == "coverage":
            values = values / denom
        return values

    def _pruned(self, stacked, query: JoinSketch, metric: str, k: int) -> JoinSearchResult:
        n = len(stacked)
        levels = stacked.levels
        coarsest = len(levels) - 1
        q_levels = coarsen_ladder(query.channels, len(levels))
        denom = _coverage_denominator(query)
        stats: list[LevelStats] = []

        def shape_of(level: int) -> tuple[int, int]:
            arr = levels[level]["n_ii"]
            return (arr.shape[1], arr.shape[2])

        # Coarsest bounds for every candidate; seed the threshold with the
        # exact scores of the k most promising.
        bounds = self._bound(levels[coarsest], q_levels[coarsest], metric, denom, None)
        order = np.lexsort((np.arange(n), -bounds))
        pool = (
            max(self._seed_pool, k)
            if self._seed_pool is not None
            else max(4 * k, _MIN_SEED_POOL)
        )
        pool = min(pool, n)
        seed = np.sort(order[:pool])
        seed_scores = self._bound(levels[0], q_levels[0], metric, denom, seed)
        # The k-th ranked seed (score descending, ties by ascending
        # registration index) fixes the pruning threshold.
        kth = np.lexsort((seed, -seed_scores))[k - 1]
        tau = float(seed_scores[kth])
        tau_idx = int(seed[kth])

        def survives(candidate_bounds: np.ndarray, candidates: np.ndarray) -> np.ndarray:
            return (candidate_bounds > tau) | (
                (candidate_bounds == tau) & (candidates <= tau_idx)
            )

        survivors = np.sort(order[pool:])
        keep = survives(bounds[survivors], survivors)
        stats.append(
            LevelStats(
                level=coarsest,
                shape=shape_of(coarsest),
                evaluated=n,
                pruned=int(np.count_nonzero(~keep)),
            )
        )
        survivors = survivors[keep]

        scored_idx = [seed]
        scored_vals = [seed_scores]
        for level in range(coarsest - 1, -1, -1):
            if survivors.size == 0:
                break
            values = self._bound(levels[level], q_levels[level], metric, denom, survivors)
            if level == 0:
                scored_idx.append(survivors)
                scored_vals.append(values)
                stats.append(
                    LevelStats(level=0, shape=shape_of(0), evaluated=int(survivors.size), pruned=0)
                )
            else:
                keep = survives(values, survivors)
                stats.append(
                    LevelStats(
                        level=level,
                        shape=shape_of(level),
                        evaluated=int(survivors.size),
                        pruned=int(np.count_nonzero(~keep)),
                    )
                )
                survivors = survivors[keep]

        all_idx = np.concatenate(scored_idx)
        all_vals = np.concatenate(scored_vals)
        rank = np.lexsort((all_idx, -all_vals))[:k]
        fully_scored = int(all_idx.size)
        return JoinSearchResult(
            mode="dataset",
            metric=metric,
            k=k,
            indices=all_idx[rank].astype(np.int64),
            names=tuple(stacked.names[i] for i in all_idx[rank]),
            scores=all_vals[rank],
            candidates=n,
            fully_scored=fully_scored,
            pruned=n - fully_scored,
            levels=tuple(stats),
            generation=stacked.generation,
        )
