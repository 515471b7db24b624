"""The browse pipeline: one staged path from a request to a raster.

The paper's motivating interaction (Section 1) answers a whole raster of
tile queries -- hundreds of trial queries -- from one summary.  Both
public services answer it here with one estimator:
:class:`ResilientBrowsingService` configures every stage, and
:class:`~repro.browse.service.GeoBrowsingService` is the same pipeline
with no pyramid and one chunk per raster.

:meth:`ResilientBrowsingService.browse` runs these stages in order; each
opens one span on the request trace and feeds
``repro_browse_stage_seconds{stage=<span>}``:

1. ``resolve`` -- validate the region, relation and tiling;
2. ``delta`` -- copy the tiles shared with the session's previous raster
   (:mod:`repro.browse.delta`);
3. ``cache_probe`` -- one vectorised :class:`~repro.cache.TileResultCache`
   probe over the tiles still open;
4. ``pyramid`` -- when the fine path may miss the deadline, a
   coarse-first raster for the open tiles from a
   :class:`~repro.browse.refine.PyramidSource`;
5. ``waves`` -- the open tiles in chunks, one after another on the
   calling thread, each one validated ``estimate_batch`` call through
   the :class:`FallbackChain` (one ``chunk`` span and stage sample per
   chunk); the deadline is checked before every chunk;
6. ``assemble`` -- the :class:`BrowseResult` with its validity mask,
   answering scope and pyramid annotation.

Tile corners are built only for the tiles that reach the cache or the
estimator.  Stages whose layer is not configured -- or that have no open
tiles left -- are skipped.

Waves are sized from the remaining budget.  The service learns a
seconds-per-tile cost from the chunks it answers, on its own clock
(:class:`ChunkCost`).  When the predicted cost of the open tiles, times
:data:`WAVE_HEADROOM`, fits a positive remaining budget (no deadline is
an unbounded one), the open tiles leave as one chunk and the pyramid
prefill is skipped (plan ``budget``).  A cold service (no cost sample
yet, plan ``cold``) and a tight or expired budget (plan ``pressure``)
answer in ``chunk_rows`` row chunks, after the coarse-first prefill
when a pyramid and a deadline are given.  Each request runs on the one
thread that called :meth:`ResilientBrowsingService.browse`; concurrent
requests share the service's cost and cache, which are lock-guarded.

An Euler tile costs a constant number of lookups into one in-process
summary (paper Section 5.2), so a chunk's answer -- or its failure --
depends only on the query.  The service therefore asks its estimator
once per chunk and degrades along one axis, the pyramid:

- **Deadlines.**  When the budget runs out between chunks, the
  remaining chunks are left NaN and the result carries a validity mask
  -- a partial choropleth beats a timeout page.  With a pyramid, those
  tiles keep the coarse counts of the prefill instead.  Row chunks are
  the granularity under pressure; when the whole raster fits the budget
  it is one chunk.
- **Failures.**  An exception, a wrong shape or a non-finite count
  fails the chunk, so NaN corruption never reaches the client.  With a
  pyramid, the chunk is rescued from the coarsest aligned level;
  without one, the service raises
  :class:`~repro.errors.EstimatorFailedError` chained from the cause --
  never a bare ``ValueError``.

A tile is reusable -- by the tile cache, a later viewport delta or the
gateway's finished rasters -- exactly when it is valid and not
pyramid-served.  The clock is injectable so the whole layer is
deterministic under test (see :mod:`repro.testing.faults`).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.browse.delta import DeltaTracker, plan_delta
from repro.browse.refine import PyramidSource
from repro.cache import CacheKey, TileResultCache, backing_summary, summary_generation, summary_token
from repro.errors import EstimatorFailedError, InvalidRegionError
from repro.euler.base import Level2BatchEstimator, Level2Estimator, as_batch_estimator
from repro.euler.estimates import RELATION_FIELDS
from repro.euler.pyramid import HistogramPyramid
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery, TileQueryBatch, aligned_query_cells
from repro.obs.instruments import BrowseInstrumentation
from repro.obs.trace import RequestTrace
from repro.workloads.tiles import (
    browsing_tile_batch_at,
    browsing_tiles,
    validate_browsing_tiling,
)

__all__ = [
    "ChunkCost",
    "FallbackChain",
    "ResilientBrowsingService",
]


@dataclass(frozen=True)
class BrowseResult:
    """One browsing interaction's result raster.

    ``counts[r, c]`` is the (possibly estimated) number of objects in the
    requested relation with tile ``(r, c)``; row 0 is the bottom row of the
    region.  The pipeline returns its arrays read-only, because one result
    can reach several clients and a session's viewport-delta tracker.

    ``valid`` is the per-tile validity mask: ``None`` (the common case)
    means every tile was answered; a boolean array of the raster's shape
    marks tiles the resilient serving path could not answer before its
    deadline -- those ``counts`` entries are NaN.

    ``telemetry`` is the request's span trace when the answering service
    was instrumented (``None`` otherwise): per-stage timings, per-chunk
    estimator attempts and outcomes, readable via
    ``result.telemetry.render()``.  It is excluded from equality so
    result comparison stays about the raster.

    ``scope`` is the scope this raster was answered under (summary
    identity and generation, estimator, relation field); a later raster
    under the same scope may copy its valid full-resolution tiles
    (:mod:`repro.browse.delta`).  Like ``telemetry`` it is excluded from
    equality.

    ``levels`` and ``error_bound`` are the pyramid-refinement annotation
    (:mod:`repro.browse.refine`): per tile, the pyramid level that
    answered it (``-1`` = authoritative full-resolution answer) and an
    upper bound on how far the broadcast coarse count can sit from the
    tile's full-resolution estimate.  ``None`` -- the common case -- means
    no tile was pyramid-served.  Excluded from equality like the other
    serving metadata.
    """

    region: TileQuery
    relation: str
    counts: np.ndarray
    valid: np.ndarray | None = field(default=None)
    telemetry: RequestTrace | None = field(default=None, compare=False, repr=False)
    scope: CacheKey | None = field(default=None, compare=False, repr=False)
    levels: np.ndarray | None = field(default=None, compare=False, repr=False)
    error_bound: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def rows(self) -> int:
        """Number of tile rows in the raster."""
        return self.counts.shape[0]

    @property
    def cols(self) -> int:
        """Number of tile columns in the raster."""
        return self.counts.shape[1]

    @cached_property
    def tiles(self) -> list[list[TileQuery]]:
        """The per-tile queries behind the raster, ``tiles[r][c]``
        matching ``counts[r, c]``.  Derived lazily from the region and the
        raster shape so the batch serving path never pays for building
        ``rows x cols`` Python objects unless a client drills down."""
        return browsing_tiles(self.region, self.rows, self.cols)

    @property
    def total(self) -> float:
        """Sum of the raster's counts."""
        return float(self.counts.sum())

    @property
    def is_complete(self) -> bool:
        """Whether every tile of the raster was answered."""
        return self.valid is None or bool(self.valid.all())

    @property
    def full_resolution(self) -> bool:
        """Whether every answered tile carries its full-resolution count
        (``True`` for rasters untouched by pyramid refinement).  A
        complete raster can still be coarse: under a tight deadline the
        resilient service answers every tile from a coarse pyramid level,
        giving ``is_complete`` without ``full_resolution``."""
        return self.levels is None or bool((self.levels < 0).all())

    @property
    def valid_fraction(self) -> float:
        """Fraction of tiles answered (1.0 for a complete raster)."""
        if self.valid is None:
            return 1.0
        return float(self.valid.mean()) if self.valid.size else 1.0

    def render_ascii(self, *, width: int = 4) -> str:
        """A terminal-friendly rendering of the raster (top row first),
        for the examples: rounded counts, right-aligned columns.  Tiles
        whose count is non-finite (NaN from a missed deadline, or
        corruption upstream) render as ``"?"`` instead of crashing
        ``int(round())``.

        ``width`` is a *minimum* column width: when any rendered count
        needs more characters, every column expands to the widest cell,
        so the raster always stays grid-aligned (a too-small ``width``
        used to misalign only the wide columns).
        """
        cells = [
            ["?" if not math.isfinite(v) else str(int(round(v))) for v in self.counts[r]]
            for r in range(self.rows - 1, -1, -1)
        ]
        cell_width = max(
            [width] + [len(cell) for row in cells for cell in row]
        )
        return "\n".join(
            " ".join(cell.rjust(cell_width) for cell in row) for row in cells
        )


def resolve_browse_request(
    grid: Grid, region: Rect | TileQuery, rows: int, cols: int, relation: str
) -> tuple[TileQuery, str]:
    """Validate one browse request against ``grid``.

    Returns the region as a cell span plus the
    :class:`~repro.euler.estimates.Level2Counts` field backing
    ``relation``.  Every way the request can be malformed -- unknown
    relation, misaligned or out-of-space world rectangle, span exceeding
    the grid, a ``rows x cols`` tiling that does not divide the span --
    raises :class:`~repro.errors.InvalidRegionError` (a ``ValueError``
    subclass, so pre-taxonomy callers keep working).  The ``resolve``
    stage and the gateway's front door both call it.
    """
    if relation not in RELATION_FIELDS:
        raise InvalidRegionError(
            f"unknown relation {relation!r}; expected one of {sorted(RELATION_FIELDS)}"
        )
    try:
        if isinstance(region, Rect):
            region = aligned_query_cells(grid, region)
        region.validate_against(grid)
        validate_browsing_tiling(region, rows, cols)
    except ValueError as exc:
        raise InvalidRegionError(str(exc)) from exc
    return region, RELATION_FIELDS[relation]


#: ``clock()`` -> seconds; monotonic in production, fake under test.
Clock = Callable[[], float]

#: Safety factor on a predicted wave: the open tiles leave as one chunk
#: only when their measured cost times this fits the remaining budget.
WAVE_HEADROOM = 4.0

#: Weight an older chunk keeps in :class:`ChunkCost` per newer chunk.
COST_DECAY = 0.9

#: Fraction of the deadline budget the pyramid prefill may spend
#: refining before it yields to the fine chunk path.
REFINE_FRACTION = 0.35


class ChunkCost:
    """A service's measured seconds per tile, learned from its chunks.

    A tile-weighted, decayed average of chunk seconds over chunk tiles:
    each observation adds its seconds and its tiles to two running sums
    after scaling both by :data:`COST_DECAY`.  A large chunk therefore
    outweighs a small one, so one overhead-dominated 2-tile chunk cannot
    make the next full raster look expensive.  Lock-guarded: the chunks
    of concurrent requests record into one instance.  ``chunks`` and
    ``tiles`` count every observation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds = 0.0
        self._weight = 0.0
        self._chunks = 0
        self._tiles = 0

    def observe(self, seconds: float, tiles: int) -> None:
        """Record one answered chunk of ``tiles`` tiles."""
        with self._lock:
            self._seconds = self._seconds * COST_DECAY + seconds
            self._weight = self._weight * COST_DECAY + tiles
            self._chunks += 1
            self._tiles += tiles

    @property
    def seconds_per_tile(self) -> float | None:
        """The predicted seconds per tile; ``None`` until a chunk was
        observed (a cold service)."""
        with self._lock:
            return self._seconds / self._weight if self._chunks else None

    @property
    def chunks(self) -> int:
        """Chunks observed."""
        with self._lock:
            return self._chunks

    @property
    def tiles(self) -> int:
        """Tiles in the chunks observed."""
        with self._lock:
            return self._tiles


class FallbackChain:
    """Answers tile-batch chunks with one validated ``estimate_batch``
    call each.

    ``tiers`` is a one-tuple: the batch-adapted estimator.  An exception,
    a wrong shape or a non-finite count fails the chunk with
    :class:`~repro.errors.EstimatorFailedError`, chained from the cause.
    With instruments, each failure counts into
    ``repro_tier_failures_total{tier,reason}``: ``error`` when
    ``estimate_batch`` raised, ``bad_output`` when the chain rejected
    its answer.
    """

    def __init__(
        self,
        estimator: Level2Estimator,
        *,
        instruments: BrowseInstrumentation | None = None,
    ) -> None:
        self._obs = instruments
        self.tiers: tuple[Level2BatchEstimator] = (as_batch_estimator(estimator),)

    def estimate_chunk_tiered(
        self,
        batch: TileQueryBatch,
        field_name: str,
        *,
        trace: RequestTrace | None = None,
    ) -> tuple[np.ndarray, Level2BatchEstimator]:
        """Answer one chunk of tile queries.

        Returns the float64 counts for ``field_name``, one per query, and
        the estimator that answered them.  When a trace is given, the
        call is recorded as an ``attempt:<estimator>`` span with its
        outcome.
        """
        (tier,) = self.tiers
        span_cm = trace.span(f"attempt:{tier.name}") if trace is not None else nullcontext()
        reason = "error"
        try:
            with span_cm:
                estimates = tier.estimate_batch(batch)
                # From here on a failure is the chain rejecting the answer.
                reason = "bad_output"
                values = np.asarray(getattr(estimates, field_name), dtype=np.float64)
                if values.shape != (len(batch),):
                    raise ValueError(f"returned shape {values.shape}")
                if not np.isfinite(values).all():
                    bad = int(np.count_nonzero(~np.isfinite(values)))
                    raise ValueError(f"returned {bad} non-finite count(s)")
        except Exception as exc:
            if self._obs is not None:
                self._obs.tier_failures.labels(tier=tier.name, reason=reason).inc()
            raise EstimatorFailedError(
                f"estimator {tier.name!r} failed a {len(batch)}-tile chunk: {exc}"
            ) from exc
        return values, tier


class ResilientBrowsingService:
    """A browsing service with deadlines, a pyramid and partial answers.

    Runs the staged browse pipeline (see the module docstring) with
    every layer configurable: the raster is answered in chunks by one
    estimator under a per-request deadline -- one chunk when the
    measured cost fits the remaining budget, row chunks otherwise.
    :class:`~repro.browse.service.GeoBrowsingService` is this class
    configured with one chunk per raster.

    Parameters
    ----------
    estimator:
        The Level-2 estimator answering every chunk, adapted to the
        batch protocol (:func:`~repro.euler.base.as_batch_estimator`).
    grid:
        The service's evaluation grid.
    chunk_rows:
        Raster rows per chunk when the budget is tight -- the
        deadline-check granularity under pressure.  A cold service (no
        chunk measured yet) uses it too; once the measured cost of the
        open tiles, times :data:`WAVE_HEADROOM`, fits the remaining
        budget, they leave as one chunk.
    clock:
        Injectable monotonic seconds; tests substitute a fake for
        determinism.
    instruments:
        An optional :class:`~repro.obs.instruments.BrowseInstrumentation`;
        when given, every request is traced (the trace rides on
        ``BrowseResult.telemetry``), estimator failures and tile outcomes
        are recorded, and its accuracy probe (if any) samples each
        answered raster.  ``None`` (the default) keeps the path
        uninstrumented.
    cache:
        An optional :class:`~repro.cache.TileResultCache`.  The raster is
        probed once, vectorised, before any chunk runs; hit tiles are
        answered immediately (they survive even a zero deadline) and
        only miss tiles reach the estimator.  Only the estimator's
        answers are cached, never pyramid counts.  Keys carry the
        summary's generation, so maintained-histogram updates invalidate
        stale entries for free.
    delta:
        An optional :class:`~repro.browse.delta.DeltaTracker`.  Tiles of
        the session's previous raster that coincide with this request's
        tiles (same scope/generation, tile extents and lattice-aligned
        offset) are copied and marked valid *before* any deadline check
        runs, so a pan's overlap survives even a zero budget; only the
        fresh band walks the cache-probe/estimator path.  Pyramid-served
        and unanswered tiles are never copied.
    pyramid:
        An optional :class:`~repro.euler.pyramid.HistogramPyramid` (or a
        prebuilt :class:`~repro.browse.refine.PyramidSource`) whose
        finest grid must equal the service grid -- the service's one
        degrade path.  Under a deadline the fine path may miss (a cold
        service, or a tight or expired budget), every tile not already
        answered by delta/cache is first served from the coarsest
        aligned pyramid level -- a complete, coarse-but-valid raster
        almost immediately -- then refined level-by-level while elapsed
        time stays under :data:`REFINE_FRACTION` of the budget, and the
        fine chunk path overwrites whatever it reaches in time.  A chunk
        the estimator fails is likewise rescued from the coarsest level
        instead of failing the request.  Pyramid-served tiles carry
        their level and error bound on the result (``levels`` /
        ``error_bound``) and are *never* written to the tile cache or
        reused by viewport deltas.
    """

    #: The ``service`` label on every metric this service records.
    _service = "resilient"

    def __init__(
        self,
        estimator: Level2Estimator,
        grid: Grid,
        *,
        chunk_rows: int = 4,
        clock: Clock = time.monotonic,
        instruments: BrowseInstrumentation | None = None,
        cache: TileResultCache | None = None,
        delta: DeltaTracker | None = None,
        pyramid: HistogramPyramid | PyramidSource | None = None,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be at least 1")
        if pyramid is not None and not isinstance(pyramid, PyramidSource):
            pyramid = PyramidSource(pyramid, grid=grid)
        elif isinstance(pyramid, PyramidSource) and pyramid.grid != grid:
            raise ValueError(
                "the pyramid source's finest grid must equal the service grid"
            )
        self._pyramid = pyramid
        self._chain = FallbackChain(estimator, instruments=instruments)
        self._grid = grid
        #: Raster rows per chunk under pressure; ``None`` answers every
        #: raster as one chunk.
        self._chunk_rows: int | None = chunk_rows
        self._cost = ChunkCost()
        self._clock = clock
        self._obs = instruments
        self._cache = cache
        self._delta = delta
        self._summary = backing_summary(self._chain.tiers[0])
        self._summary_token = summary_token(self._summary)

    @property
    def grid(self) -> Grid:
        """The service's evaluation grid."""
        return self._grid

    @property
    def chain(self) -> FallbackChain:
        """The chain answering chunks."""
        return self._chain

    @property
    def estimator_name(self) -> str:
        """The estimator's label."""
        return self._chain.tiers[0].name

    @property
    def cache(self) -> TileResultCache | None:
        """The tile-result cache, when one was configured."""
        return self._cache

    @property
    def delta(self) -> DeltaTracker | None:
        """The viewport-delta tracker, when one was configured."""
        return self._delta

    @property
    def pyramid(self) -> PyramidSource | None:
        """The pyramid refinement source, when one was configured."""
        return self._pyramid

    @property
    def chunk_cost(self) -> ChunkCost:
        """The seconds-per-tile cost learned from answered chunks."""
        return self._cost

    def cache_key(self, field_name: str) -> CacheKey:
        """The scope of this service's answers for ``field_name``: the
        summary's identity token and current generation plus the
        estimator's label."""
        return CacheKey(
            summary_id=self._summary_token,
            generation=summary_generation(self._summary),
            estimator_key=self._chain.tiers[0].name,
            field=field_name,
        )

    def browse(
        self,
        region: Rect | TileQuery,
        rows: int,
        cols: int,
        relation: str = "overlap",
        *,
        deadline: float | None = None,
        session: str = "default",
    ) -> BrowseResult:
        """Run one browsing interaction through the staged pipeline.

        Parameters
        ----------
        region:
            The selected region, either as a world rectangle (must be
            grid-aligned) or directly as a cell span.
        rows, cols:
            The tile partitioning the user requested.
        relation:
            One of ``contains``, ``contained``, ``overlap``, ``disjoint``,
            ``intersect``.  Malformed requests raise
            :class:`~repro.errors.InvalidRegionError`.
        deadline:
            Per-request budget in seconds on the service clock; ``None``
            means unbounded.  The budget is checked before each chunk,
            so a chunk in flight is never abandoned; when the whole
            raster fits it, the raster is one chunk.  Tiles left when it
            runs out are NaN and marked ``False`` in the result's
            validity mask, unless a pyramid level served them.
        session:
            The session key under the service's
            :class:`~repro.browse.delta.DeltaTracker` (when one is
            configured): the session's last raster is planned against
            for tile reuse, and this result replaces it.
        """
        obs = self._obs
        trace = obs.new_trace() if obs is not None else None
        started = self._clock()
        expired = False
        root_span = (
            trace.span("browse", relation=relation, rows=rows, cols=cols, deadline=deadline)
            if trace is not None
            else nullcontext()
        )
        with root_span:
            region, field_name = self._resolve(trace, region, rows, cols, relation)
            scope = self.cache_key(field_name)
            counts = np.full(rows * cols, np.nan)
            valid = np.zeros(rows * cols, dtype=bool)
            if self._delta is not None:
                reused = self._reuse_delta(trace, region, rows, cols, scope, session, counts)
                if reused is not None:
                    valid |= reused
            if self._cache is not None and not valid.all():
                hits = self._probe_cache(
                    trace, region, rows, cols, scope, np.flatnonzero(~valid), counts
                )
                valid[hits] = True
            open_tiles = np.flatnonzero(~valid)
            levels = bounds = None
            if self._pyramid is not None:
                levels = np.full(rows * cols, -1, dtype=np.int64)
                bounds = np.zeros(rows * cols)
            if open_tiles.size:
                plan, chunk_rows = self._plan_waves(rows, open_tiles.size, started, deadline)
                # The coarse-first prefill only pays when the fine path
                # may miss the deadline.
                if (
                    self._pyramid is not None
                    and deadline is not None
                    and plan != "budget"
                    and self._prefill(
                        trace, region, rows, cols, field_name, started, deadline,
                        open_tiles, counts, levels, bounds,
                    )
                ):
                    valid[open_tiles] = True
                expired = self._run_waves(
                    trace, region, rows, cols, field_name, scope, started, deadline,
                    plan, chunk_rows, open_tiles, counts, valid, levels, bounds,
                )
            result = self._assemble(
                trace, region, relation, rows, cols, scope, session,
                counts, valid, levels, bounds,
            )
        if obs is not None:
            elapsed = self._clock() - started
            answered = int(valid.sum())
            service = self._service
            obs.requests.labels(service=service, relation=relation).inc()
            obs.request_seconds.labels(service=service).observe(elapsed)
            obs.tiles.labels(service=service, outcome="answered").inc(answered)
            obs.tiles.labels(service=service, outcome="nan").inc(valid.size - answered)
            if deadline is not None:
                obs.deadline_margin.labels(service=service).set(deadline - elapsed)
            root = trace.spans[0].attrs
            root["valid_fraction"] = result.valid_fraction
            root["deadline_expired"] = expired
            if obs.accuracy is not None:
                obs.accuracy.observe(result, trace=trace)
        return result

    def _plan_waves(
        self, rows: int, n_open: int, started: float, deadline: float | None
    ) -> tuple[str, int]:
        """How ``n_open`` open tiles leave: the plan label and the rows
        per chunk.  ``budget`` -- the whole raster as one chunk -- when
        the measured cost of the open tiles times :data:`WAVE_HEADROOM`
        fits a positive remaining budget; otherwise ``chunk_rows``
        chunks, under ``cold`` (no cost sample yet) or ``pressure``."""
        chunk_rows = self._chunk_rows or rows
        per_tile = self._cost.seconds_per_tile
        if per_tile is None:
            return "cold", chunk_rows
        cost = per_tile * WAVE_HEADROOM * n_open
        remaining = math.inf if deadline is None else deadline - (self._clock() - started)
        if remaining > 0 and cost <= remaining:
            return "budget", rows
        return "pressure", chunk_rows

    # ------------------------------------------------------------------ #
    # pipeline stages, in order; each opens exactly one span
    # ------------------------------------------------------------------ #

    def _stage(self, trace: RequestTrace | None, name: str, **attrs):
        """The span of one stage; on a clean exit its duration feeds
        ``repro_browse_stage_seconds{stage=name}``."""
        if trace is None:
            return nullcontext()
        return self._timed_span(trace, name, attrs)

    @contextmanager
    def _timed_span(self, trace: RequestTrace, name: str, attrs: dict):
        with trace.span(name, **attrs) as span:
            yield span
        self._obs.stage_seconds.labels(service=self._service, stage=name).observe(
            span.seconds
        )

    def _resolve(
        self, trace, region: Rect | TileQuery, rows: int, cols: int, relation: str
    ) -> tuple[TileQuery, str]:
        """The request as a cell span plus its counts field."""
        with self._stage(trace, "resolve"):
            return resolve_browse_request(self._grid, region, rows, cols, relation)

    def _reuse_delta(
        self, trace, region: TileQuery, rows: int, cols: int, scope: CacheKey,
        session: str, counts: np.ndarray,
    ) -> np.ndarray | None:
        """Copy the tiles this raster shares with the session's last
        raster into ``counts``; returns the flat mask of copied tiles,
        ``None`` when nothing is reusable."""
        candidate = self._delta.lookup(session)
        with self._stage(trace, "delta"):
            plan = None
            if candidate is not None:
                plan = plan_delta(candidate, region, rows, cols, scope)
            if plan is not None:
                plan.fill(counts, candidate.counts)
        obs = self._obs
        if obs is not None:
            if plan is not None:
                outcome = "reused"
                obs.delta_tiles_reused.labels(service=self._service).inc(plan.n_reused)
            else:
                outcome = "incompatible" if candidate is not None else "cold"
            obs.delta_rasters.labels(service=self._service, outcome=outcome).inc()
        return None if plan is None else plan.reused

    def _probe_cache(
        self, trace, region: TileQuery, rows: int, cols: int, scope: CacheKey,
        open_tiles: np.ndarray, counts: np.ndarray,
    ) -> np.ndarray:
        """Answer the ``open_tiles`` seen before with one vectorised cache
        probe, writing them into ``counts``; returns their flat indices."""
        with self._stage(trace, "cache_probe", tiles=open_tiles.size):
            batch = browsing_tile_batch_at(region, rows, cols, open_tiles)
            values, hit = self._cache.probe(scope, batch)
            answered = open_tiles[hit]
            counts[answered] = values[hit]
        if self._obs is not None:
            self._obs.cache_hits.labels(service=self._service).inc(answered.size)
            self._obs.cache_misses.labels(service=self._service).inc(
                open_tiles.size - answered.size
            )
        return answered

    def _prefill(
        self, trace, region: TileQuery, rows: int, cols: int, field_name: str,
        started: float, deadline: float, open_tiles: np.ndarray,
        counts: np.ndarray, levels: np.ndarray, bounds: np.ndarray,
    ) -> bool:
        """Serve ``open_tiles`` coarse-first from the pyramid: the
        coarsest aligned level gives a complete raster almost at once,
        finer levels replace it while elapsed time stays inside the
        refinement budget.  Writes ``counts``/``levels``/``bounds``;
        returns whether any level was served.  The tiles stay open for
        the chunk waves; a coarse count never reaches the cache or a
        later viewport delta."""
        obs = self._obs
        whole_raster = open_tiles.size == counts.size
        rounds = 0
        with self._stage(trace, "pyramid", tiles=open_tiles.size) as span:
            for step in self._pyramid.plan(region, rows, cols):
                if rounds and (
                    self._clock() - started >= deadline * REFINE_FRACTION
                ):
                    break
                step_counts, step_bound = self._pyramid.raster(
                    step, rows, cols, field_name
                )
                if whole_raster:
                    # The common cold-viewport case: full-array writes
                    # instead of fancy-index gathers.
                    np.copyto(counts, step_counts.reshape(-1))
                    levels.fill(step.level)
                    np.copyto(bounds, step_bound.reshape(-1))
                else:
                    counts[open_tiles] = step_counts.reshape(-1)[open_tiles]
                    levels[open_tiles] = step.level
                    bounds[open_tiles] = step_bound.reshape(-1)[open_tiles]
                rounds += 1
                if obs is not None:
                    obs.pyramid_level_served.labels(
                        service=self._service, level=str(step.level)
                    ).inc()
                    if rounds == 1:
                        obs.pyramid_first_raster.labels(service=self._service).observe(
                            self._clock() - started
                        )
            if span is not None:
                span.attrs["rounds"] = rounds
        if obs is not None:
            obs.pyramid_refine_rounds.labels(service=self._service).observe(rounds)
        return rounds > 0

    def _run_waves(
        self, trace, region: TileQuery, rows: int, cols: int, field_name: str,
        scope: CacheKey, started: float, deadline: float | None, plan: str,
        chunk_rows: int, open_tiles: np.ndarray, counts: np.ndarray,
        valid: np.ndarray, levels: np.ndarray | None, bounds: np.ndarray | None,
    ) -> bool:
        """Answer ``open_tiles`` in chunks of ``chunk_rows`` rows, one
        after another, checking the deadline before each chunk.  Writes
        every answered chunk into the raster arrays and caches the
        estimator's answers; returns whether the deadline expired."""
        obs = self._obs
        coarse = None
        with self._stage(trace, "waves", tiles=open_tiles.size, plan=plan) as span:
            # Split the open tiles (row-major) at chunk boundaries.
            blocks = open_tiles // (cols * chunk_rows)
            chunks = (
                [open_tiles]
                if blocks[0] == blocks[-1]
                else np.split(open_tiles, np.flatnonzero(np.diff(blocks)) + 1)
            )
            if span is not None:
                span.attrs["chunks"] = len(chunks)
            for idx in chunks:
                if deadline is not None and self._clock() - started >= deadline:
                    if obs is not None:
                        obs.deadline_expirations.labels(service=self._service).inc()
                    return True
                batch, values = self._estimate_chunk(
                    trace, region, rows, cols, field_name, idx
                )
                if values is None:
                    # A failed chunk: coarse-but-valid from the coarsest
                    # pyramid level, never cached.
                    if coarse is None:
                        step = self._pyramid.plan(region, rows, cols)[0]
                        step_counts, step_bound = self._pyramid.raster(
                            step, rows, cols, field_name
                        )
                        coarse = (
                            step.level,
                            step_counts.reshape(-1),
                            step_bound.reshape(-1),
                        )
                    level, coarse_counts, coarse_bounds = coarse
                    values = coarse_counts[idx]
                    levels[idx] = level
                    bounds[idx] = coarse_bounds[idx]
                    if obs is not None:
                        obs.pyramid_rescues.labels(service=self._service).inc()
                else:
                    if levels is not None:
                        levels[idx] = -1
                        bounds[idx] = 0.0
                    if self._cache is not None:
                        self._cache.store(scope, batch, values)
                counts[idx] = values
                valid[idx] = True
        return False

    def _estimate_chunk(
        self, trace, region: TileQuery, rows: int, cols: int, field_name: str,
        idx: np.ndarray,
    ) -> tuple[TileQueryBatch, np.ndarray | None]:
        """One chunk through the chain: its corner batch and its values.
        The values are ``None`` when the estimator failed but a pyramid
        level can rescue the chunk.  An answered chunk's seconds on the
        service clock feed the cost the wave plan predicts from."""
        chunk_started = self._clock()
        batch = browsing_tile_batch_at(region, rows, cols, idx)
        band = f"{int(idx[0]) // cols}:{int(idx[-1]) // cols + 1}"
        with self._stage(trace, "chunk", rows=band, tiles=idx.size):
            try:
                values, _ = self._chain.estimate_chunk_tiered(
                    batch, field_name, trace=trace
                )
            except EstimatorFailedError:
                if self._pyramid is None or not self._pyramid.plan(region, rows, cols):
                    raise
                return batch, None
        self._cost.observe(self._clock() - chunk_started, idx.size)
        return batch, values

    def _assemble(
        self, trace, region: TileQuery, relation: str, rows: int, cols: int,
        scope: CacheKey, session: str, counts: np.ndarray, valid: np.ndarray,
        levels: np.ndarray | None, bounds: np.ndarray | None,
    ) -> BrowseResult:
        """The result raster with its validity mask, answering scope and --
        when a pyramid level answered a tile the chunks never overwrote --
        its refinement annotation; remembered for the session's next
        viewport delta."""
        with self._stage(trace, "assemble"):
            # Read-only: one result may reach many clients (coalesced
            # followers, reused finished rasters) and session trackers.
            for array in (counts, valid, levels, bounds):
                if array is not None:
                    array.setflags(write=False)
            coarse = levels is not None and bool((levels >= 0).any())
            result = BrowseResult(
                region=region,
                relation=relation,
                counts=counts.reshape(rows, cols),
                valid=None if valid.all() else valid.reshape(rows, cols),
                telemetry=trace,
                scope=scope,
                levels=levels.reshape(rows, cols) if coarse else None,
                error_bound=bounds.reshape(rows, cols) if coarse else None,
            )
            if self._delta is not None:
                self._delta.remember(session, result)
        return result
