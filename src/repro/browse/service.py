"""A GeoBrowsing-style browsing service over the estimators.

The paper's motivating application (Section 1): a user selects a region,
grids it into rows x columns of tiles, picks a spatial relation
(*contains*, *contained* or *overlap*), and gets back per-tile counts to
render as a choropleth -- hundreds of trial queries in one interaction.

:class:`GeoBrowsingService` is that application built on the library's
public API: it owns a dataset summary (any Level-2 estimator) and turns a
``browse`` call into a count raster.  The exact evaluator plugs in the
same way, which is how the examples show estimate-vs-exact side by side.

It is a constructor, not a second implementation: the raster is answered
by the staged pipeline of
:class:`~repro.browse.resilience.ResilientBrowsingService` (resolve ->
delta -> cache probe -> chunk waves -> assemble), configured with no
pyramid.  Every raster is one chunk: a single
vectorised ``estimate_batch`` per raster -- a constant number of numpy
gathers regardless of ``rows x cols``.  Estimators without a
native batch path are adapted via
:func:`~repro.euler.base.as_batch_estimator`; wrap one in
:class:`~repro.euler.base.ScalarBatchFallback` to serve rasters through
the per-tile scalar loop (the parity tests do).

The request and result types live with the pipeline and are re-exported
here: :class:`BrowseResult`, :data:`RELATION_FIELDS` and
:func:`resolve_browse_request`.
"""

from __future__ import annotations

from repro.browse.delta import DeltaTracker
from repro.browse.resilience import (
    RELATION_FIELDS,
    BrowseResult,
    ResilientBrowsingService,
    resolve_browse_request,
)
from repro.cache import TileResultCache
from repro.euler.base import Level2Estimator
from repro.grid.grid import Grid
from repro.obs.instruments import BrowseInstrumentation

__all__ = ["GeoBrowsingService", "BrowseResult", "RELATION_FIELDS", "resolve_browse_request"]


class GeoBrowsingService(ResilientBrowsingService):
    """Browse a dataset summary with tiled relation queries.

    The browse pipeline configured for the plain case.  Its failure
    contract:

    - **One call.**  Each raster is one chunk and gets exactly one
      ``estimate_batch`` call, and no state carries a failure from one
      request to the next.
    - **Taxonomy errors only.**  A malformed request raises
      :class:`~repro.errors.InvalidRegionError`.  An estimator exception
      or a non-finite count raises
      :class:`~repro.errors.EstimatorFailedError` chained from the
      cause; a NaN never reaches a raster.

    Pass a :class:`~repro.obs.instruments.BrowseInstrumentation` as
    ``instruments`` to record request counts, per-stage timings and tile
    outcomes (every metric carries ``service="plain"``), and to get a
    span trace on every result's ``telemetry``; the default ``None``
    keeps the fast path uninstrumented.

    Pass a :class:`~repro.cache.TileResultCache` as ``cache`` to reuse
    tile counts across requests, and a
    :class:`~repro.browse.delta.DeltaTracker` as ``delta`` to answer each
    session's overlapping tiles by copying them from the session's
    previous raster.  Both default off; both are exact -- cached,
    delta-assembled and plain rasters are bit-identical.
    """

    def __init__(
        self,
        estimator: Level2Estimator,
        grid: Grid,
        *,
        instruments: BrowseInstrumentation | None = None,
        cache: TileResultCache | None = None,
        delta: DeltaTracker | None = None,
    ) -> None:
        self._service = "plain"
        super().__init__(
            estimator,
            grid,
            instruments=instruments,
            cache=cache,
            delta=delta,
        )
        # One chunk whatever the wave plan: every open tile leaves in a
        # single ``estimate_batch`` call.
        self._chunk_rows = None
