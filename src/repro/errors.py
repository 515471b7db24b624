"""The serving layer's structured error taxonomy.

Every failure the browsing stack can surface to a client is one of these
types, replacing the bare ``ValueError``/``KeyError``/numpy exceptions
that used to leak out of validation, estimation and persistence code.  A
server wraps its request handler in ``except BrowseError`` and maps the
subclass to a response code; anything *outside* this taxonomy escaping
the stack is a bug, which is what the fault-injection suite asserts.
A missed deadline is not a failure: the browse returns what it answered,
with a validity mask, or a coarse raster from the pyramid.

The taxonomy lives at the package root (not under ``repro.browse``)
because the persistence layer (``repro.euler.histogram``,
``repro.datasets.base``) raises :class:`SummaryCorruptError` and must not
depend on the browsing facade above it.

Several subclasses also inherit ``ValueError``: callers that predate the
taxonomy and catch ``ValueError`` for invalid input or a corrupt file
keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "BrowseError",
    "CatalogAlignmentError",
    "InvalidRegionError",
    "EstimatorFailedError",
    "SummaryCorruptError",
    "OverloadedError",
    "TenantQuotaExceededError",
]


class BrowseError(Exception):
    """Base class of every structured serving-layer failure."""


class InvalidRegionError(BrowseError, ValueError):
    """The request itself is malformed: unknown relation, misaligned or
    out-of-space region, or an impossible tile partitioning.

    Also a ``ValueError`` so pre-taxonomy callers keep catching it.
    """


class EstimatorFailedError(BrowseError):
    """The estimator could not answer a chunk, and no pyramid level could
    rescue it.

    The estimator raised, returned the wrong shape or returned a
    non-finite count; that failure is chained as ``__cause__``.
    """


class OverloadedError(BrowseError):
    """The serving gateway shed this request instead of running it.

    Raised (or returned as a structured error response) when admission
    control decides the request cannot be served within its deadline --
    the queue is full, the remaining budget cannot cover the observed
    service time, or the budget expired while the request waited for a
    worker.  Shedding at admission is deliberate: a request that would
    only time out in queue wastes capacity every other request needs.

    ``retry_after_s`` is the backpressure hint: an estimate of when the
    queue will have drained enough for a retry to be admitted (``None``
    when the gateway cannot estimate, e.g. at shutdown).
    """

    def __init__(self, message: str, *, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        #: Suggested client backoff in seconds before retrying.
        self.retry_after_s = retry_after_s


class TenantQuotaExceededError(OverloadedError):
    """The tenant's concurrency quota is exhausted.

    A per-tenant failure, not a gateway-wide one: other tenants are
    unaffected, which is the point of the quota.  Subclasses
    :class:`OverloadedError` so retry-aware clients handle both kinds of
    backpressure with one ``except`` clause.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after_s: float | None = None,
        tenant: str = "",
    ) -> None:
        super().__init__(message, retry_after_s=retry_after_s)
        #: The tenant whose quota was exhausted.
        self.tenant = tenant


class CatalogAlignmentError(BrowseError, ValueError):
    """A summary cannot be stacked onto a join catalog's reference grid.

    Raised by :class:`repro.joins.SummaryCatalog` when a registered
    summary's grid does not tile the reference grid exactly -- different
    data-space extent, or a cell count that is not an integer multiple of
    the reference resolution per axis.  Resampling such a summary would
    silently change what its Level-2 counts mean, so misalignment is a
    structured registration error rather than a best-effort resample.

    Also a ``ValueError`` so pre-taxonomy callers keep catching it.
    """

    def __init__(
        self,
        message: str,
        *,
        summary_name: str = "",
        summary_cells: tuple[int, int] | None = None,
        reference_cells: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(message)
        #: Name the summary was being registered under.
        self.summary_name = summary_name
        #: The summary grid's ``(n1, n2)`` cell counts (``None`` when the
        #: failure happened before a grid could be resolved).
        self.summary_cells = summary_cells
        #: The reference grid's ``(n1, n2)`` cell counts.
        self.reference_cells = reference_cells


class SummaryCorruptError(BrowseError, ValueError):
    """A persisted summary (histogram or dataset ``.npz``) failed
    integrity verification: missing keys, wrong shapes/dtypes, invalid
    grid metadata, or a checksum mismatch.

    Also a ``ValueError`` so pre-taxonomy callers keep catching it.
    """
