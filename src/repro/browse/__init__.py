"""The GeoBrowsing-style service facade, attribute catalog and the
resilient serving layer."""

from repro.browse.catalog import AttributeCatalog, SummedEstimator
from repro.browse.delta import DeltaPlan, DeltaTracker, plan_delta
from repro.browse.refine import PyramidSource, RefinementStep
from repro.browse.resilience import FallbackChain, ResilientBrowsingService
from repro.browse.service import (
    BrowseResult,
    GeoBrowsingService,
    resolve_browse_request,
)

__all__ = [
    "GeoBrowsingService",
    "BrowseResult",
    "AttributeCatalog",
    "SummedEstimator",
    "ResilientBrowsingService",
    "FallbackChain",
    "resolve_browse_request",
    "DeltaPlan",
    "DeltaTracker",
    "plan_delta",
    "PyramidSource",
    "RefinementStep",
]
