"""repro: Euler-histogram spatial browsing.

A complete reproduction of Sun, Agrawal & El Abbadi, *Exploring Spatial
Datasets with Histograms* (ICDE 2002): the interior-exterior relation
model, the Theorem 3.1 storage bound, the Euler histogram, and the
S-EulerApprox / EulerApprox / M-EulerApprox Level-2 estimators, together
with exact evaluators, Level-1 baselines, the paper's datasets and query
workloads, and a GeoBrowsing-style service.

Quickstart::

    from repro import (
        Grid, sp_skew, EulerHistogram, SEulerApprox, ExactEvaluator, query_set,
    )

    grid = Grid.world_1deg()
    data = sp_skew(100_000, seed=7)
    estimator = SEulerApprox(EulerHistogram.from_dataset(data, grid))
    exact = ExactEvaluator(data, grid)
    tile = query_set(grid, 10)[42]
    print(estimator.estimate(tile), exact.estimate(tile))
"""

from repro._exports import lazy_exports

# Each public name is imported from its subpackage on first use, so that
# importing one submodule (a spawned build worker imports
# ``repro.ingest.worker``) does not load the whole library.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines": (
            "BeigelTaninIntersect",
            "CellCountHistogram",
            "CumulativeDensity",
            "MinskewHistogram",
        ),
        "repro.browse": (
            "AttributeCatalog",
            "BrowseResult",
            "DeltaTracker",
            "FallbackChain",
            "GeoBrowsingService",
            "PyramidSource",
            "ResilientBrowsingService",
        ),
        "repro.cache": ("CacheKey", "TileResultCache"),
        "repro.datasets": (
            "DATASET_NAMES",
            "RectDataset",
            "adl_like",
            "by_name",
            "ca_road_like",
            "sp_skew",
            "sz_skew",
        ),
        "repro.euler": (
            "EulerApprox",
            "EulerHistogram",
            "EulerHistogramBuilder",
            "HistogramPyramid",
            "Level2BatchEstimator",
            "Level2Counts",
            "Level2CountsBatch",
            "Level2Estimator",
            "MaintainedEulerHistogram",
            "MEulerApprox",
            "QueryEdge",
            "SEulerApprox",
            "UnalignedEstimator",
            "as_batch_estimator",
            "tune_area_thresholds",
        ),
        "repro.exact": (
            "ContinuousExactEvaluator",
            "ExactContainsStore1D",
            "ExactEvaluator",
            "ExactLevel2Store2D",
            "exact_contains_bucket_count",
            "exact_contains_storage_bytes",
            "exact_tiling_counts",
        ),
        "repro.errors": (
            "BrowseError",
            "CatalogAlignmentError",
            "EstimatorFailedError",
            "InvalidRegionError",
            "OverloadedError",
            "SummaryCorruptError",
            "TenantQuotaExceededError",
        ),
        "repro.gateway": (
            "AdmissionController",
            "Gateway",
            "GatewayResponse",
            "GatewayServer",
            "ServiceTimeWindow",
            "TenantCatalog",
            "TileRequest",
        ),
        "repro.geometry": (
            "Level1Relation",
            "Level2Relation",
            "Level3Relation",
            "Polygon",
            "Polyline",
            "Rect",
            "dataset_from_geometries",
        ),
        "repro.grid": (
            "BoxQuery",
            "Grid",
            "GridND",
            "TileQuery",
            "TileQueryBatch",
            "aligned_query_cells",
        ),
        "repro.index": ("GridBucketIndex",),
        "repro.ingest": (
            "SyntheticChunkSource",
            "ZoneMap",
            "build_zoned",
            "open_chunk_source",
        ),
        "repro.joins": ("JoinSearchEngine", "JoinSearchResult", "JoinSketch", "SummaryCatalog"),
        "repro.metrics": ("average_relative_error",),
        "repro.selectivity": ("SelectivityEstimator", "SpatialQueryPlanner"),
        "repro.workloads": (
            "PAPER_QUERY_SET_SIZES",
            "browsing_tile_batch",
            "browsing_tiles",
            "generate_catalog_sources",
            "paper_query_sets",
            "query_set",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # geometry & grid
    "Rect",
    "Polygon",
    "Polyline",
    "dataset_from_geometries",
    "Level1Relation",
    "Level2Relation",
    "Level3Relation",
    "Grid",
    "GridND",
    "TileQuery",
    "TileQueryBatch",
    "BoxQuery",
    "aligned_query_cells",
    # datasets
    "RectDataset",
    "sp_skew",
    "sz_skew",
    "adl_like",
    "ca_road_like",
    "by_name",
    "DATASET_NAMES",
    # core estimators
    "EulerHistogram",
    "EulerHistogramBuilder",
    "MaintainedEulerHistogram",
    "HistogramPyramid",
    "UnalignedEstimator",
    "SEulerApprox",
    "EulerApprox",
    "QueryEdge",
    "MEulerApprox",
    "tune_area_thresholds",
    "Level2Counts",
    "Level2CountsBatch",
    "Level2Estimator",
    "Level2BatchEstimator",
    "as_batch_estimator",
    # exact
    "ExactEvaluator",
    "ContinuousExactEvaluator",
    "exact_tiling_counts",
    "ExactContainsStore1D",
    "ExactLevel2Store2D",
    "exact_contains_bucket_count",
    "exact_contains_storage_bytes",
    # baselines
    "CellCountHistogram",
    "CumulativeDensity",
    "BeigelTaninIntersect",
    "MinskewHistogram",
    # workloads & metrics
    "PAPER_QUERY_SET_SIZES",
    "query_set",
    "paper_query_sets",
    "browsing_tiles",
    "browsing_tile_batch",
    "average_relative_error",
    # browsing service
    "GeoBrowsingService",
    "BrowseResult",
    "AttributeCatalog",
    # resilient serving layer
    "ResilientBrowsingService",
    "FallbackChain",
    "PyramidSource",
    # cache & viewport deltas
    "TileResultCache",
    "CacheKey",
    "DeltaTracker",
    "BrowseError",
    "CatalogAlignmentError",
    "InvalidRegionError",
    "EstimatorFailedError",
    "SummaryCorruptError",
    "OverloadedError",
    "TenantQuotaExceededError",
    # serving gateway
    "Gateway",
    "GatewayResponse",
    "GatewayServer",
    "TileRequest",
    "TenantCatalog",
    "AdmissionController",
    "ServiceTimeWindow",
    # index & query optimization
    "GridBucketIndex",
    "SelectivityEstimator",
    "SpatialQueryPlanner",
    # cross-dataset join search
    "SummaryCatalog",
    "JoinSketch",
    "JoinSearchEngine",
    "JoinSearchResult",
    "generate_catalog_sources",
    # out-of-core construction
    "build_zoned",
    "ZoneMap",
    "SyntheticChunkSource",
    "open_chunk_source",
]
