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

from repro.baselines import (
    BeigelTaninIntersect,
    CellCountHistogram,
    CumulativeDensity,
    MinskewHistogram,
)
from repro.browse import (
    AttributeCatalog,
    BrowseResult,
    CircuitBreaker,
    DeltaSource,
    DeltaTracker,
    FallbackChain,
    GeoBrowsingService,
    PyramidSource,
    ResilientBrowsingService,
    RetryPolicy,
)
from repro.cache import CacheKey, TileResultCache
from repro.datasets import (
    DATASET_NAMES,
    RectDataset,
    adl_like,
    by_name,
    ca_road_like,
    sp_skew,
    sz_skew,
)
from repro.euler import (
    EulerApprox,
    EulerHistogram,
    EulerHistogramBuilder,
    HistogramPyramid,
    Level2BatchEstimator,
    Level2Counts,
    Level2CountsBatch,
    Level2Estimator,
    MaintainedEulerHistogram,
    MEulerApprox,
    QueryEdge,
    SEulerApprox,
    UnalignedEstimator,
    as_batch_estimator,
    tune_area_thresholds,
)
from repro.exact import (
    ContinuousExactEvaluator,
    ExactContainsStore1D,
    ExactEvaluator,
    ExactLevel2Store2D,
    exact_contains_bucket_count,
    exact_contains_storage_bytes,
    exact_tiling_counts,
)
from repro.errors import (
    BrowseError,
    CatalogAlignmentError,
    DeadlineExceededError,
    EstimatorFailedError,
    InvalidRegionError,
    OverloadedError,
    SummaryCorruptError,
    TenantQuotaExceededError,
)
from repro.gateway import (
    AdmissionController,
    Gateway,
    GatewayResponse,
    GatewayServer,
    ServiceTimeWindow,
    TenantCatalog,
    TileRequest,
)
from repro.geometry import (
    Level1Relation,
    Level2Relation,
    Level3Relation,
    Polygon,
    Polyline,
    Rect,
    dataset_from_geometries,
)
from repro.grid import BoxQuery, Grid, GridND, TileQuery, TileQueryBatch, aligned_query_cells
from repro.index import GridBucketIndex
from repro.ingest import (
    SyntheticChunkSource,
    ZoneMap,
    build_zoned,
    open_chunk_source,
)
from repro.joins import JoinSearchEngine, JoinSearchResult, JoinSketch, SummaryCatalog
from repro.metrics import average_relative_error
from repro.selectivity import SelectivityEstimator, SpatialQueryPlanner
from repro.workloads import (
    PAPER_QUERY_SET_SIZES,
    browsing_tile_batch,
    browsing_tiles,
    generate_catalog_sources,
    paper_query_sets,
    query_set,
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
    "CircuitBreaker",
    "RetryPolicy",
    "PyramidSource",
    # cache & viewport deltas
    "TileResultCache",
    "CacheKey",
    "DeltaTracker",
    "DeltaSource",
    "BrowseError",
    "CatalogAlignmentError",
    "InvalidRegionError",
    "DeadlineExceededError",
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
