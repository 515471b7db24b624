"""Per-figure experiment generators for Section 6 of the paper.

Each ``figNN_*`` function runs the corresponding experiment on a
:class:`~repro.experiments.config.Workbench` and returns a plain result
object; :mod:`repro.experiments.report` renders them as text tables and
``python -m repro.experiments`` runs them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import MULTI_THRESHOLD_SCHEDULES, Workbench
from repro.experiments.runner import estimate_tiling, tiling_errors
from repro.exact.storage import storage_comparison_row
from repro.grid.tiles_math import TileQueryBatch
from repro.metrics.errors import scatter_points
from repro.metrics.timing import time_query_batch
from repro.workloads.tiles import query_set

__all__ = [
    "ScatterResult",
    "ErrorCurves",
    "TimingResult",
    "fig12_dataset_profiles",
    "fig13_s_euler_scatter",
    "fig14_s_euler_errors",
    "fig15_euler_scatter",
    "fig16_euler_errors",
    "fig17_multi2_errors",
    "fig18_multi_m_errors",
    "fig19_query_times",
    "storage_bound_table",
]

#: Datasets of the full evaluation (Section 6.1.1).
ALL_DATASETS = ("sp_skew", "sz_skew", "adl", "ca_road")
#: Datasets retained for the Level-2-stress experiments (Sections 6.3/6.4).
LARGE_OBJECT_DATASETS = ("adl", "sz_skew")


@dataclass(frozen=True)
class ScatterResult:
    """A Figure 13/15-style experiment: per-dataset (exact, estimated)
    point clouds for selected relations on one query set."""

    figure: str
    algorithm: str
    tile_size: int
    #: ``points[dataset][relation] -> [(exact, estimated), ...]``
    points: dict[str, dict[str, list[tuple[float, float]]]]
    #: ``are[dataset][relation] -> average relative error`` (the scalar
    #: summary of how far the cloud sits from the y = x line).
    are: dict[str, dict[str, float]]


@dataclass(frozen=True)
class ErrorCurves:
    """A Figure 14/16/17/18-style experiment: ARE as a function of query
    size, per dataset (or per configuration) and relation.

    ``curves[label][relation][tile_size] -> ARE``.
    """

    figure: str
    algorithm: str
    tile_sizes: tuple[int, ...]
    curves: dict[str, dict[str, dict[int, float]]]


@dataclass(frozen=True)
class TimingResult:
    """Figure 19: wall-clock seconds per complete query set.

    ``seconds[algorithm][tile_size] -> seconds`` and
    ``num_queries[tile_size]`` for per-query normalisation.
    """

    figure: str
    seconds: dict[str, dict[int, float]]
    num_queries: dict[int, int]


def _scatter(
    bench: Workbench,
    figure: str,
    algorithm_of,
    datasets: tuple[str, ...],
    relations: tuple[str, ...],
    tile_size: int,
) -> ScatterResult:
    points: dict[str, dict[str, list[tuple[float, float]]]] = {}
    are: dict[str, dict[str, float]] = {}
    algorithm_name = ""
    for name in datasets:
        estimator = algorithm_of(name)
        algorithm_name = estimator.name
        truth = bench.truth(name, tile_size)
        estimated = estimate_tiling(estimator, bench.grid, tile_size)
        errors = tiling_errors(truth, estimated)
        points[name] = {
            rel: scatter_points(getattr(truth, rel), getattr(estimated, rel))
            for rel in relations
        }
        are[name] = {rel: errors[rel] for rel in relations}
    return ScatterResult(
        figure=figure,
        algorithm=algorithm_name,
        tile_size=tile_size,
        points=points,
        are=are,
    )


def _error_curves(
    bench: Workbench,
    figure: str,
    labelled_estimators,
    relations: tuple[str, ...],
    tile_sizes: tuple[int, ...],
) -> ErrorCurves:
    curves: dict[str, dict[str, dict[int, float]]] = {}
    algorithm_name = ""
    for label, dataset_name, estimator in labelled_estimators:
        algorithm_name = estimator.name
        per_relation: dict[str, dict[int, float]] = {rel: {} for rel in relations}
        for n in tile_sizes:
            truth = bench.truth(dataset_name, n)
            estimated = estimate_tiling(estimator, bench.grid, n)
            errors = tiling_errors(truth, estimated)
            for rel in relations:
                per_relation[rel][n] = errors[rel]
        curves[label] = per_relation
    return ErrorCurves(
        figure=figure, algorithm=algorithm_name, tile_sizes=tuple(tile_sizes), curves=curves
    )


def fig12_dataset_profiles(bench: Workbench) -> dict[str, dict[str, object]]:
    """Figure 12: the dataset-shape figures.

    (a) sp_skew object-center distribution -- summarised as occupancy
    concentration over 10x10-degree blocks (the scatter plot's visual
    content: a few dense clusters, large empty areas);
    (b) sz_skew object-width distribution -- the Zipf histogram over
    doubling width bins.

    The other datasets' profiles are included for the record.
    """
    profiles: dict[str, dict[str, object]] = {}
    for name in ALL_DATASETS:
        data = bench.dataset(name)
        cx = np.clip(((data.x_lo + data.x_hi) / 2.0 / 10.0).astype(int), 0, 35)
        cy = np.clip(((data.y_lo + data.y_hi) / 2.0 / 10.0).astype(int), 0, 17)
        occupancy = np.bincount(cx * 18 + cy, minlength=36 * 18).astype(float)
        occupancy.sort()
        top_share = float(occupancy[-6:].sum() / max(occupancy.sum(), 1.0))
        empty = float(np.mean(occupancy == 0))

        widths = data.widths
        bins = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 360.0]
        hist, _ = np.histogram(widths, bins=bins)
        profiles[name] = {
            "count": len(data),
            "top1pct_block_share": top_share,
            "empty_block_fraction": empty,
            "width_bins": bins,
            "width_hist": hist.tolist(),
            "width_mean": float(widths.mean()) if len(data) else 0.0,
        }
    return profiles


def fig13_s_euler_scatter(bench: Workbench, *, tile_size: int = 10) -> ScatterResult:
    """Figure 13: S-EulerApprox estimated-vs-exact ``N_o`` and ``N_cs``
    scatter on the ``Q_10`` query set, all four datasets."""
    return _scatter(
        bench, "Figure 13", bench.s_euler, ALL_DATASETS, ("n_o", "n_cs"), tile_size
    )


def fig14_s_euler_errors(bench: Workbench) -> ErrorCurves:
    """Figure 14: S-EulerApprox ARE of ``N_o`` (a) and ``N_cs`` (b) for
    every query set ``Q_2 .. Q_20``, all four datasets."""
    estimators = [(name, name, bench.s_euler(name)) for name in ALL_DATASETS]
    return _error_curves(
        bench, "Figure 14", estimators, ("n_o", "n_cs"), bench.config.query_sizes
    )


def fig15_euler_scatter(bench: Workbench, *, tile_size: int = 10) -> ScatterResult:
    """Figure 15: EulerApprox ``N_cd`` and ``N_cs`` scatter on ``Q_10``
    for the large-object datasets (adl, sz_skew)."""
    return _scatter(
        bench, "Figure 15", bench.euler, LARGE_OBJECT_DATASETS, ("n_cd", "n_cs"), tile_size
    )


def fig16_euler_errors(bench: Workbench) -> ErrorCurves:
    """Figure 16: EulerApprox ARE of ``N_cs`` and ``N_cd`` per query set,
    adl and sz_skew."""
    estimators = [(name, name, bench.euler(name)) for name in LARGE_OBJECT_DATASETS]
    return _error_curves(
        bench, "Figure 16", estimators, ("n_cs", "n_cd"), bench.config.query_sizes
    )


def fig17_multi2_errors(bench: Workbench) -> ErrorCurves:
    """Figure 17: M-EulerApprox with 2 histograms
    (``area(H_0)=1x1, area(H_1)=10x10``), adl and sz_skew."""
    estimators = [
        (name, name, bench.multi_euler(name, 2)) for name in LARGE_OBJECT_DATASETS
    ]
    return _error_curves(
        bench, "Figure 17", estimators, ("n_cs", "n_cd"), bench.config.query_sizes
    )


def fig18_multi_m_errors(bench: Workbench, *, dataset: str = "sz_skew") -> ErrorCurves:
    """Figure 18: M-EulerApprox with 3/4/5 histograms on sz_skew, the
    paper's threshold schedules."""
    estimators = [
        (f"m={m}", dataset, bench.multi_euler(dataset, m)) for m in (3, 4, 5)
    ]
    return _error_curves(
        bench, "Figure 18", estimators, ("n_cs", "n_cd"), bench.config.query_sizes
    )


def fig19_query_times(
    bench: Workbench,
    *,
    dataset: str = "adl",
    multi_histogram_counts: tuple[int, ...] = (2, 3, 4, 5),
    repeats: int = 3,
) -> TimingResult:
    """Figure 19: wall-clock time per complete query set.

    (a) S-EulerApprox vs EulerApprox vs M-EulerApprox(2);
    (b) M-EulerApprox for m = 2..5 -- the paper's observation is that all
    curves essentially coincide (index computation dominates).

    Each set is answered as one :class:`~repro.grid.tiles_math.TileQueryBatch`
    through ``estimate_batch``, the path that serves browse rasters.
    """
    estimators = {
        "S-EulerApprox": bench.s_euler(dataset),
        "EulerApprox": bench.euler(dataset),
    }
    for m in multi_histogram_counts:
        if m in MULTI_THRESHOLD_SCHEDULES:
            estimators[f"M-EulerApprox(m={m})"] = bench.multi_euler(dataset, m)

    seconds: dict[str, dict[int, float]] = {label: {} for label in estimators}
    num_queries: dict[int, int] = {}
    for n in bench.config.query_sizes:
        queries = TileQueryBatch.from_queries(query_set(bench.grid, n))
        num_queries[n] = len(queries)
        for label, estimator in estimators.items():
            seconds[label][n] = time_query_batch(
                estimator.estimate_batch, [queries], repeats=repeats
            )
    return TimingResult(figure="Figure 19", seconds=seconds, num_queries=num_queries)


def storage_bound_table(
    grids: tuple[tuple[int, int], ...] = ((10, 10), (36, 18), (90, 45), (180, 90), (360, 180)),
    *,
    bytes_per_bucket: int = 4,
) -> list[dict[str, float]]:
    """The Theorem 3.1 storage table: exact-contains lower bound vs Euler
    histogram size across grid resolutions, ending at the paper's ~4 GB
    360x180 example."""
    return [storage_comparison_row(dims, bytes_per_bucket=bytes_per_bucket) for dims in grids]
