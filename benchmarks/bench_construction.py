"""Histogram construction throughput: the one-pass build cost that the
paper amortises over all subsequent browsing queries.

Every build benchmark stamps ``objects_per_second`` into its
``extra_info`` (visible in ``--benchmark-json`` exports and the saved
``.benchmarks`` files), so construction throughput can be compared
across commits and against the zoned out-of-core pipeline (the
harness's ``build-fit`` and ``build-spill`` workloads) without
re-deriving it from raw timings."""

import pytest

from repro.baselines.cell_count import CellCountHistogram
from repro.baselines.cumulative_density import CumulativeDensity
from repro.euler.histogram import EulerHistogram
from repro.euler.multi import MEulerApprox


def _stamp_throughput(benchmark, num_objects: int) -> None:
    """Record objects/second from the best observed round."""
    best = benchmark.stats.stats.min
    benchmark.extra_info["objects"] = num_objects
    benchmark.extra_info["objects_per_second"] = (
        round(num_objects / best) if best > 0 else None
    )


def test_euler_histogram_build(benchmark, bench_workbench):
    data = bench_workbench.dataset("adl")
    hist = benchmark(EulerHistogram.from_dataset, data, bench_workbench.grid)
    assert hist.num_objects == len(data)
    _stamp_throughput(benchmark, len(data))


def test_euler_histogram_build_zoned(benchmark, bench_workbench):
    """The out-of-core streaming path at a comfortable budget, for a
    like-for-like overhead comparison with the direct build above."""
    from repro.ingest import DatasetChunkSource, build_zoned

    data = bench_workbench.dataset("adl")
    grid = bench_workbench.grid

    def build():
        return build_zoned(
            DatasetChunkSource(data, 250_000), grid, zones=64, memory_mb=256
        )

    result = benchmark(build)
    assert result.histogram.num_objects == len(data)
    _stamp_throughput(benchmark, len(data))


def test_multi_euler_build_m5(benchmark, bench_workbench):
    data = bench_workbench.dataset("sz_skew")
    estimator = benchmark.pedantic(
        MEulerApprox,
        args=(data, bench_workbench.grid, (1.0, 9.0, 25.0, 100.0, 225.0)),
        rounds=1,
        iterations=1,
    )
    assert estimator.num_histograms == 5
    _stamp_throughput(benchmark, len(data))


def test_cell_count_build(benchmark, bench_workbench):
    data = bench_workbench.dataset("adl")
    hist = benchmark(CellCountHistogram, data, bench_workbench.grid)
    assert hist.num_objects == len(data)
    _stamp_throughput(benchmark, len(data))


def test_cumulative_density_build(benchmark, bench_workbench):
    data = bench_workbench.dataset("adl")
    cd = benchmark(CumulativeDensity, data, bench_workbench.grid)
    assert cd.num_objects == len(data)
    _stamp_throughput(benchmark, len(data))


def test_exact_tiling_ground_truth_build(benchmark, bench_workbench):
    """The O(M) all-tiles exact evaluation used as ground truth."""
    from repro.exact.tiling import exact_tiling_counts

    data = bench_workbench.dataset("adl")
    tiling = benchmark(exact_tiling_counts, data, bench_workbench.grid, 10, 10)
    assert tiling.num_tiles == 648
    _stamp_throughput(benchmark, len(data))
