"""Scalar vs batch browse rasters: the batch query engine's headline number.

Replays one GeoBrowsing interaction (a rows x cols raster over an aligned
region of the world grid) against two :class:`GeoBrowsingService`\ s -- one
over the per-tile scalar loop (the estimator wrapped in
:class:`~repro.euler.base.ScalarBatchFallback`) and one over the vectorised
``estimate_batch`` path -- over EulerApprox summaries of the Figure-12
dataset profiles, and records both timings plus the speedup to
``BENCH_browse_batch.json`` at the repository root so future PRs can track
the trajectory.

Run directly::

    PYTHONPATH=src python benchmarks/bench_browse_batch.py          # full
    PYTHONPATH=src python benchmarks/bench_browse_batch.py --quick  # CI smoke

The script asserts raster equality between the two paths on every run, so
it doubles as an end-to-end parity check at benchmark scale.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.browse.service import GeoBrowsingService
from repro.euler.base import ScalarBatchFallback
from repro.euler.full import EulerApprox
from repro.experiments.config import ExperimentConfig, Workbench
from repro.grid.tiles_math import TileQuery

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_browse_batch.json"

#: The Figure-12 dataset profiles (Section 6.1.1).
FIG12_DATASETS = ("sp_skew", "sz_skew", "adl", "ca_road")

#: raster label -> (region on the 360x180 world grid, rows, cols).
RASTERS: dict[str, tuple[TileQuery, int, int]] = {
    "32x32": (TileQuery(0, 320, 0, 160), 32, 32),
    "100x100": (TileQuery(0, 300, 0, 100), 100, 100),
}


def _best_of(fn, rounds: int) -> float:
    """Minimum wall clock over ``rounds`` calls of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(
    datasets: tuple[str, ...],
    rasters: tuple[str, ...],
    *,
    scale: float | None = None,
    scalar_rounds: int = 2,
    batch_rounds: int = 10,
) -> dict:
    """Time scalar vs batch browsing and return the result document."""
    config = ExperimentConfig() if scale is None else ExperimentConfig(scale=scale)
    workbench = Workbench(config)
    results = []
    for name in datasets:
        estimator = EulerApprox(workbench.histogram(name))
        service = GeoBrowsingService(estimator, workbench.grid)
        scalar = GeoBrowsingService(ScalarBatchFallback(estimator), workbench.grid)
        for raster in rasters:
            region, rows, cols = RASTERS[raster]
            scalar_result = scalar.browse(region, rows, cols)
            batch_result = service.browse(region, rows, cols)
            if not np.array_equal(scalar_result.counts, batch_result.counts):
                raise AssertionError(
                    f"batch raster diverged from scalar on {name}/{raster}"
                )
            scalar_s = _best_of(lambda: scalar.browse(region, rows, cols), scalar_rounds)
            batch_s = _best_of(lambda: service.browse(region, rows, cols), batch_rounds)
            entry = {
                "dataset": name,
                "raster": raster,
                "tiles": rows * cols,
                "scalar_seconds": round(scalar_s, 6),
                "batch_seconds": round(batch_s, 6),
                "speedup": round(scalar_s / batch_s, 2),
            }
            results.append(entry)
            print(
                f"{name:>8} {raster:>8} ({entry['tiles']:>6} tiles): "
                f"scalar {scalar_s * 1000:8.2f} ms  batch {batch_s * 1000:7.2f} ms  "
                f"-> {entry['speedup']:.1f}x"
            )
    return {
        "benchmark": "bench_browse_batch",
        "estimator": "EulerApprox(left)",
        "grid": f"{workbench.grid.n1}x{workbench.grid.n2}",
        "scale": workbench.config.scale,
        "dataset_sizes": {name: len(workbench.dataset(name)) for name in datasets},
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: one dataset, reduced scale, fewer rounds",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    if args.quick:
        document = run(("adl",), ("32x32",), scale=0.02, scalar_rounds=1, batch_rounds=3)
    else:
        document = run(FIG12_DATASETS, tuple(RASTERS))

    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")

    target = [r for r in document["results"] if r["raster"] == "100x100"]
    if target and any(r["speedup"] < 10.0 for r in target):
        print("FAIL: batch path below the 10x target on a 100x100 raster")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
