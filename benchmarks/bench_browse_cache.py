"""Tile-cache benchmark for the browse stack.

Session replay, cold vs warm, over Euler summaries of a Figure-12
dataset on the paper's 360x180 world grid: reproducible zoom sessions
(:func:`repro.workloads.sessions.generate_sessions`) replay through a
:class:`GeoBrowsingService` backed by a
:class:`~repro.cache.TileResultCache`.  The first replay populates the
cache (cold); the second answers the identical interactions from it
(warm).  An uncached replay of the same trace checks that the default
path is untouched and that cached rasters are bit-identical.

Results go to ``BENCH_browse_cache.json`` at the repository root.  Run
directly::

    PYTHONPATH=src python benchmarks/bench_browse_cache.py          # full
    PYTHONPATH=src python benchmarks/bench_browse_cache.py --quick  # CI smoke

Full mode gates on warm speedup >= 5x; quick mode gates on warm speedup
> 1x and parity only, so CI stays robust on loaded runners.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.browse.service import GeoBrowsingService
from repro.cache import TileResultCache
from repro.experiments.config import ExperimentConfig, Workbench
from repro.workloads.sessions import generate_sessions

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_browse_cache.json"


def _replay(service: GeoBrowsingService, sessions) -> tuple[float, list[np.ndarray]]:
    """Replay every interaction once; wall clock plus the rasters."""
    rasters: list[np.ndarray] = []
    start = time.perf_counter()
    for session in sessions:
        for step in session:
            result = service.browse(step.region, step.rows, step.cols, step.relation)
            rasters.append(result.counts)
    return time.perf_counter() - start, rasters


def run_sessions(workbench: Workbench, dataset: str, *, num_sessions: int, seed: int) -> dict:
    """Cold/warm session replay through a cached service vs uncached."""
    estimator = workbench.euler(dataset)
    grid = workbench.grid
    sessions = generate_sessions(grid, num_sessions=num_sessions, seed=seed)
    interactions = sum(len(s) for s in sessions)
    tiles = sum(s.total_tiles for s in sessions)

    uncached = GeoBrowsingService(estimator, grid)
    uncached_s, plain_rasters = _replay(uncached, sessions)

    cache = TileResultCache()
    cached = GeoBrowsingService(estimator, grid, cache=cache)
    cold_s, cold_rasters = _replay(cached, sessions)
    warm_s, warm_rasters = _replay(cached, sessions)

    for plain, cold, warm in zip(plain_rasters, cold_rasters, warm_rasters):
        if not (np.array_equal(plain, cold) and np.array_equal(plain, warm)):
            raise AssertionError(f"cached raster diverged from uncached on {dataset}")

    entry = {
        "dataset": dataset,
        "sessions": len(sessions),
        "interactions": interactions,
        "tiles": tiles,
        "uncached_seconds": round(uncached_s, 6),
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "warm_speedup": round(cold_s / warm_s, 2),
        "cache_entries": len(cache),
        "cache_hit_rate": round(cache.hits / max(cache.hits + cache.misses, 1), 4),
    }
    print(
        f"{dataset:>8} sessions ({tiles:>6} tiles): "
        f"uncached {uncached_s * 1000:8.2f} ms  cold {cold_s * 1000:8.2f} ms  "
        f"warm {warm_s * 1000:7.2f} ms  -> {entry['warm_speedup']:.1f}x warm"
    )
    return entry


def run(
    datasets: tuple[str, ...],
    *,
    scale: float | None = None,
    num_sessions: int = 10,
) -> dict:
    """Run the session replay and return the result document."""
    config = ExperimentConfig() if scale is None else ExperimentConfig(scale=scale)
    workbench = Workbench(config)
    document = {
        "benchmark": "bench_browse_cache",
        "estimator": "EulerApprox(left)",
        "grid": f"{workbench.grid.n1}x{workbench.grid.n2}",
        "scale": workbench.config.scale,
        "sessions": [
            run_sessions(workbench, name, num_sessions=num_sessions, seed=7)
            for name in datasets
        ],
    }
    return document


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: one dataset, reduced scale, relaxed gates",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    if args.quick:
        document = run(("adl",), scale=0.02, num_sessions=4)
    else:
        document = run(("sp_skew", "adl"))

    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")

    warm_floor = 1.0 if args.quick else 5.0
    if any(entry["warm_speedup"] < warm_floor for entry in document["sessions"]):
        print(f"FAIL: warm session replay below the {warm_floor:g}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
