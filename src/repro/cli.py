"""Command-line interface: generate data, build histograms, browse.

A thin operational layer over the library for shell users::

    python -m repro.cli generate sz_skew 100000 -o data.npz
    python -m repro.cli describe data.npz
    python -m repro.cli build data.npz -o hist.npz
    python -m repro.cli browse hist.npz --region 0 360 0 180 \\
        --rows 6 --cols 12 --relation overlap

``generate`` writes a dataset ``.npz``; ``build`` summarises it into an
Euler histogram ``.npz`` (the artifact a browsing service would ship);
``browse`` serves a GeoBrowsing-style tile raster from the histogram
alone -- the dataset is not needed at query time, which is the paper's
point.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.datasets import DATASET_NAMES, RectDataset, by_name
from repro.errors import SummaryCorruptError
from repro.euler.estimates import RELATION_FIELDS
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Euler-histogram spatial browsing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one of the paper's datasets")
    gen.add_argument("dataset", choices=DATASET_NAMES)
    gen.add_argument("count", type=int, help="number of objects")
    gen.add_argument("-o", "--output", required=True, help="output .npz path")
    gen.add_argument("--seed", type=int, default=0)

    desc = sub.add_parser("describe", help="print dataset statistics")
    desc.add_argument("dataset", help="dataset .npz path")

    build = sub.add_parser("build", help="build an Euler histogram from a dataset")
    build.add_argument(
        "dataset", help="dataset path (.npz; with --zones also .ndjson/.jsonl/.npy)"
    )
    build.add_argument("-o", "--output", required=True, help="output histogram .npz path")
    build.add_argument(
        "--cells",
        type=int,
        nargs=2,
        default=(360, 180),
        metavar=("N1", "N2"),
        help="grid cells per axis (default: 360 180)",
    )
    build.add_argument(
        "--zones",
        type=int,
        default=0,
        help="stream the dataset through the zoned out-of-core pipeline "
        "with this many space-filling-curve zones (default: 0, direct "
        "in-memory build)",
    )
    build.add_argument(
        "--curve",
        choices=("morton", "hilbert"),
        default="morton",
        help="space-filling curve ordering the zones (default: morton)",
    )
    build.add_argument(
        "--chunk-size",
        type=int,
        default=250_000,
        help="objects per streamed chunk for --zones (default: 250000)",
    )
    build.add_argument(
        "--memory-mb",
        type=int,
        default=256,
        help="global accumulator budget in MiB for --zones (default: 256)",
    )
    build.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="WORKERS",
        help="zone-build worker processes for --zones (default: 0, inline)",
    )
    build.add_argument(
        "--start-method",
        choices=("spawn", "fork"),
        default="spawn",
        help="multiprocessing start method for --parallel workers",
    )
    build.add_argument(
        "--extent",
        type=float,
        nargs=4,
        default=None,
        metavar=("X_LO", "X_HI", "Y_LO", "Y_HI"),
        help="declared data extent for .ndjson/.npy sources (skips the "
        "extent-discovery pass; .npz files carry their own)",
    )

    browse = sub.add_parser("browse", help="tile-count raster from a histogram")
    browse.add_argument("histogram", help="histogram .npz path")
    browse.add_argument(
        "--region",
        type=float,
        nargs=4,
        required=True,
        metavar=("X_LO", "X_HI", "Y_LO", "Y_HI"),
        help="world-coordinate region (must be grid-aligned)",
    )
    browse.add_argument("--rows", type=int, required=True)
    browse.add_argument("--cols", type=int, required=True)
    browse.add_argument(
        "--relation", choices=sorted(RELATION_FIELDS), default="overlap"
    )
    browse.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help="tile-result cache capacity in MiB (default: 0, disabled)",
    )
    browse.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the request this many times (shows cache warm-up)",
    )
    browse.add_argument(
        "--delta",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse overlapping tiles from the previous raster of the "
        "session (--no-delta recomputes every raster from scratch)",
    )

    stats = sub.add_parser(
        "stats",
        help="browse through the resilient service and print its telemetry",
    )
    stats.add_argument("histogram", help="histogram .npz path")
    stats.add_argument(
        "--region",
        type=float,
        nargs=4,
        required=True,
        metavar=("X_LO", "X_HI", "Y_LO", "Y_HI"),
        help="world-coordinate region (must be grid-aligned)",
    )
    stats.add_argument("--rows", type=int, required=True)
    stats.add_argument("--cols", type=int, required=True)
    stats.add_argument(
        "--relation", choices=sorted(RELATION_FIELDS), default="overlap"
    )
    stats.add_argument(
        "--deadline", type=float, default=None, help="per-request budget in seconds"
    )
    stats.add_argument(
        "--chunk-rows",
        type=int,
        default=4,
        help="raster rows per chunk when the budget is tight",
    )
    stats.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help="tile-result cache capacity in MiB (default: 0, disabled)",
    )
    stats.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the request this many times (shows cache hit counters)",
    )
    stats.add_argument(
        "--delta",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse overlapping tiles from the previous raster of the "
        "session (--no-delta recomputes every raster from scratch)",
    )
    stats.add_argument(
        "--format",
        choices=("text", "prom", "json"),
        default="text",
        help="metrics snapshot format (default: human-readable text)",
    )
    stats.add_argument(
        "--trace", action="store_true", help="also print the request's span tree"
    )
    stats.add_argument(
        "--dataset",
        default=None,
        help="dataset .npz path; enables the exact-truth accuracy probe",
    )
    stats.add_argument(
        "--pyramid",
        action="store_true",
        help="build a histogram pyramid over --dataset and serve coarse "
        "levels first under a deadline (progressive refinement)",
    )
    stats.add_argument(
        "--min-cells",
        type=int,
        default=4,
        help="coarsest pyramid axis floor for --pyramid (default: 4)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant JSON-lines gateway over a histogram",
    )
    serve.add_argument("histogram", help="histogram .npz path")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--dataset-name",
        default="default",
        help="dataset name tenants address in requests (default: 'default')",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME[:QUOTA]",
        help="register a tenant, optionally with a concurrency quota; "
        "repeatable (default: one unlimited tenant 'public')",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="executor threads (default: 2)"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission queue bound; arrivals beyond it are shed (default: 64)",
    )
    serve.add_argument(
        "--chunk-rows",
        type=int,
        default=4,
        help="raster rows per chunk when the budget is tight",
    )
    serve.add_argument(
        "--cache-mb",
        type=float,
        default=8.0,
        help="shared tile-result cache capacity in MiB (default: 8, 0 disables)",
    )
    _add_pyramid_flags(serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay closed-loop tenant sessions against an in-process gateway",
    )
    loadgen.add_argument("histogram", help="histogram .npz path")
    loadgen.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME[:QUOTA]",
        help="tenants to replay as; repeatable (default: 'public')",
    )
    loadgen.add_argument(
        "--sessions",
        type=int,
        default=16,
        help="concurrent sessions per tenant (default: 16)",
    )
    loadgen.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request client budget in seconds (default: unbounded)",
    )
    loadgen.add_argument(
        "--dataset-name", default="default", help=argparse.SUPPRESS
    )
    loadgen.add_argument("--workers", type=int, default=2)
    loadgen.add_argument("--max-pending", type=int, default=64)
    loadgen.add_argument(
        "--chunk-rows",
        type=int,
        default=4,
        help="raster rows per chunk when the budget is tight",
    )
    loadgen.add_argument("--cache-mb", type=float, default=8.0)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--max-depth", type=int, default=4, help="max interactions per session"
    )
    loadgen.add_argument(
        "--pan-prob",
        type=float,
        default=0.4,
        help="probability a step pans instead of zooming (default: 0.4)",
    )
    loadgen.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        help="pause between a response and the session's next request",
    )
    loadgen.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    _add_pyramid_flags(loadgen)

    join = sub.add_parser(
        "join-search",
        help="rank a multi-source summary catalog by estimated overlap "
        "with a query dataset or region",
    )
    join.add_argument(
        "--sources", type=int, default=64, help="catalog sources to generate (default: 64)"
    )
    join.add_argument(
        "--objects", type=int, default=2000, help="objects per source (default: 2000)"
    )
    join.add_argument("--seed", type=int, default=0, help="catalog workload seed")
    join.add_argument(
        "--ref-cells",
        type=int,
        nargs=2,
        default=(32, 16),
        metavar=("GX", "GY"),
        help="shared reference grid the sketches live on (default: 32 16)",
    )
    join.add_argument(
        "--summary-cells",
        type=int,
        nargs=2,
        default=None,
        metavar=("N1", "N2"),
        help="per-summary histogram grid; must refine the reference grid "
        "(default: 4x the reference per axis)",
    )
    join.add_argument(
        "--family",
        choices=("seuler", "euler", "meuler", "exact", "mixed"),
        default="mixed",
        help="estimator family behind each summary (default: mixed, cycling "
        "all four)",
    )
    join.add_argument(
        "--region",
        type=float,
        nargs=4,
        default=None,
        metavar=("X_LO", "X_HI", "Y_LO", "Y_HI"),
        help="rank by this aligned world-coordinate region instead of a "
        "query dataset",
    )
    join.add_argument(
        "--query-seed",
        type=int,
        default=1000,
        help="seed of the held-out query source for dataset-mode search "
        "(default: 1000)",
    )
    join.add_argument(
        "--metric",
        default=None,
        help="ranking metric (dataset: overlap, containment, coverage; "
        "region: intersect_mass, contained_mass, containing_mass, coverage)",
    )
    join.add_argument("--top", type=int, default=10, help="top-k size (default: 10)")
    join.add_argument(
        "--no-prune",
        action="store_true",
        help="force the exhaustive scan instead of the pyramid-pruned planner",
    )
    join.add_argument(
        "--seed-pool",
        type=int,
        default=None,
        help="bound-ranked candidates the planner exactly scores to fix its "
        "pruning threshold (default: max(4k, 64))",
    )
    join.add_argument(
        "--truth",
        action="store_true",
        help="also rank against exact ExactEvaluator sketches and report ARE",
    )
    join.add_argument("--json", action="store_true", help="print the result as JSON")
    return parser


def _add_pyramid_flags(parser: argparse.ArgumentParser) -> None:
    """The pyramid refinement flags shared by both gateway commands."""
    parser.add_argument(
        "--dataset",
        default=None,
        help="dataset .npz path; required by --pyramid to build the levels",
    )
    parser.add_argument(
        "--pyramid",
        action="store_true",
        help="build a histogram pyramid over --dataset so deadline-pressed "
        "requests are admitted coarse and refined, instead of shed",
    )
    parser.add_argument(
        "--min-cells",
        type=int,
        default=4,
        help="coarsest pyramid axis floor for --pyramid (default: 4)",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("error: count must be positive", file=sys.stderr)
        return 2
    start = time.perf_counter()
    data = by_name(args.dataset, args.count, seed=args.seed)
    data.save(args.output)
    print(
        f"wrote {len(data):,} {args.dataset} objects to {args.output} "
        f"({time.perf_counter() - start:.2f}s)"
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    data = RectDataset.load(args.dataset)
    for key, value in data.describe().items():
        if isinstance(value, float):
            print(f"{key:>20}: {value:.4f}")
        else:
            print(f"{key:>20}: {value}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.zones:
        return _cmd_build_zoned(args)
    try:
        data = RectDataset.load(args.dataset)
    except SummaryCorruptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid = Grid(data.extent, args.cells[0], args.cells[1])
    start = time.perf_counter()
    histogram = EulerHistogram.from_dataset(data, grid)
    histogram.save(args.output)
    print(
        f"built {histogram.num_buckets:,}-bucket histogram of {len(data):,} "
        f"objects in {time.perf_counter() - start:.2f}s -> {args.output}"
    )
    return 0


def _cmd_build_zoned(args: argparse.Namespace) -> int:
    from repro.ingest import build_zoned, open_chunk_source

    if args.zones < 1:
        print("error: --zones must be positive", file=sys.stderr)
        return 2
    if args.chunk_size < 1:
        print("error: --chunk-size must be positive", file=sys.stderr)
        return 2
    if args.memory_mb < 1:
        print("error: --memory-mb must be positive", file=sys.stderr)
        return 2
    if args.parallel < 0:
        print("error: --parallel must be non-negative", file=sys.stderr)
        return 2
    extent = Rect(*args.extent) if args.extent is not None else None
    try:
        source = open_chunk_source(args.dataset, args.chunk_size, extent=extent)
    except (SummaryCorruptError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid = Grid(source.extent, args.cells[0], args.cells[1])
    try:
        result = build_zoned(
            source,
            grid,
            zones=args.zones,
            curve=args.curve,
            memory_mb=args.memory_mb,
            workers=args.parallel,
            start_method=args.start_method,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result.histogram.save(args.output)
    report = result.report
    print(
        f"built {result.histogram.num_buckets:,}-bucket histogram of "
        f"{report.objects:,} objects in {report.elapsed_seconds:.2f}s "
        f"-> {args.output}"
    )
    print(
        f"# zoned: {report.zones} {report.curve} zones, "
        f"{report.chunks} chunks of {report.chunk_size:,} "
        f"(pool {report.chunks_pool} / inline {report.chunks_inline} / "
        f"replayed {report.chunks_replayed}), {report.workers} workers, "
        f"{report.crashes} crashes"
    )
    print(
        f"# memory: peak accumulators {report.peak_accumulator_bytes:,} B "
        f"of {report.budget_bytes:,} B budget, {report.spills} spills, "
        f"{report.objects_per_second:,.0f} objects/s"
    )
    return 0


def _cmd_browse(args: argparse.Namespace) -> int:
    from repro.browse.delta import DeltaTracker
    from repro.browse.service import GeoBrowsingService
    from repro.cache import TileResultCache
    from repro.obs import BrowseInstrumentation

    if args.repeat < 1:
        print("error: --repeat must be positive", file=sys.stderr)
        return 2
    try:
        histogram = EulerHistogram.load(args.histogram)
    except SummaryCorruptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = TileResultCache(int(args.cache_mb * (1 << 20))) if args.cache_mb > 0 else None
    tracker = DeltaTracker() if args.delta else None
    instruments = BrowseInstrumentation() if args.delta else None
    service = GeoBrowsingService(
        SEulerApprox(histogram),
        histogram.grid,
        cache=cache,
        delta=tracker,
        instruments=instruments,
    )
    region = Rect(args.region[0], args.region[1], args.region[2], args.region[3])
    try:
        start = time.perf_counter()
        for _ in range(args.repeat):
            result = service.browse(
                region, rows=args.rows, cols=args.cols, relation=args.relation
            )
        elapsed = (time.perf_counter() - start) / args.repeat
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render_ascii(width=7))
    print(
        f"# {args.relation} counts, {args.rows}x{args.cols} tiles, "
        f"{1000 * elapsed:.1f} ms ({service.estimator_name})"
    )
    if cache is not None:
        s = cache.stats()
        print(
            f"# cache: {s['hits']} hits / {s['misses']} misses, "
            f"{s['entries']} entries ({s['nbytes']:,} bytes)"
        )
    if instruments is not None:
        reused = instruments.delta_rasters.labels(service="plain", outcome="reused").value
        tiles = instruments.delta_tiles_reused.labels(service="plain").value
        print(
            f"# delta: {reused:g} rasters reused a previous result, "
            f"{tiles:g} tiles copied"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.browse.delta import DeltaTracker
    from repro.browse.resilience import ResilientBrowsingService
    from repro.errors import BrowseError
    from repro.exact.evaluator import ExactEvaluator
    from repro.obs import (
        AccuracyProbe,
        BrowseInstrumentation,
        set_default_registry,
        to_json,
        to_prometheus_text,
        to_text,
    )

    from repro.cache import TileResultCache

    if args.chunk_rows < 1:
        print("error: --chunk-rows must be positive", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("error: --repeat must be positive", file=sys.stderr)
        return 2
    if args.pyramid and args.dataset is None:
        print("error: --pyramid needs --dataset to build the levels", file=sys.stderr)
        return 2
    if args.min_cells < 1:
        print("error: --min-cells must be positive", file=sys.stderr)
        return 2
    instruments = BrowseInstrumentation()
    # Route the persistence layer's load/verify counters into the same
    # registry the services record into, so the snapshot shows the whole
    # request path; restored before returning.
    previous = set_default_registry(instruments.registry)
    try:
        try:
            histogram = EulerHistogram.load(args.histogram)
        except SummaryCorruptError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        data = None
        if args.dataset is not None:
            try:
                data = RectDataset.load(args.dataset)
            except SummaryCorruptError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            instruments.accuracy = AccuracyProbe(
                ExactEvaluator(data, histogram.grid), instruments.registry
            )
        pyramid = None
        if args.pyramid:
            from repro.euler.pyramid import HistogramPyramid

            pyramid = HistogramPyramid(data, histogram.grid, min_cells=args.min_cells)
        cache = (
            TileResultCache(int(args.cache_mb * (1 << 20))) if args.cache_mb > 0 else None
        )
        service = ResilientBrowsingService(
            SEulerApprox(histogram),
            histogram.grid,
            chunk_rows=args.chunk_rows,
            instruments=instruments,
            cache=cache,
            delta=DeltaTracker() if args.delta else None,
            pyramid=pyramid,
        )
        region = Rect(args.region[0], args.region[1], args.region[2], args.region[3])
        try:
            for _ in range(args.repeat):
                result = service.browse(
                    region,
                    rows=args.rows,
                    cols=args.cols,
                    relation=args.relation,
                    deadline=args.deadline,
                )
        except BrowseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.render_ascii(width=7))
        print(
            f"# {args.relation} counts, {args.rows}x{args.cols} tiles, "
            f"{100 * result.valid_fraction:.0f}% answered ({service.estimator_name})"
        )
        if cache is not None:
            s = cache.stats()
            print(
                f"# cache: {s['hits']} hits / {s['misses']} misses, "
                f"{s['entries']} entries ({s['nbytes']:,} bytes), "
                f"{s['evictions']} evictions, "
                f"{s['generation_invalidations']} generation invalidations"
            )
        if pyramid is not None:
            served = (
                "full resolution"
                if result.full_resolution
                else f"coarsest level {int(result.levels.max())}"
            )
            print(f"# pyramid: {pyramid.num_levels} levels, last raster at {served}")
        if args.trace and result.telemetry is not None:
            print()
            print(result.telemetry.render())
        print()
        if args.format == "prom":
            print(to_prometheus_text(instruments.registry), end="")
        elif args.format == "json":
            print(to_json(instruments.registry))
        else:
            print(to_text(instruments.registry))
        return 0
    finally:
        set_default_registry(previous)


def _parse_tenants(specs: list[str] | None) -> list[tuple[str, int]]:
    """``NAME[:QUOTA]`` specs -> (name, quota) pairs (0 = unlimited)."""
    if not specs:
        return [("public", 0)]
    tenants = []
    for spec in specs:
        name, _, quota = spec.partition(":")
        if not name:
            raise ValueError(f"empty tenant name in {spec!r}")
        tenants.append((name, int(quota) if quota else 0))
    return tenants


def _build_catalog(args: argparse.Namespace, instruments=None):
    """The tenant catalog both gateway commands build from their flags."""
    from repro.cache import TileResultCache
    from repro.gateway import TenantCatalog

    histogram = EulerHistogram.load(args.histogram)
    cache = (
        TileResultCache(int(args.cache_mb * (1 << 20))) if args.cache_mb > 0 else None
    )
    pyramid = None
    if getattr(args, "pyramid", False):
        if args.dataset is None:
            raise ValueError("--pyramid needs --dataset to build the levels")
        if args.min_cells < 1:
            raise ValueError("--min-cells must be positive")
        from repro.euler.pyramid import HistogramPyramid

        data = RectDataset.load(args.dataset)
        pyramid = HistogramPyramid(data, histogram.grid, min_cells=args.min_cells)
    catalog = TenantCatalog(instruments=instruments)
    catalog.register_dataset(
        args.dataset_name,
        SEulerApprox(histogram),
        histogram.grid,
        cache=cache,
        chunk_rows=args.chunk_rows,
        pyramid=pyramid,
    )
    tenants = _parse_tenants(args.tenant)
    for name, quota in tenants:
        catalog.add_tenant(name, quota=quota)
    return catalog, histogram, tenants


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway import Gateway, GatewayServer

    if args.workers < 1 or args.max_pending < 1 or args.chunk_rows < 1:
        print(
            "error: --workers, --max-pending and --chunk-rows must be positive",
            file=sys.stderr,
        )
        return 2
    try:
        catalog, _, tenants = _build_catalog(args)
    except (SummaryCorruptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        gateway = Gateway(
            catalog, workers=args.workers, max_pending=args.max_pending
        )
        server = GatewayServer(gateway, host=args.host, port=args.port)
        await server.start()
        names = ", ".join(
            f"{n} (quota {q})" if q else n for n, q in tenants
        )
        print(
            f"serving dataset {args.dataset_name!r} on "
            f"{args.host}:{server.port} for tenants: {names}",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()
            await gateway.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.gateway import Gateway
    from repro.workloads import generate_tenant_sessions, run_loadgen

    if args.sessions < 1 or args.workers < 1 or args.max_pending < 1:
        print(
            "error: --sessions, --workers and --max-pending must be positive",
            file=sys.stderr,
        )
        return 2
    try:
        catalog, histogram, tenants = _build_catalog(args)
    except (SummaryCorruptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plans = generate_tenant_sessions(
        histogram.grid,
        tenants=[name for name, _ in tenants],
        dataset=args.dataset_name,
        sessions_per_tenant=args.sessions,
        seed=args.seed,
        max_depth=args.max_depth,
        pan_prob=args.pan_prob,
    )

    async def run():
        gateway = Gateway(
            catalog, workers=args.workers, max_pending=args.max_pending
        )
        try:
            return await run_loadgen(
                gateway,
                plans,
                deadline_s=args.deadline,
                think_time_s=args.think_time,
            )
        finally:
            await gateway.close()

    report = asyncio.run(run())
    doc = report.to_dict()
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            print(f"{key:>22}: {value}")
    return 0


def _cmd_join_search(args: argparse.Namespace) -> int:
    import json

    from repro.errors import BrowseError
    from repro.grid.tiles_math import aligned_query_cells
    from repro.joins import (
        JoinSearchEngine,
        JoinSketch,
        dataset_score_are,
        exact_catalog,
        region_score_are,
    )
    from repro.workloads.catalogs import build_catalog, generate_catalog_sources

    if args.sources < 1:
        print("error: --sources must be positive", file=sys.stderr)
        return 2
    if args.top < 1:
        print("error: --top must be positive", file=sys.stderr)
        return 2
    if args.seed_pool is not None and args.seed_pool < 1:
        print("error: --seed-pool must be positive", file=sys.stderr)
        return 2

    reference = Grid(Rect(0.0, 360.0, 0.0, 180.0), *args.ref_cells)
    summary_cells = (
        tuple(args.summary_cells)
        if args.summary_cells is not None
        else (reference.n1 * 4, reference.n2 * 4)
    )
    summary_grid = Grid(reference.extent, *summary_cells)

    start = time.perf_counter()
    sources = generate_catalog_sources(
        reference, args.sources, args.objects, seed=args.seed
    )
    try:
        catalog = build_catalog(
            sources, reference, family=args.family, summary_grid=summary_grid
        )
    except BrowseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    build_s = time.perf_counter() - start

    engine = JoinSearchEngine(catalog, seed_pool=args.seed_pool)
    try:
        if args.region is not None:
            metric = args.metric or "intersect_mass"
            region = aligned_query_cells(reference, Rect(*args.region))
            result = engine.search_region(region, metric=metric, k=args.top)
        else:
            metric = args.metric or "overlap"
            query_sources = generate_catalog_sources(
                reference, 1, args.objects, seed=args.query_seed, name_prefix="query"
            )
            sketch = JoinSketch.from_dataset(query_sources[0], reference)
            result = engine.search_dataset(
                sketch, metric=metric, k=args.top, prune=not args.no_prune
            )
    except (BrowseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc = {
        "mode": result.mode,
        "metric": result.metric,
        "catalog_sources": len(catalog),
        "build_seconds": round(build_s, 3),
        "search_seconds": round(result.elapsed_s, 6),
        "fully_scored": result.fully_scored,
        "pruned": result.pruned,
        "ranking": [
            {"rank": r + 1, "name": name, "score": float(score)}
            for r, (name, score) in enumerate(zip(result.names, result.scores))
        ],
    }
    if args.truth:
        truth = exact_catalog(sources, reference, names=[d.name for d in sources])
        truth_engine = JoinSearchEngine(truth)
        if args.region is not None:
            truth_result = truth_engine.search_region(region, metric=metric, k=args.top)
            are = region_score_are(catalog, truth, [region], metric=metric)
        else:
            truth_result = truth_engine.search_dataset(
                sketch, metric=metric, k=args.top, prune=not args.no_prune
            )
            are = dataset_score_are(catalog, truth, [sketch], metric=metric)
        overlap_at_k = len(set(result.names) & set(truth_result.names))
        doc["truth"] = {
            "are": are,
            "topk_agreement": overlap_at_k / len(truth_result.names)
            if truth_result.names
            else 1.0,
        }

    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print(
        f"{result.mode} search over {len(catalog)} summaries "
        f"(metric={result.metric}, family={args.family}): "
        f"scored {result.fully_scored}, pruned {result.pruned} "
        f"[{result.elapsed_s * 1e3:.2f} ms; catalog built in {build_s:.2f}s]"
    )
    for level in result.levels:
        print(
            f"  level {level.level} ({level.shape[0]}x{level.shape[1]}): "
            f"evaluated {level.evaluated}, pruned {level.pruned}"
        )
    for row in doc["ranking"]:
        print(f"  #{row['rank']:>2} {row['name']:<12} {row['score']:.3f}")
    if args.truth:
        print(
            f"  vs exact sketches: ARE={doc['truth']['are']:.4f}, "
            f"top-{args.top} agreement={doc['truth']['topk_agreement']:.2f}"
        )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "describe": _cmd_describe,
    "build": _cmd_build,
    "browse": _cmd_browse,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "join-search": _cmd_join_search,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
