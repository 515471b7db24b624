"""Serving-gateway benchmark: tail latency, shedding and degradation
under nominal and overload closed-loop session replay (PR 7).

Three measurements over an Euler summary of a Figure-12 dataset on the
paper's 360x180 world grid, all through the asyncio gateway:

1. **Nominal load.**  Replays 64 concurrent closed-loop pan/zoom
   sessions (4 tenants x 16 sessions) with a generous per-request
   deadline.  Gates: p99 latency inside the configured deadline and a
   shed rate below 5% -- the gateway at its design point serves
   everything it admits, in time.
2. **Overload (4x).**  The same gateway configuration under 4x the
   sessions.  The admission queue saturates; the gateway must *degrade
   first and shed deterministically*: every request is either served
   (possibly partial) or rejected with a structured retry-after error --
   zero unexpected errors, and zero admitted requests whose budget then
   expired in queue (the dispatch backstop never fires in steady state).
3. **Coalescing parity.**  A burst of identical concurrent requests
   through a coalescing and a non-coalescing gateway; every shared
   raster must be bit-identical to the independently computed one.

Results go to ``BENCH_gateway.json`` at the repository root.  Run
directly::

    PYTHONPATH=src python benchmarks/bench_gateway.py          # full
    PYTHONPATH=src python benchmarks/bench_gateway.py --quick  # CI smoke

Quick mode shrinks the dataset scale and session counts and relaxes the
shed-rate gate (CI runners are noisy neighbours), keeping the structural
gates -- parity, zero unexpected errors, zero queue-expiry sheds --
exact.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib

import numpy as np

from repro.experiments.config import ExperimentConfig, Workbench
from repro.gateway import Gateway, TenantCatalog, TileRequest
from repro.grid.tiles_math import TileQuery
from repro.obs import BrowseInstrumentation
from repro.workloads.loadgen import run_loadgen
from repro.workloads.sessions import generate_tenant_sessions

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_gateway.json"

TENANTS = ("acme", "beta", "gamma", "delta")


def build_gateway(
    workbench: Workbench,
    dataset: str,
    *,
    workers: int,
    max_pending: int,
    instruments: BrowseInstrumentation | None = None,
    coalesce: bool = True,
) -> Gateway:
    """A fresh gateway over the workbench summary, one service per tenant."""
    catalog = TenantCatalog(instruments=instruments)
    catalog.register_dataset(
        "main", workbench.s_euler(dataset), workbench.grid
    )
    for tenant in TENANTS:
        catalog.add_tenant(tenant)
    return Gateway(
        catalog,
        workers=workers,
        max_pending=max_pending,
        coalesce=coalesce,
        instruments=instruments,
    )


def run_load(
    workbench: Workbench,
    dataset: str,
    *,
    label: str,
    sessions_per_tenant: int,
    deadline_s: float,
    workers: int,
    max_pending: int,
    seed: int,
) -> dict:
    """One closed-loop replay; returns the report plus gateway stats."""
    plans = generate_tenant_sessions(
        workbench.grid,
        tenants=list(TENANTS),
        dataset="main",
        sessions_per_tenant=sessions_per_tenant,
        seed=seed,
        pan_prob=0.4,
    )
    instruments = BrowseInstrumentation()
    gateway = build_gateway(
        workbench,
        dataset,
        workers=workers,
        max_pending=max_pending,
        instruments=instruments,
    )

    async def main():
        try:
            return await run_loadgen(gateway, plans, deadline_s=deadline_s)
        finally:
            await gateway.close()

    report = asyncio.run(main())
    stats = gateway.stats
    entry = {
        "label": label,
        "tenants": len(TENANTS),
        "deadline_s": deadline_s,
        "workers": workers,
        "max_pending": max_pending,
        **report.to_dict(),
        "gateway_stats": dict(stats),
        "queue_wait_p_observed": {
            "count": instruments.gateway_queue_wait.count,
            "mean_s": round(
                instruments.gateway_queue_wait.sum
                / max(instruments.gateway_queue_wait.count, 1),
                6,
            ),
        },
    }
    print(
        f"{label:>9}: {report.sessions} sessions, {report.requests} requests -> "
        f"{report.served} served ({report.degraded} degraded), "
        f"shed {100 * report.shed_rate:.1f}%, "
        f"p50 {1000 * report.latency(50):.1f} ms, "
        f"p99 {1000 * report.latency(99):.1f} ms, "
        f"dispatch-expired {stats['shed_dispatch']}"
    )
    return entry


def run_coalesce_parity(
    workbench: Workbench, dataset: str, *, burst: int, workers: int
) -> dict:
    """Identical concurrent requests, shared vs independent computation."""
    grid = workbench.grid
    region = TileQuery(0, grid.n1, 0, grid.n2)
    request = TileRequest(
        tenant="acme",
        dataset="main",
        region=region,
        rows=6,
        cols=12,
        deadline_s=30.0,
    )

    def burst_through(coalesce: bool):
        gateway = build_gateway(
            workbench, dataset, workers=workers, max_pending=4 * burst, coalesce=coalesce
        )

        async def main():
            try:
                return (
                    await asyncio.gather(
                        *(gateway.submit(request) for _ in range(burst))
                    ),
                    dict(gateway.stats),
                )
            finally:
                await gateway.close()

        return asyncio.run(main())

    shared, shared_stats = burst_through(True)
    independent, independent_stats = burst_through(False)
    reference = independent[0].result.counts
    for response in shared + independent:
        if response.status != "ok":
            raise AssertionError(f"parity burst request failed: {response.error}")
        if not np.array_equal(response.result.counts, reference):
            raise AssertionError("coalesced raster diverged from uncoalesced")
    followers = shared_stats["coalesced_followers"]
    entry = {
        "burst": burst,
        "coalesced_computations": shared_stats["completed"],
        "uncoalesced_computations": independent_stats["completed"],
        "followers": followers,
        "coalesce_rate": round(followers / burst, 4),
        "parity": "bit-identical",
    }
    print(
        f" coalesce: burst of {burst} -> {shared_stats['completed']} shared "
        f"computation(s) vs {independent_stats['completed']} independent, "
        f"parity bit-identical"
    )
    return entry


def run(
    dataset: str,
    *,
    scale: float | None = None,
    sessions_per_tenant: int = 16,
    overload_factor: int = 4,
    deadline_s: float = 2.0,
    workers: int = 2,
    max_pending: int = 96,
    burst: int = 24,
) -> dict:
    """Run all three benchmarks and return the result document."""
    config = ExperimentConfig() if scale is None else ExperimentConfig(scale=scale)
    workbench = Workbench(config)
    return {
        "benchmark": "bench_gateway",
        "estimator": "S-EulerApprox",
        "dataset": dataset,
        "grid": f"{workbench.grid.n1}x{workbench.grid.n2}",
        "scale": workbench.config.scale,
        "nominal": run_load(
            workbench,
            dataset,
            label="nominal",
            sessions_per_tenant=sessions_per_tenant,
            deadline_s=deadline_s,
            workers=workers,
            max_pending=max_pending,
            seed=17,
        ),
        "overload": run_load(
            workbench,
            dataset,
            label="overload",
            sessions_per_tenant=sessions_per_tenant * overload_factor,
            deadline_s=deadline_s,
            workers=workers,
            max_pending=max_pending,
            seed=23,
        ),
        "coalesce_parity": run_coalesce_parity(
            workbench, dataset, burst=burst, workers=workers
        ),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: reduced scale and sessions, relaxed shed gate",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    if args.quick:
        document = run("adl", scale=0.02, sessions_per_tenant=8, burst=12)
    else:
        document = run("sp_skew")

    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")

    nominal, overload = document["nominal"], document["overload"]
    failures = []
    if nominal["sessions"] < (32 if args.quick else 64):
        failures.append("nominal run replayed too few concurrent sessions")
    if nominal["latency_p99_s"] > nominal["deadline_s"]:
        failures.append(
            f"nominal p99 {nominal['latency_p99_s']}s exceeds the "
            f"{nominal['deadline_s']}s deadline"
        )
    shed_ceiling = 0.25 if args.quick else 0.05
    if nominal["shed_rate"] >= shed_ceiling:
        failures.append(
            f"nominal shed rate {nominal['shed_rate']:.3f} is not below "
            f"{shed_ceiling}"
        )
    for entry in (nominal, overload):
        if entry["errors"]:
            failures.append(f"{entry['label']}: unexpected errors")
        # "Admitted, then expired in queue" must not happen: triage sheds
        # up front, so the dispatch backstop stays quiet.
        if entry["gateway_stats"]["shed_dispatch"]:
            failures.append(f"{entry['label']}: admitted requests expired in queue")
        served_or_shed = (
            entry["served"] + entry["shed"] + entry["quota_rejected"]
        )
        if served_or_shed != entry["requests"]:
            failures.append(f"{entry['label']}: responses unaccounted for")
    if overload["shed"] + overload["degraded"] == 0 and overload["gateway_stats"][
        "reduced_budget_admissions"
    ] == 0:
        failures.append("overload run never degraded nor shed")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
