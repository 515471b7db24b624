"""The closed-loop load generator and its report arithmetic."""

import asyncio

import numpy as np
import pytest

from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.gateway.catalog import TenantCatalog
from repro.gateway.gateway import Gateway
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.workloads.loadgen import LoadgenReport, percentile, run_loadgen
from repro.workloads.sessions import generate_tenant_sessions

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 32.0, 0.0, 32.0), 32, 32)


@pytest.fixture(scope="module")
def estimator():
    data = random_dataset(np.random.default_rng(13), GRID, 400)
    return SEulerApprox(EulerHistogram.from_dataset(data, GRID))


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_nearest_rank(self):
        samples = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(samples, 0) == 0.1
        assert percentile(samples, 50) == 0.3
        assert percentile(samples, 100) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestTenantSessions:
    def test_reproducible_and_round_robin(self):
        a = generate_tenant_sessions(
            GRID, tenants=["t1", "t2"], dataset="main", sessions_per_tenant=3, seed=9
        )
        b = generate_tenant_sessions(
            GRID, tenants=["t1", "t2"], dataset="main", sessions_per_tenant=3, seed=9
        )
        assert a == b
        assert [p.tenant for p in a[:4]] == ["t1", "t2", "t1", "t2"]
        # Distinct session ids -> distinct viewport-delta state.
        assert len({p.session_id for p in a}) == len(a)

    def test_tenants_get_different_traces(self):
        plans = generate_tenant_sessions(
            GRID, tenants=["t1", "t2"], dataset="main", sessions_per_tenant=2, seed=0
        )
        t1 = [p.session for p in plans if p.tenant == "t1"]
        t2 = [p.session for p in plans if p.tenant == "t2"]
        assert t1 != t2

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_tenant_sessions(GRID, tenants=[], dataset="main")
        with pytest.raises(ValueError):
            generate_tenant_sessions(
                GRID, tenants=["t"], dataset="main", sessions_per_tenant=0
            )


class TestReport:
    def test_rates_and_tallies(self):
        report = LoadgenReport(sessions=2)

        class Resp:
            def __init__(self, status, code=None, coalesced=False, vf=1.0):
                self.status = status
                self.error = {"code": code} if code else None
                self.coalesced = coalesced
                self.total_s = 0.1
                self.valid_fraction = vf

            @property
            def ok(self):
                return self.error is None

            @property
            def shed(self):
                return self.error is not None and self.error.get("code") in (
                    "overloaded",
                    "tenant_quota_exceeded",
                )

        report.record(Resp("ok"))
        report.record(Resp("degraded", vf=0.5, coalesced=True))
        report.record(Resp("error", code="overloaded"))
        report.record(Resp("error", code="tenant_quota_exceeded"))
        report.record(Resp("error", code="invalid_region"))
        assert report.requests == 5
        assert report.served == 2
        assert report.shed == 1
        assert report.quota_rejected == 1
        assert report.errors == 1
        assert report.shed_rate == pytest.approx(2 / 5)
        assert report.coalesce_rate == pytest.approx(1 / 2)
        assert report.degraded_tile_fraction == pytest.approx(0.25)
        doc = report.to_dict()
        assert doc["requests"] == 5
        assert doc["latency_p50_s"] > 0

    def test_empty_report_has_sane_zeros(self):
        report = LoadgenReport()
        assert report.shed_rate == 0.0
        assert report.coalesce_rate == 0.0
        assert report.degraded_tile_fraction == 0.0
        assert report.throughput_rps == 0.0


class TestRunLoadgen:
    def test_closed_loop_replay_serves_every_interaction(self, estimator):
        catalog = TenantCatalog()
        catalog.register_dataset("main", estimator, GRID)
        catalog.add_tenant("t1")
        catalog.add_tenant("t2")
        plans = generate_tenant_sessions(
            GRID,
            tenants=["t1", "t2"],
            dataset="main",
            sessions_per_tenant=4,
            seed=2,
            pan_prob=0.5,
        )
        expected = sum(len(p.session) for p in plans)

        async def main():
            gateway = Gateway(catalog, workers=2, max_pending=32)
            try:
                return await run_loadgen(gateway, plans, deadline_s=10.0)
            finally:
                await gateway.close()

        report = asyncio.run(main())
        assert report.sessions == len(plans)
        assert report.requests == expected
        assert report.served == expected
        assert report.errors == 0
        assert report.latency(99) > 0
        assert report.elapsed_s > 0

    def test_max_concurrent_bounds_active_sessions(self, estimator):
        catalog = TenantCatalog()
        catalog.register_dataset("main", estimator, GRID)
        catalog.add_tenant("t1")
        plans = generate_tenant_sessions(
            GRID, tenants=["t1"], dataset="main", sessions_per_tenant=6, seed=4
        )

        async def main():
            gateway = Gateway(catalog, workers=1, max_pending=64)
            try:
                return await run_loadgen(gateway, plans, max_concurrent=2)
            finally:
                await gateway.close()

        report = asyncio.run(main())
        assert report.served == report.requests
        assert report.errors == 0

    def test_overload_sheds_or_degrades_and_accounts_for_every_request(
        self, estimator
    ):
        """A crowd of 128 closed-loop sessions over 4 tenants against a
        32-slot queue, with 2 s deadlines and millisecond services: the
        gateway sheds or degrades instead of failing, answers every
        request one way or another, and never admits a request that
        then expires in queue (the dispatch backstop stays quiet)."""
        tenants = ["acme", "beta", "gamma", "delta"]
        catalog = TenantCatalog()
        catalog.register_dataset("main", estimator, GRID)
        for tenant in tenants:
            catalog.add_tenant(tenant)
        plans = generate_tenant_sessions(
            GRID,
            tenants=tenants,
            dataset="main",
            sessions_per_tenant=32,
            seed=23,
            pan_prob=0.4,
        )

        async def main():
            gateway = Gateway(catalog, workers=2, max_pending=32)
            try:
                return await run_loadgen(gateway, plans, deadline_s=2.0), gateway.stats
            finally:
                await gateway.close()

        report, stats = asyncio.run(main())
        assert report.sessions == 128
        assert report.requests == sum(len(p.session) for p in plans)
        assert report.errors == 0
        assert stats["shed_dispatch"] == 0
        assert report.served + report.shed + report.quota_rejected == report.requests
        assert report.shed + report.degraded + stats["reduced_budget_admissions"] > 0

    def test_negative_think_time_rejected(self, estimator):
        catalog = TenantCatalog()
        catalog.register_dataset("main", estimator, GRID)
        catalog.add_tenant("t1")

        async def main():
            gateway = Gateway(catalog, workers=1)
            try:
                await run_loadgen(gateway, [], think_time_s=-1.0)
            finally:
                await gateway.close()

        with pytest.raises(ValueError):
            asyncio.run(main())
