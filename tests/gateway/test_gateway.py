"""The asyncio gateway end to end: coalescing (in flight and finished),
quotas, shedding, degradation, cancellation and shutdown.

Concurrency choreography uses gate events (estimators that block until
released), never bare sleeps, so every scenario is deterministic; the
one timing-based test (the dispatch backstop) uses margins an order of
magnitude above scheduler jitter.
"""

import asyncio
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gateway.gateway as gateway_module
from repro.browse.service import GeoBrowsingService
from repro.cache import TileResultCache
from repro.euler.histogram import EulerHistogram
from repro.euler.maintained import MaintainedEulerHistogram
from repro.euler.simple import SEulerApprox
from repro.gateway.admission import AdmissionController, ServiceTimeWindow
from repro.gateway.catalog import TenantCatalog
from repro.gateway.gateway import Gateway, TileRequest
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs.instruments import BrowseInstrumentation
from repro.testing.faults import FaultSchedule, FaultyBatchEstimator

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 16.0, 0.0, 16.0), 16, 16)
REGION = TileQuery(0, 16, 0, 16)
OTHER_REGION = TileQuery(0, 8, 0, 8)


@pytest.fixture(scope="module")
def estimator():
    data = random_dataset(np.random.default_rng(5), GRID, 400)
    return SEulerApprox(EulerHistogram.from_dataset(data, GRID))


class GatedEstimator:
    """Delegates to a real estimator after a gate opens.

    ``entered`` is set when a request reaches the estimator, so tests
    can wait for "the worker is now occupied" without sleeping.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()

    @property
    def name(self) -> str:
        return "gated"

    def _block(self) -> None:
        self.entered.set()
        assert self.gate.wait(timeout=10.0), "test gate never opened"

    def estimate(self, query):
        self._block()
        return self._inner.estimate(query)

    def estimate_batch(self, queries):
        self._block()
        return self._inner.estimate_batch(queries)


class ThreadRecordingWindow(ServiceTimeWindow):
    """A service-time window that records the thread of every call."""

    def __init__(self) -> None:
        super().__init__()
        self.callers: list[int] = []

    def observe(self, seconds: float) -> None:
        self.callers.append(threading.get_ident())
        super().observe(seconds)

    def p50(self) -> float:
        self.callers.append(threading.get_ident())
        return super().p50()

    def __len__(self) -> int:
        self.callers.append(threading.get_ident())
        return super().__len__()


def make_gateway(
    estimator,
    *,
    tenants=(("acme", 0),),
    cache=None,
    workers=2,
    max_pending=8,
    coalesce=True,
    admission=None,
    instruments=None,
):
    catalog = TenantCatalog(instruments=instruments)
    catalog.register_dataset("main", estimator, GRID, cache=cache)
    for name, quota in tenants:
        catalog.add_tenant(name, quota=quota)
    return Gateway(
        catalog,
        workers=workers,
        max_pending=max_pending,
        coalesce=coalesce,
        admission=admission,
        instruments=instruments,
    )


def request(
    region=REGION,
    *,
    tenant="acme",
    deadline=None,
    session="default",
    rows=4,
    cols=4,
    relation="overlap",
):
    return TileRequest(
        tenant=tenant,
        dataset="main",
        region=region,
        rows=rows,
        cols=cols,
        relation=relation,
        deadline_s=deadline,
        session=session,
    )


def serve(gateway, *requests):
    """Submit ``requests`` one after another; returns the responses and
    the gateway's stats, and closes the gateway."""

    async def main():
        try:
            return [await gateway.submit(r) for r in requests], gateway.stats.copy()
        finally:
            await gateway.close()

    return asyncio.run(main())


async def wait_for(predicate, timeout=5.0):
    """Poll a predicate from the event loop without blocking it."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.005)


class TestServing:
    def test_ok_response_matches_the_service_directly(self, estimator):
        async def main():
            gateway = make_gateway(estimator)
            try:
                response = await gateway.submit(request())
            finally:
                await gateway.close()
            return response

        response = asyncio.run(main())
        assert response.status == "ok"
        assert response.ok and not response.shed
        assert response.result.is_complete
        # The gateway serves exactly what the library computes.
        expected = estimator.estimate_batch  # sanity: same estimator object
        assert expected is not None
        direct = response.result.counts
        assert direct.shape == (4, 4)
        assert np.isfinite(direct).all()

    def test_wire_form_is_json_safe(self, estimator):
        async def main():
            gateway = make_gateway(estimator)
            try:
                return await gateway.submit(request())
            finally:
                await gateway.close()

        doc = asyncio.run(main()).to_wire()
        encoded = json.loads(json.dumps(doc))
        assert encoded["status"] == "ok"
        assert encoded["valid_fraction"] == 1.0
        assert len(encoded["counts"]) == 4

    def test_unknown_tenant_and_dataset_are_structured_errors(self, estimator):
        async def main():
            gateway = make_gateway(estimator)
            try:
                ghost = await gateway.submit(request(tenant="ghost"))
                wrong = await gateway.submit(
                    TileRequest(
                        tenant="acme", dataset="nope", region=REGION, rows=2, cols=2
                    )
                )
            finally:
                await gateway.close()
            return ghost, wrong

        ghost, wrong = asyncio.run(main())
        assert ghost.status == "error"
        assert ghost.error["code"] == "invalid_region"
        assert wrong.error["code"] == "invalid_region"

    def test_metrics_families_record_outcomes(self, estimator):
        instruments = BrowseInstrumentation()

        async def main():
            gateway = make_gateway(estimator, instruments=instruments)
            try:
                await gateway.submit(request())
                await gateway.submit(request(tenant="ghost"))
            finally:
                await gateway.close()

        asyncio.run(main())
        ok = instruments.gateway_requests.labels(tenant="acme", outcome="ok")
        err = instruments.gateway_requests.labels(tenant="ghost", outcome="error")
        assert ok.value == 1
        assert err.value == 1


class TestFrontDoor:
    """Malformed requests bounce before they cost a quota or queue slot."""

    def test_non_dividing_tiling_is_rejected_before_admission(self, estimator):
        # 7 rows do not divide the 16-cell region.
        (response,), stats = serve(make_gateway(estimator), request(rows=7))
        assert response.error["code"] == "invalid_region"
        assert stats["admitted"] == 0
        assert stats["coalesced_leaders"] == 0
        assert stats["errors"] == 1

    def test_non_dividing_tiling_is_rejected_while_the_only_slot_is_held(
        self, estimator
    ):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, workers=1, max_pending=1)
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                bad = await gateway.submit(request(OTHER_REGION, rows=3))
                gated.gate.set()
                await leader
                return bad, gateway.stats.copy()
            finally:
                await gateway.close()

        bad, stats = asyncio.run(main())
        # Not a retryable "overloaded": no retry can ever succeed.
        assert bad.error["code"] == "invalid_region"
        assert "retry_after_s" not in bad.error
        assert stats["shed_queue_full"] == 0
        assert stats["admitted"] == 1

    @pytest.mark.parametrize("deadline", [-1.0, float("nan")])
    def test_negative_or_nan_deadline_is_rejected(self, estimator, deadline):
        (response,), stats = serve(
            make_gateway(estimator), request(deadline=deadline)
        )
        assert response.status == "error"
        assert response.error["code"] == "invalid_region"
        assert stats["admitted"] == 0


class TestCoalescing:
    def test_identical_requests_share_one_computation(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated)
            try:
                waiters = [
                    asyncio.ensure_future(gateway.submit(request()))
                    for _ in range(4)
                ]
                await wait_for(gated.entered.is_set)
                gated.gate.set()
                return await asyncio.gather(*waiters), gateway.stats.copy()
            finally:
                await gateway.close()

        responses, stats = asyncio.run(main())
        assert [r.status for r in responses] == ["ok"] * 4
        assert stats["coalesced_leaders"] == 1
        assert stats["coalesced_followers"] == 3
        assert stats["reused_results"] == 0
        assert stats["completed"] == 1
        leaders = [r for r in responses if not r.coalesced]
        followers = [r for r in responses if r.coalesced]
        assert len(leaders) == 1 and len(followers) == 3

    def test_coalesced_raster_is_bit_identical_to_uncoalesced(self, estimator):
        async def coalesced():
            gateway = make_gateway(estimator)
            try:
                return await asyncio.gather(*(gateway.submit(request()) for _ in range(3)))
            finally:
                await gateway.close()

        async def uncoalesced():
            gateway = make_gateway(estimator, coalesce=False)
            try:
                return await asyncio.gather(*(gateway.submit(request()) for _ in range(3)))
            finally:
                await gateway.close()

        shared = asyncio.run(coalesced())
        independent = asyncio.run(uncoalesced())
        reference = independent[0].result.counts
        for response in shared + independent:
            assert response.status == "ok"
            assert np.array_equal(response.result.counts, reference)

    def test_different_regions_are_not_coalesced(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, workers=2)
            try:
                a = asyncio.ensure_future(gateway.submit(request(REGION)))
                b = asyncio.ensure_future(gateway.submit(request(OTHER_REGION)))
                await wait_for(gated.entered.is_set)
                gated.gate.set()
                await asyncio.gather(a, b)
                return gateway.stats.copy()
            finally:
                await gateway.close()

        stats = asyncio.run(main())
        assert stats["coalesced_leaders"] == 2
        assert stats["coalesced_followers"] == 0

    def test_coalescing_disabled_runs_each_request_alone(self, estimator):
        async def main():
            gateway = make_gateway(estimator, coalesce=False)
            try:
                await asyncio.gather(*(gateway.submit(request()) for _ in range(3)))
                # Nor is a finished raster reused.
                await gateway.submit(request())
                return gateway.stats.copy()
            finally:
                await gateway.close()

        stats = asyncio.run(main())
        assert stats["coalesced_followers"] == 0
        assert stats["reused_results"] == 0
        assert stats["completed"] == 4

    def test_cancelled_leader_waiter_does_not_kill_followers(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated)
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                follower = asyncio.ensure_future(gateway.submit(request()))
                # Let the follower join the in-flight computation.
                await wait_for(lambda: gateway.stats["coalesced_followers"] == 1)
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                gated.gate.set()
                return await follower
            finally:
                await gateway.close()

        response = asyncio.run(main())
        assert response.status == "ok"
        assert response.coalesced
        assert response.result.is_complete

    @pytest.mark.parametrize("tenant", ["acme", "beta"])
    def test_follower_session_remembers_the_shared_raster(self, estimator, tenant):
        # The follower may be another tenant over the same summary: the
        # raster goes into the follower's own service's tracker.
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, tenants=(("acme", 0), ("beta", 0)))
            try:
                leader = asyncio.ensure_future(gateway.submit(request(session="lead")))
                await wait_for(gated.entered.is_set)
                follower = asyncio.ensure_future(
                    gateway.submit(request(tenant=tenant, session="follow"))
                )
                await wait_for(lambda: gateway.stats["coalesced_followers"] == 1)
                gated.gate.set()
                return await leader, await follower, gateway.catalog
            finally:
                await gateway.close()

        leader, follower, catalog = asyncio.run(main())
        assert follower.coalesced
        assert follower.result is leader.result
        assert catalog.service("acme", "main").delta.lookup("acme/lead") is leader.result
        assert catalog.service(tenant, "main").delta.lookup(f"{tenant}/follow") is leader.result


class TestFinishedRasters:
    """A repeated raster is answered from its finished computation."""

    def test_repeat_is_answered_from_the_finished_raster(self, estimator):
        (first, second), stats = serve(
            make_gateway(estimator), request(session="a"), request(session="b")
        )
        assert first.status == "ok" and not first.coalesced
        assert second.status == "ok" and second.coalesced
        assert second.result is first.result
        assert second.queue_wait_s == second.service_s == 0.0
        assert second.degrade_factor == 1.0
        assert stats["reused_results"] == 1
        assert stats["coalesced_followers"] == 0
        assert stats["admitted"] == stats["completed"] == 1

    def test_reuse_has_its_own_coalesced_role(self, estimator):
        instruments = BrowseInstrumentation()
        serve(make_gateway(estimator, instruments=instruments), request(), request())
        coalesced = instruments.gateway_coalesced
        assert coalesced.labels(role="leader").value == 1
        assert coalesced.labels(role="reused").value == 1
        assert coalesced.labels(role="follower").value == 0

    def test_reused_raster_is_remembered_for_the_session(self, estimator):
        gateway = make_gateway(estimator)
        (first, second), _ = serve(gateway, request(session="a"), request(session="b"))
        assert second.result is first.result
        assert gateway.catalog.service("acme", "main").delta.lookup("acme/b") is first.result

    def test_hit_needs_no_admission_slot(self, estimator):
        gated = GatedEstimator(estimator)
        gated.gate.set()

        async def main():
            gateway = make_gateway(gated, workers=1, max_pending=1)
            try:
                warm = await gateway.submit(request())
                gated.gate.clear()
                gated.entered.clear()
                # A gated leader holds the only admission slot.
                leader = asyncio.ensure_future(gateway.submit(request(OTHER_REGION)))
                await wait_for(gated.entered.is_set)
                shed = await gateway.submit(request(TileQuery(8, 16, 8, 16)))
                reused = await gateway.submit(request(deadline=0.0))
                gated.gate.set()
                await leader
                return warm, shed, reused, gateway.stats.copy()
            finally:
                gated.gate.set()
                await gateway.close()

        warm, shed, reused, stats = asyncio.run(main())
        assert shed.error["code"] == "overloaded"
        assert stats["shed_queue_full"] == 1
        assert reused.status == "ok" and reused.coalesced
        assert reused.result is warm.result
        assert stats["reused_results"] == 1
        assert stats["admitted"] == 2

    def test_deadline_partial_raster_is_recomputed(self, estimator):
        (partial, full, again), stats = serve(
            make_gateway(estimator), request(deadline=0.0), request(), request()
        )
        assert partial.status == "degraded" and not partial.result.is_complete
        assert full.status == "ok" and not full.coalesced
        assert again.result is full.result
        assert stats["completed"] == 2
        assert stats["reused_results"] == 1

    def test_fallback_tier_raster_is_recomputed(self, estimator):
        # The primary tier fails its one call for the first raster, so
        # that raster is the second tier's answer.
        faulty = FaultyBatchEstimator(estimator, FaultSchedule(script=("error",)))
        (fallback, primary, again), stats = serve(
            make_gateway([faulty, estimator]), request(), request(), request()
        )
        assert fallback.status == "ok"
        assert fallback.result.delta.reusable is not None
        assert not primary.coalesced
        assert primary.result.delta.reusable is None
        assert again.result is primary.result
        assert stats["completed"] == 2
        assert stats["reused_results"] == 1

    def test_generation_bump_forces_a_recompute(self):
        maintained = MaintainedEulerHistogram(
            GRID, random_dataset(np.random.default_rng(11), GRID, 200)
        )
        estimator = SEulerApprox(maintained)

        async def main():
            gateway = make_gateway(estimator)
            try:
                before = await gateway.submit(request())
                again = await gateway.submit(request())
                maintained.insert(Rect(1.2, 4.8, 1.2, 4.8))
                after = await gateway.submit(request())
                return before, again, after, gateway.stats.copy()
            finally:
                await gateway.close()

        before, again, after, stats = asyncio.run(main())
        assert again.result is before.result
        assert not after.coalesced
        assert stats["completed"] == 2
        fresh = GeoBrowsingService(estimator, GRID).browse(REGION, 4, 4).counts
        assert np.array_equal(after.result.counts, fresh)
        assert not np.array_equal(after.result.counts, before.result.counts)

    def test_raster_is_filed_under_the_generation_that_answered_it(self):
        class GatedMaintained(GatedEstimator):
            # Exposes the summary, so the cache key sees its generation.
            @property
            def wrapped(self):
                return self._inner

        maintained = MaintainedEulerHistogram(
            GRID, random_dataset(np.random.default_rng(12), GRID, 200)
        )
        inner = SEulerApprox(maintained)
        gated = GatedMaintained(inner)

        async def main():
            gateway = make_gateway(gated, workers=1)
            try:
                blocker = asyncio.ensure_future(gateway.submit(request(OTHER_REGION)))
                await wait_for(gated.entered.is_set)
                # Admitted at the old generation; it queues behind the
                # blocker while an update lands.
                queued = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(lambda: gateway.pending == 2)
                maintained.insert(Rect(1.2, 4.8, 1.2, 4.8))
                gated.gate.set()
                await blocker
                queued = await queued
                repeat = await gateway.submit(request())
                return queued, repeat, gateway.stats.copy()
            finally:
                gated.gate.set()
                await gateway.close()

        queued, repeat, stats = asyncio.run(main())
        assert repeat.result is queued.result
        assert stats["reused_results"] == 1
        fresh = GeoBrowsingService(inner, GRID).browse(REGION, 4, 4).counts
        assert np.array_equal(repeat.result.counts, fresh)

    def test_byte_bound_evicts_the_least_recently_used_raster(self, estimator, monkeypatch):
        # Room for exactly two 4x4 rasters.
        monkeypatch.setattr(gateway_module, "FINISHED_RASTER_BYTES", 2 * 16 * 8)
        a, b, c = request(), request(OTHER_REGION), request(relation="contains")
        responses, stats = serve(make_gateway(estimator), a, b, a, c, a, b)
        assert [r.coalesced for r in responses] == [False, False, True, False, True, False]
        assert stats["completed"] == 4
        assert stats["reused_results"] == 2


#: The parity sweep's request pool: regions, tilings that divide all of
#: them, relations, client deadlines and sessions.
SWEEP_REGIONS = (REGION, OTHER_REGION, TileQuery(8, 16, 8, 16))
SWEEP_TILINGS = ((4, 4), (2, 2), (8, 4))
SWEEP_REQUESTS = st.builds(
    lambda region, tiling, relation, deadline, session: request(
        region,
        rows=tiling[0],
        cols=tiling[1],
        relation=relation,
        deadline=deadline,
        session=session,
    ),
    st.sampled_from(SWEEP_REGIONS),
    st.sampled_from(SWEEP_TILINGS),
    st.sampled_from(("overlap", "contains", "disjoint")),
    st.sampled_from((None, 0.0, 1.0)),
    st.sampled_from(("a", "b")),
)


class TestReuseParity:
    @settings(max_examples=40, deadline=None)
    @given(waves=st.lists(st.lists(SWEEP_REQUESTS, min_size=1, max_size=3), min_size=1, max_size=6))
    def test_every_served_raster_matches_an_uncoalesced_gateway(self, estimator, waves):
        """Waves run one after another (finished rasters are reused), the
        requests of a wave concurrently (followers join a leader)."""

        async def main():
            gateway = make_gateway(estimator, cache=TileResultCache(1 << 20))
            reference = make_gateway(estimator, coalesce=False)
            try:
                checked = []
                for wave in waves:
                    responses = await asyncio.gather(*(gateway.submit(r) for r in wave))
                    for sent, response in zip(wave, responses):
                        if not response.ok:
                            continue
                        expected = await reference.submit(
                            request(
                                sent.region,
                                rows=sent.rows,
                                cols=sent.cols,
                                relation=sent.relation,
                                session=f"ref{len(checked)}",
                            )
                        )
                        checked.append((response, expected))
                return checked
            finally:
                await gateway.close()
                await reference.close()

        for response, expected in asyncio.run(main()):
            assert expected.status == "ok"
            result = response.result
            if response.status == "ok":
                assert np.array_equal(result.counts, expected.result.counts)
            else:
                answered = np.ones(result.counts.shape, dtype=bool)
                if result.valid is not None:
                    answered &= result.valid
                if result.levels is not None:
                    answered &= result.levels < 0
                assert np.array_equal(
                    result.counts[answered], expected.result.counts[answered]
                )


class TestSharedRastersAreReadOnly:
    def test_a_client_cannot_corrupt_a_shared_raster(self, estimator):
        gated = GatedEstimator(estimator)
        pan = TileQuery(4, 16, 0, 16)

        async def main():
            gateway = make_gateway(gated)
            try:
                leader = asyncio.ensure_future(gateway.submit(request(session="a")))
                await wait_for(gated.entered.is_set)
                follower = asyncio.ensure_future(gateway.submit(request(session="b")))
                await wait_for(lambda: gateway.stats["coalesced_followers"] == 1)
                gated.gate.set()
                leader = await leader
                await follower
                with pytest.raises(ValueError):
                    leader.result.counts[0, 0] = -12345.0
                reused = await gateway.submit(request(session="c"))
                # Session b's pan copies its overlap from the shared raster.
                panned = await gateway.submit(request(pan, cols=3, session="b"))
                return reused, panned
            finally:
                await gateway.close()

        reused, panned = asyncio.run(main())
        (full, pan_full), _ = serve(
            make_gateway(estimator, coalesce=False), request(), request(pan, cols=3)
        )
        assert reused.coalesced
        assert np.array_equal(reused.result.counts, full.result.counts)
        assert np.array_equal(panned.result.counts, pan_full.result.counts)

    def test_partial_raster_arrays_are_read_only(self, estimator):
        (partial,), _ = serve(make_gateway(estimator), request(deadline=0.0))
        assert partial.result.valid is not None
        with pytest.raises(ValueError):
            partial.result.valid[0, 0] = True
        with pytest.raises(ValueError):
            partial.result.counts[0, 0] = 1.0


class TestQuota:
    def test_quota_exhaustion_is_a_structured_per_tenant_rejection(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(
                gated, tenants=(("acme", 1), ("beta", 0)), workers=2
            )
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                rejected = await gateway.submit(request(OTHER_REGION))
                # The neighbour tenant is untouched by acme's quota.
                neighbour = asyncio.ensure_future(
                    gateway.submit(request(OTHER_REGION, tenant="beta"))
                )
                await asyncio.sleep(0.01)
                gated.gate.set()
                return rejected, await leader, await neighbour
            finally:
                await gateway.close()

        rejected, leader, neighbour = asyncio.run(main())
        assert rejected.status == "error"
        assert rejected.error["code"] == "tenant_quota_exceeded"
        assert rejected.error["tenant"] == "acme"
        assert rejected.error["retry_after_s"] is not None
        assert rejected.shed
        assert leader.status == "ok"
        assert neighbour.status == "ok"

    def test_quota_slot_released_on_cancellation(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, tenants=(("acme", 1),))
            tenant = gateway.catalog.tenant("acme")
            try:
                waiter = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(lambda: tenant.active == 1)
                waiter.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiter
                # The slot came back the moment the waiter died, while
                # the shared computation is still running.
                assert tenant.active == 0
                gated.gate.set()
                follow_up = await gateway.submit(request())
                return follow_up
            finally:
                await gateway.close()

        response = asyncio.run(main())
        assert response.status == "ok"

    def test_quota_slot_released_after_error(self, estimator):
        # The only tier always fails, so the request errors after it took
        # its quota slot (a malformed request never takes one).
        failing = FaultyBatchEstimator(
            estimator, FaultSchedule(script=("error",), cycle=True)
        )

        async def main():
            gateway = make_gateway(failing, tenants=(("acme", 1),))
            tenant = gateway.catalog.tenant("acme")
            try:
                response = await gateway.submit(request())
                return response, tenant.active
            finally:
                await gateway.close()

        response, active = asyncio.run(main())
        assert response.error["code"] == "estimator_failed"
        assert active == 0


class TestSheddingAndDegradation:
    def test_queue_full_sheds_with_retry_hint(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, workers=1, max_pending=1)
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                shed = await gateway.submit(request(OTHER_REGION))
                gated.gate.set()
                await leader
                return shed, gateway.stats.copy()
            finally:
                await gateway.close()

        shed, stats = asyncio.run(main())
        assert shed.status == "error"
        assert shed.error["code"] == "overloaded"
        assert shed.error["retry_after_s"] > 0
        assert stats["shed_queue_full"] == 1

    def test_budget_below_predicted_wait_is_shed_not_queued(self, estimator):
        gated = GatedEstimator(estimator)
        window = ServiceTimeWindow()
        window.observe(1.0)  # the regime: one second per request
        admission = AdmissionController(workers=1, max_pending=64, window=window)

        async def main():
            gateway = make_gateway(gated, workers=1, admission=admission)
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                # Predicted wait is ~1s; a 0.2s budget cannot cover it.
                shed = await gateway.submit(request(OTHER_REGION, deadline=0.2))
                gated.gate.set()
                await leader
                return shed, gateway.stats.copy()
            finally:
                await gateway.close()

        shed, stats = asyncio.run(main())
        assert shed.error["code"] == "overloaded"
        assert stats["shed_deadline"] == 1
        assert stats["shed_dispatch"] == 0  # shed at triage, not after queueing

    def test_dispatch_backstop_sheds_instead_of_serving_expired(self, estimator):
        gated = GatedEstimator(estimator)
        window = ThreadRecordingWindow()
        admission = AdmissionController(workers=1, max_pending=8, window=window)

        async def main():
            loop_thread = threading.get_ident()
            gateway = make_gateway(gated, workers=1, admission=admission)
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                # Admitted optimistically (cold window predicts ~20ms),
                # but the single worker stays blocked well past the
                # 0.15s budget.
                late = asyncio.ensure_future(
                    gateway.submit(request(OTHER_REGION, deadline=0.15))
                )
                await asyncio.sleep(0.3)
                gated.gate.set()
                return await late, await leader, gateway.stats.copy(), loop_thread
            finally:
                await gateway.close()

        late, leader, stats, loop_thread = asyncio.run(main())
        assert leader.status == "ok"
        assert late.status == "error"
        assert late.error["code"] == "overloaded"
        assert late.error["retry_after_s"] is not None
        assert stats["shed_dispatch"] == 1
        # The window keeps no lock: the backstop's retry hint must have
        # been read on the loop, never on the executor thread.
        assert window.callers
        assert set(window.callers) == {loop_thread}

    def test_degradation_kicks_in_before_shedding(self, estimator):
        window = ServiceTimeWindow()
        admission = AdmissionController(
            workers=2,
            max_pending=4,
            window=window,
            degrade_start=0.25,
            degrade_floor=0.25,
        )
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, workers=2, admission=admission)
            try:
                # Occupy the gateway: two leaders block both workers, a
                # third computation queues (pending=3 of 4).
                leaders = [
                    asyncio.ensure_future(
                        gateway.submit(request(TileQuery(0, 16, 0, 4 * (i + 1))))
                    )
                    for i in range(3)
                ]
                await wait_for(gated.entered.is_set)
                await wait_for(lambda: gateway.pending == 3)
                degraded = asyncio.ensure_future(
                    gateway.submit(request(OTHER_REGION, deadline=60.0))
                )
                await wait_for(lambda: gateway.pending == 4)
                gated.gate.set()
                responses = await asyncio.gather(*leaders, degraded)
                return responses, gateway.stats.copy()
            finally:
                await gateway.close()

        responses, stats = asyncio.run(main())
        # Everything was served (possibly partial), nothing shed: the
        # pressure response was degradation, not rejection.
        assert stats["shed_queue_full"] == 0
        assert stats["shed_deadline"] == 0
        assert stats["reduced_budget_admissions"] >= 1
        assert stats["degraded_responses"] == sum(r.status == "degraded" for r in responses)
        final = responses[-1]
        assert final.ok
        assert final.degrade_factor < 1.0

    def test_zero_deadline_served_from_cache_when_idle(self, estimator):
        cache = TileResultCache(1 << 20)

        async def main():
            gateway = make_gateway(estimator, cache=cache)
            try:
                warm = await gateway.submit(request(deadline=None))
                free = await gateway.submit(request(deadline=0.0))
                return warm, free, gateway.stats.copy()
            finally:
                await gateway.close()

        warm, free, stats = asyncio.run(main())
        assert warm.status == "ok"
        # Everything the zero-budget request needed was already free.
        assert free.ok
        assert free.result.valid_fraction == 1.0
        assert np.array_equal(free.result.counts, warm.result.counts)
        assert stats["shed_deadline"] == 0

    def test_zero_deadline_cold_returns_empty_partial_not_error(self, estimator):
        async def main():
            gateway = make_gateway(estimator)
            try:
                return await gateway.submit(request(deadline=0.0))
            finally:
                await gateway.close()

        response = asyncio.run(main())
        assert response.status == "degraded"
        assert response.result is not None
        assert response.result.valid_fraction == 0.0
        assert np.isnan(response.result.counts).all()

    def test_partial_raster_carries_null_exactly_at_invalid_tiles(self, estimator):
        cache = TileResultCache(1 << 20)

        async def main():
            gateway = make_gateway(estimator, cache=cache)
            try:
                # Warm the cache with the lower-left quarter (the same
                # 4x4-cell tiles the full raster uses), then ask for the
                # whole raster with no budget: only cached tiles answer.
                await gateway.submit(request(OTHER_REGION, rows=2, cols=2, session="warm"))
                partial = await gateway.submit(request(deadline=0.0, session="cold"))
                return partial, gateway.stats.copy()
            finally:
                await gateway.close()

        partial, stats = asyncio.run(main())
        assert partial.status == "degraded"
        valid = partial.result.valid
        assert valid is not None and valid.any() and not valid.all()
        wire = json.loads(json.dumps(partial.to_wire()))
        nulls = np.array([[v is None for v in row] for row in wire["counts"]])
        assert np.array_equal(nulls, ~valid)
        on_wire = np.array([[np.nan if v is None else v for v in row] for row in wire["counts"]])
        assert np.array_equal(on_wire, partial.result.counts, equal_nan=True)
        assert wire["valid_fraction"] == round(float(valid.mean()), 4)
        assert stats["degraded_responses"] == 1

    def test_zero_deadline_while_busy_is_shed(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, workers=1)
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                shed = await gateway.submit(request(OTHER_REGION, deadline=0.0))
                gated.gate.set()
                await leader
                return shed, gateway.stats.copy()
            finally:
                await gateway.close()

        shed, stats = asyncio.run(main())
        assert shed.error["code"] == "overloaded"
        assert stats["shed_deadline"] == 1


class TestShutdown:
    def test_close_is_idempotent_and_rejects_later_requests(self, estimator):
        async def main():
            gateway = make_gateway(estimator)
            await gateway.submit(request())
            await gateway.close()
            await gateway.close()
            return await gateway.submit(request())

        response = asyncio.run(main())
        assert response.status == "error"
        assert response.error["code"] == "overloaded"

    def test_close_cancels_inflight_waiters_with_structured_shutdown(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(gated, workers=1)
            leader = asyncio.ensure_future(gateway.submit(request()))
            await wait_for(gated.entered.is_set)
            closer = asyncio.ensure_future(gateway.close())
            # The executor thread is stuck on the gate; the worker
            # cannot be interrupted, so release it and let close drain.
            await asyncio.sleep(0.02)
            gated.gate.set()
            await closer
            return await leader

        response = asyncio.run(main())
        # The in-flight task was cancelled by close (or finished if the
        # race went the other way); either way the waiter got a
        # structured response, not a bare CancelledError.
        assert response.status in ("ok", "error")
        if response.status == "error":
            assert response.error["code"] == "overloaded"


class TestPyramidDegradation:
    """Degrade-before-shed's second axis: coarse pyramid levels."""

    @pytest.fixture
    def pyramid_parts(self):
        from repro.euler.pyramid import HistogramPyramid

        data = random_dataset(np.random.default_rng(7), GRID, 300)
        estimator = SEulerApprox(EulerHistogram.from_dataset(data, GRID))
        # 16x16 -> 8x8 -> 4x4: coarsest level is 2.
        pyramid = HistogramPyramid(data, GRID, min_cells=4)
        return estimator, pyramid

    def make_pyramid_gateway(self, estimator, pyramid, **kwargs):
        catalog = TenantCatalog()
        catalog.register_dataset("main", estimator, GRID, pyramid=pyramid)
        catalog.add_tenant("acme", quota=0)
        return Gateway(catalog, **kwargs)

    def test_zero_budget_served_coarse_is_degraded_with_level(self, pyramid_parts):
        estimator, pyramid = pyramid_parts

        async def main():
            gateway = self.make_pyramid_gateway(estimator, pyramid)
            try:
                return await gateway.submit(request(rows=8, cols=8, deadline=0.0))
            finally:
                await gateway.close()

        response = asyncio.run(main())
        # Every tile has a value (the coarse prefill), but not at the
        # requested resolution: a complete raster, honestly degraded.
        assert response.status == "degraded"
        assert response.result.is_complete
        assert not response.result.full_resolution
        assert (response.result.levels == 2).all()
        doc = response.to_wire()
        assert doc["coarsest_level"] == 2
        assert doc["valid_fraction"] == 1.0

    def test_full_resolution_response_is_ok_without_level_annotation(self, pyramid_parts):
        estimator, pyramid = pyramid_parts

        async def main():
            gateway = self.make_pyramid_gateway(estimator, pyramid)
            try:
                return await gateway.submit(request(rows=8, cols=8))
            finally:
                await gateway.close()

        response = asyncio.run(main())
        assert response.status == "ok"
        assert response.result.full_resolution
        assert "coarsest_level" not in response.to_wire()

    def test_coarse_raster_is_recomputed_not_reused(self, pyramid_parts):
        estimator, pyramid = pyramid_parts
        (coarse, fine, again), stats = serve(
            self.make_pyramid_gateway(estimator, pyramid),
            request(rows=8, cols=8, deadline=0.0),
            request(rows=8, cols=8),
            request(rows=8, cols=8),
        )
        assert coarse.status == "degraded" and coarse.result.is_complete
        with pytest.raises(ValueError):
            coarse.result.levels[0, 0] = -1
        assert fine.status == "ok" and not fine.coalesced
        assert again.result is fine.result
        assert stats["completed"] == 2
        assert stats["reused_results"] == 1

    def _slow_window_admission(self):
        window = ServiceTimeWindow()
        for _ in range(3):
            window.observe(1.0)  # predicted wait: 1s per queued request
        return AdmissionController(workers=1, max_pending=8, window=window)

    def test_coarse_capable_service_admits_where_shed_would_happen(self, pyramid_parts):
        estimator, pyramid = pyramid_parts
        gated = GatedEstimator(estimator)

        async def main():
            gateway = self.make_pyramid_gateway(
                gated, pyramid, workers=1, admission=self._slow_window_admission()
            )
            try:
                leader = asyncio.ensure_future(gateway.submit(request(rows=8, cols=8)))
                await wait_for(gated.entered.is_set)
                # pending=1 -> predicted wait 1s; a 1.5s budget fails the
                # fine-path triage (wait + p50 = 2s) but covers the wait,
                # so the pyramid-backed service is admitted coarse.
                follower = asyncio.ensure_future(
                    gateway.submit(
                        request(OTHER_REGION, rows=4, cols=4, deadline=1.5)
                    )
                )
                await asyncio.sleep(0.01)
                gated.gate.set()
                return await leader, await follower, gateway.stats.copy()
            finally:
                await gateway.close()

        leader, follower, stats = asyncio.run(main())
        assert leader.status == "ok"
        assert follower.ok
        assert stats["coarse_admissions"] == 1
        assert stats["shed_deadline"] == 0

    def test_same_pressure_sheds_without_a_pyramid(self, estimator):
        gated = GatedEstimator(estimator)

        async def main():
            gateway = make_gateway(
                gated, workers=1, admission=self._slow_window_admission()
            )
            try:
                leader = asyncio.ensure_future(gateway.submit(request()))
                await wait_for(gated.entered.is_set)
                follower = asyncio.ensure_future(
                    gateway.submit(
                        request(OTHER_REGION, rows=4, cols=4, deadline=1.5)
                    )
                )
                await asyncio.sleep(0.01)
                gated.gate.set()
                return await leader, await follower, gateway.stats.copy()
            finally:
                await gateway.close()

        leader, follower, stats = asyncio.run(main())
        assert follower.status == "error"
        assert follower.error["code"] == "overloaded"
        assert stats["shed_deadline"] == 1
        assert stats["coarse_admissions"] == 0
