"""Tenant catalog: registration, isolation, quotas, lifecycle."""

import numpy as np
import pytest

from repro.browse.resilience import ResilientBrowsingService
from repro.errors import InvalidRegionError
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.gateway.catalog import TenantCatalog, TenantState
from repro.geometry.rect import Rect
from repro.grid.grid import Grid

from tests.conftest import random_dataset


@pytest.fixture(scope="module")
def estimator():
    grid = Grid(Rect(0.0, 16.0, 0.0, 16.0), 16, 16)
    data = random_dataset(np.random.default_rng(11), grid, 500)
    return SEulerApprox(EulerHistogram.from_dataset(data, grid)), grid


def make_catalog(estimator, grid, **kwargs) -> TenantCatalog:
    catalog = TenantCatalog(**kwargs)
    catalog.register_dataset("main", estimator, grid)
    return catalog


class TestRegistration:
    def test_duplicate_dataset_rejected(self, estimator):
        est, grid = estimator
        catalog = make_catalog(est, grid)
        with pytest.raises(ValueError, match="already registered"):
            catalog.register_dataset("main", est, grid)

    def test_duplicate_tenant_rejected(self, estimator):
        est, grid = estimator
        catalog = make_catalog(est, grid)
        catalog.add_tenant("acme")
        with pytest.raises(ValueError, match="already registered"):
            catalog.add_tenant("acme")

    def test_tenant_naming_unknown_dataset_rejected(self, estimator):
        est, grid = estimator
        catalog = make_catalog(est, grid)
        with pytest.raises(KeyError):
            catalog.add_tenant("acme", datasets=["nope"])

    def test_tenant_defaults_to_every_dataset(self, estimator):
        est, grid = estimator
        catalog = make_catalog(est, grid)
        catalog.register_dataset("other", est, grid)
        catalog.add_tenant("acme")
        assert isinstance(catalog.service("acme", "main"), ResilientBrowsingService)
        assert isinstance(catalog.service("acme", "other"), ResilientBrowsingService)
        assert catalog.tenants == ("acme",)
        assert set(catalog.datasets) == {"main", "other"}


class TestLookup:
    def test_unknown_tenant_is_a_malformed_request(self, estimator):
        est, grid = estimator
        catalog = make_catalog(est, grid)
        with pytest.raises(InvalidRegionError, match="unknown tenant"):
            catalog.service("ghost", "main")
        with pytest.raises(InvalidRegionError, match="unknown tenant"):
            catalog.tenant("ghost")

    def test_unauthorized_dataset_is_a_malformed_request(self, estimator):
        est, grid = estimator
        catalog = make_catalog(est, grid)
        catalog.register_dataset("private", est, grid)
        catalog.add_tenant("acme", datasets=["main"])
        with pytest.raises(InvalidRegionError, match="has no dataset"):
            catalog.service("acme", "private")


class TestIsolation:
    def test_each_tenant_gets_its_own_service_and_delta_tracker(self, estimator):
        est, grid = estimator
        catalog = make_catalog(est, grid)
        catalog.add_tenant("acme")
        catalog.add_tenant("beta")
        a = catalog.service("acme", "main")
        b = catalog.service("beta", "main")
        assert a is not b
        assert a.delta is not None
        assert a.delta is not b.delta
        # The breakers are per-tenant too: one tenant tripping a tier
        # open must not skip it for the neighbour.
        assert a.chain is not b.chain

    def test_shared_cache_is_the_same_object_across_tenants(self, estimator):
        from repro.cache import TileResultCache

        est, grid = estimator
        cache = TileResultCache(1 << 20)
        catalog = TenantCatalog()
        catalog.register_dataset("main", est, grid, cache=cache)
        catalog.add_tenant("acme")
        catalog.add_tenant("beta")
        assert catalog.service("acme", "main").cache is cache
        assert catalog.service("beta", "main").cache is cache


class TestQuota:
    def test_zero_quota_means_unlimited(self):
        state = TenantState("acme", quota=0)
        for _ in range(100):
            assert state.try_acquire()
        assert state.active == 100

    def test_quota_bounds_concurrency(self):
        state = TenantState("acme", quota=2)
        assert state.try_acquire()
        assert state.try_acquire()
        assert not state.try_acquire()
        state.release()
        assert state.try_acquire()

    def test_over_release_raises(self):
        state = TenantState("acme", quota=1)
        with pytest.raises(RuntimeError, match="never held"):
            state.release()

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            TenantState("acme", quota=-1)
