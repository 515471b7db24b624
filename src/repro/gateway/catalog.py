"""The gateway's tenant catalog: who may browse what, and with how much.

A multi-tenant gateway serves many organisations from the same summary
artifacts.  The catalog separates what is *shared* from what must be
*isolated*:

- **Shared: the summaries and estimator chains.**  A dataset is
  registered once as a blueprint (estimator chain + grid + optional
  tile cache).  Estimators are immutable readers over the summary
  arrays and the :class:`~repro.cache.TileResultCache` is keyed by
  summary identity and generation, so sharing them across tenants is
  safe and collapses memory to one copy per dataset.
- **Isolated: serving state.**  Every ``(tenant, dataset)`` pair gets
  its *own* :class:`~repro.browse.resilience.ResilientBrowsingService`
  -- its own learned chunk cost and its own session-keyed
  :class:`~repro.browse.delta.DeltaTracker` with a per-tenant session
  bound, so one tenant's pan storm evicts only its own reuse state,
  never a neighbour's.
- **Quotas.**  Each tenant carries a concurrency quota: the number of
  requests it may have in flight through the gateway at once.  The
  quota is enforced by the gateway *before* admission triage, so a
  single tenant flooding the front door exhausts its own allowance and
  bounces with :class:`~repro.errors.TenantQuotaExceededError` while
  the shared queue keeps serving everyone else.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.browse.delta import DeltaTracker
from repro.browse.resilience import ResilientBrowsingService
from repro.cache import TileResultCache
from repro.errors import InvalidRegionError
from repro.euler.base import Level2Estimator
from repro.grid.grid import Grid
from repro.obs.instruments import BrowseInstrumentation

__all__ = ["DatasetBlueprint", "TenantCatalog", "TenantState"]


@dataclass(frozen=True)
class DatasetBlueprint:
    """One registered dataset: the shared ingredients of its services.

    ``estimators`` is the fallback chain (primary first) every tenant's
    service is built from; ``cache`` is the shared tile-result cache
    (``None`` disables caching); ``service_kwargs`` is forwarded to each
    :class:`~repro.browse.resilience.ResilientBrowsingService`
    (``chunk_rows``, ``pyramid``, ...).
    """

    name: str
    estimators: tuple[Level2Estimator, ...]
    grid: Grid
    cache: TileResultCache | None = None
    service_kwargs: dict = field(default_factory=dict)


class TenantState:
    """One tenant's quota accounting (thread-safe).

    ``quota`` is the maximum number of concurrently in-flight requests
    (0 = unlimited).  The gateway brackets every request between
    :meth:`try_acquire` and :meth:`release`; acquisition never blocks --
    an exhausted quota is an immediate structured rejection, not a
    second queue.
    """

    def __init__(self, name: str, *, quota: int = 0) -> None:
        if quota < 0:
            raise ValueError("quota must be non-negative (0 = unlimited)")
        self.name = name
        self.quota = quota
        self._lock = threading.Lock()
        self._active = 0

    @property
    def active(self) -> int:
        """Requests currently holding a quota slot."""
        with self._lock:
            return self._active

    def try_acquire(self) -> bool:
        """Take one quota slot if available; never blocks."""
        with self._lock:
            if self.quota and self._active >= self.quota:
                return False
            self._active += 1
            return True

    def release(self) -> None:
        """Return one quota slot (must pair with a successful acquire)."""
        with self._lock:
            if self._active <= 0:
                raise RuntimeError(
                    f"tenant {self.name!r} released a quota slot it never held"
                )
            self._active -= 1


class TenantCatalog:
    """Maps ``(tenant, dataset)`` to an isolated serving handle.

    Datasets are registered first (:meth:`register_dataset`), tenants
    after (:meth:`add_tenant`), naming the datasets they may browse.
    Services are built eagerly at tenant registration -- construction is
    cheap (the estimators are shared; only the chunk cost and the delta
    tracker are per-tenant) and eager failure beats a 500 at request time.
    """

    def __init__(
        self,
        *,
        instruments: BrowseInstrumentation | None = None,
        delta_sessions_per_tenant: int = 64,
    ) -> None:
        if delta_sessions_per_tenant < 1:
            raise ValueError("delta_sessions_per_tenant must be at least 1")
        self._instruments = instruments
        self._delta_sessions = delta_sessions_per_tenant
        self._blueprints: dict[str, DatasetBlueprint] = {}
        self._tenants: dict[str, TenantState] = {}
        self._services: dict[tuple[str, str], ResilientBrowsingService] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register_dataset(
        self,
        name: str,
        estimators: Level2Estimator | Sequence[Level2Estimator],
        grid: Grid,
        *,
        cache: TileResultCache | None = None,
        **service_kwargs,
    ) -> DatasetBlueprint:
        """Register one dataset's shared serving ingredients."""
        if isinstance(estimators, Level2Estimator):
            estimators = (estimators,)
        blueprint = DatasetBlueprint(
            name=name,
            estimators=tuple(estimators),
            grid=grid,
            cache=cache,
            service_kwargs=dict(service_kwargs),
        )
        with self._lock:
            if name in self._blueprints:
                raise ValueError(f"dataset {name!r} is already registered")
            self._blueprints[name] = blueprint
        return blueprint

    def add_tenant(
        self,
        name: str,
        *,
        quota: int = 0,
        datasets: Sequence[str] | None = None,
    ) -> TenantState:
        """Register a tenant and build its per-dataset services.

        ``datasets`` defaults to every registered dataset.  ``quota`` is
        the tenant's concurrent-request allowance (0 = unlimited).
        """
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} is already registered")
            wanted = tuple(datasets) if datasets is not None else tuple(self._blueprints)
            for dataset in wanted:
                if dataset not in self._blueprints:
                    raise KeyError(f"dataset {dataset!r} is not registered")
            state = TenantState(name, quota=quota)
            self._tenants[name] = state
            for dataset in wanted:
                bp = self._blueprints[dataset]
                self._services[(name, dataset)] = ResilientBrowsingService(
                    list(bp.estimators),
                    bp.grid,
                    cache=bp.cache,
                    delta=DeltaTracker(max_sessions=self._delta_sessions),
                    instruments=self._instruments,
                    **bp.service_kwargs,
                )
        return state

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    @property
    def tenants(self) -> tuple[str, ...]:
        """Registered tenant names."""
        with self._lock:
            return tuple(self._tenants)

    @property
    def datasets(self) -> tuple[str, ...]:
        """Registered dataset names."""
        with self._lock:
            return tuple(self._blueprints)

    def tenant(self, name: str) -> TenantState:
        """The tenant's quota state; unknown tenants raise
        :class:`~repro.errors.InvalidRegionError` (a malformed request,
        in taxonomy terms -- the gateway maps it to a structured
        response)."""
        with self._lock:
            state = self._tenants.get(name)
        if state is None:
            raise InvalidRegionError(f"unknown tenant {name!r}")
        return state

    def service(self, tenant: str, dataset: str) -> ResilientBrowsingService:
        """The isolated serving handle for ``(tenant, dataset)``."""
        with self._lock:
            known_tenant = tenant in self._tenants
            service = self._services.get((tenant, dataset))
        if not known_tenant:
            raise InvalidRegionError(f"unknown tenant {tenant!r}")
        if service is None:
            raise InvalidRegionError(
                f"tenant {tenant!r} has no dataset {dataset!r}"
            )
        return service
