"""Thread/process/auto routing for the browse pipeline's primary tier.

:class:`ParallelExecutor` owns a
:class:`~repro.parallel.pool.ProcessShardPool` -- when the mode and the
estimator allow it -- and decides, per chunk, whether the chunk's
estimate runs on the worker processes or inline on the calling wave
thread (the browse pipeline's :class:`~repro.browse.sharding.ShardPool`
already spreads chunks across threads):

- ``thread`` -- always inline (band-blocked locality plus GIL-released
  numpy overlap across the wave's threads);
- ``process`` -- always the process pool; an estimator that cannot be
  exported to shared memory is a configuration error here;
- ``auto`` -- the process pool for big chunks (``n >=
  process_threshold`` tiles, the point where kernel time dwarfs the
  microseconds of dispatch), inline otherwise; estimators that cannot
  export (maintained histograms, custom estimators) silently stay
  inline.

The auto policy never *blocks* on worker startup: a chunk arriving
while workers are still attaching runs inline and the pool picks up the
next one.  Staleness is checked on every process routing -- if the
backing summary's generation has moved past the pool's exported
snapshot, auto falls back to inline (forced ``process`` raises), and
the workers would refuse the task anyway (defence in depth; see
DESIGN.md section 14).

:class:`ProcessBackedEstimator` adapts the executor back to the batch
estimator protocol so the fallback chain can route its primary tier's
chunks through the pool -- with a ``timeout`` so a slow worker wave
degrades instead of blowing the request deadline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.keys import backing_summary, summary_generation
from repro.euler.base import Level2BatchEstimator, Level2Estimator, as_batch_estimator
from repro.euler.estimates import Level2Counts, Level2CountsBatch
from repro.grid.tiles_math import TileQuery, TileQueryBatch
from repro.obs.instruments import BrowseInstrumentation
from repro.parallel.pool import (
    DEFAULT_CAPACITY,
    PoolUnavailableError,
    ProcessShardPool,
)
from repro.parallel.shm import StaleSummaryError
from repro.parallel.spec import UnsupportedEstimatorError

__all__ = ["ParallelConfig", "ParallelExecutor", "ProcessBackedEstimator"]

#: Valid ``ParallelConfig.mode`` values.
MODES = ("thread", "process", "auto")


@dataclass(frozen=True)
class ParallelConfig:
    """How a browsing service executes its primary tier's chunks.

    ``mode`` is usually all a caller sets (the CLI's ``--parallel``
    maps straight onto it); the rest are tuning knobs with defaults
    measured on the world-grid benchmark
    (``benchmarks/bench_browse_parallel.py``).

    - ``process_threshold``: minimum chunk tiles before ``auto`` routes
      to processes; below it inline execution wins on dispatch
      overhead.
    - ``startup_timeout``: how long a *forced* ``process`` mode waits
      for the first worker to attach; ``auto`` never waits.
    - ``max_workers``, ``start_method``, ``capacity``,
      ``dispatch_timeout``, ``min_shard``: forwarded to the pools.
    """

    mode: str = "thread"
    max_workers: int | None = None
    start_method: str = "spawn"
    process_threshold: int = 8192
    capacity: int = DEFAULT_CAPACITY
    dispatch_timeout: float = 30.0
    min_shard: int = 2048
    startup_timeout: float = 15.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"parallel mode must be one of {MODES}, got {self.mode!r}")
        if self.process_threshold < 0:
            raise ValueError("process_threshold must be non-negative")

    @classmethod
    def coerce(cls, value: "ParallelConfig | str | None") -> "ParallelConfig":
        """``None`` -> thread default, a mode string -> that mode,
        a config -> itself."""
        if value is None:
            return cls()
        if isinstance(value, ParallelConfig):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            f"parallel must be a ParallelConfig, a mode string or None, "
            f"got {type(value).__name__}"
        )


class ParallelExecutor:
    """Routes chunk batches to the process pool or inline.

    Owns the process pool; :meth:`estimate_counts` is the entry point
    :class:`ProcessBackedEstimator` forwards to, bit-identical to inline
    ``estimate_batch`` regardless of route.
    """

    def __init__(
        self,
        estimator: Level2Estimator,
        config: "ParallelConfig | str | None" = None,
        *,
        num_shards: int,
        instruments: BrowseInstrumentation | None = None,
        service: str = "plain",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.config = ParallelConfig.coerce(config)
        self.num_shards = num_shards
        self._batch: Level2BatchEstimator = as_batch_estimator(estimator)
        self._summary = backing_summary(estimator)
        self._obs = instruments
        self._service = service
        self._process_pool: ProcessShardPool | None = None
        self._process_awaited = False
        if self.config.mode in ("process", "auto") and num_shards > 1:
            try:
                self._process_pool = ProcessShardPool(
                    estimator,
                    num_shards=num_shards,
                    max_workers=self.config.max_workers,
                    start_method=self.config.start_method,
                    capacity=self.config.capacity,
                    min_shard=self.config.min_shard,
                    dispatch_timeout=self.config.dispatch_timeout,
                    instruments=instruments,
                    service=service,
                )
            except UnsupportedEstimatorError as exc:
                if self.config.mode == "process":
                    raise ValueError(
                        f"parallel mode 'process' cannot serve estimator "
                        f"{estimator.name!r}: {exc}"
                    ) from exc
                # auto: this estimator stays inline.
        elif self.config.mode == "process" and num_shards <= 1:
            raise ValueError("parallel mode 'process' requires num_shards > 1")
        if instruments is not None:
            instruments.shard_pool_workers.labels(service=service).set(
                self._process_pool.workers if self._process_pool is not None else 0
            )

    @property
    def process_pool(self) -> ProcessShardPool | None:
        """The process pool, when one exists (tests and diagnostics)."""
        return self._process_pool

    @property
    def mode(self) -> str:
        """The configured routing mode."""
        return self.config.mode

    def close(self) -> None:
        """Release the process pool (idempotent)."""
        if self._process_pool is not None:
            self._process_pool.close()
            if self._obs is not None:
                self._obs.shard_pool_workers.labels(service=self._service).set(0)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _route_to_process(self, n: int) -> bool:
        """Whether this ``n``-tile batch goes to the process pool."""
        pool = self._process_pool
        if pool is None:
            return False
        stale = summary_generation(self._summary) != pool.generation
        if self.config.mode == "process":
            if stale:
                raise StaleSummaryError(
                    f"summary moved to generation "
                    f"{summary_generation(self._summary)} but the pool "
                    f"exported generation {pool.generation}"
                )
            if not self._process_awaited:
                self._process_awaited = True
                pool.ensure_ready(self.config.startup_timeout)
            return True
        # auto: never block on startup, never serve stale.
        if stale or n < self.config.process_threshold:
            return False
        pool.ensure_ready(0.0)
        return pool.ready_count() > 0

    def estimate_counts(
        self, batch: TileQueryBatch, *, timeout: float | None = None
    ) -> Level2CountsBatch:
        """All four count fields for ``batch`` -- one chunk of the
        primary tier.  Process-routed when eligible, else inline (the
        browse pipeline already spreads chunks across wave threads)."""
        if self._route_to_process(len(batch)):
            try:
                return self._process_pool.estimate_batch(batch, timeout=timeout)
            except PoolUnavailableError:
                pass
        return self._batch.estimate_batch(batch)


class ProcessBackedEstimator:
    """The executor wearing the batch-estimator protocol.

    Drops into the browse pipeline's fallback chain as the primary
    tier: ``estimate_batch`` routes through the executor (and so the
    process pool when eligible) and ``estimate_batch_within`` adds the
    deadline the chain's wave loop computes -- a slow worker wave
    degrades inside the pool, never blocks the request past its budget.

    ``name`` and ``wrapped`` forward to the inner estimator so cache
    keys and :func:`~repro.cache.keys.backing_summary` resolution are
    identical to serving the inner estimator directly -- parallelism
    must never change what a cache entry means.
    """

    def __init__(self, inner: Level2Estimator, executor: ParallelExecutor) -> None:
        self._inner = inner
        self._inner_batch = as_batch_estimator(inner)
        self._executor = executor

    @property
    def name(self) -> str:
        """The inner estimator's label (cache-key identity)."""
        return self._inner.name

    @property
    def wrapped(self) -> Level2Estimator:
        """The inner estimator (``backing_summary`` unwraps this)."""
        return self._inner

    def estimate(self, query: TileQuery) -> Level2Counts:
        """Scalar queries never benefit from the pool; go inline."""
        return self._inner.estimate(query)

    def estimate_batch(self, queries: TileQueryBatch) -> Level2CountsBatch:
        return self._executor.estimate_counts(queries)

    def estimate_batch_within(
        self, queries: TileQueryBatch, timeout: float | None
    ) -> Level2CountsBatch:
        """``estimate_batch`` with a time budget forwarded to the pool
        (overruns terminate stragglers and recompute inline -- degrade,
        never hang)."""
        return self._executor.estimate_counts(queries, timeout=timeout)
