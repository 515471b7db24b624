"""Generation-keyed result caching for the browsing stack.

Real browse sessions are dominated by repeated and overlapping tiles --
the pan/zoom locality every client-server rendering system exploits with
a tile cache.  :class:`TileResultCache` is that cache for tile COUNT
results: a thread-safe, byte-bounded LRU keyed by
``(summary, generation, estimator, relation field, tile geometry)``,
probed and filled with vectorised numpy operations so a whole raster's
lookups cost a constant number of gathers.

Invalidation is free by construction: every maintained summary carries a
``generation`` counter that each ``insert``/``delete`` bumps, and the
generation is part of the cache key -- stale entries become unreachable
the moment the summary changes, no scans, no TTLs (see
:mod:`repro.cache.keys`).
"""

from repro.cache.keys import CacheKey, backing_summary, summary_generation, summary_token
from repro.cache.tile_cache import TileResultCache, pack_tile_batch

__all__ = [
    "CacheKey",
    "TileResultCache",
    "backing_summary",
    "pack_tile_batch",
    "summary_generation",
    "summary_token",
]
