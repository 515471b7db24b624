"""Browsing-session workloads.

The paper's tile sets (``Q_n``) stress single interactions; a deployed
GeoBrowsing service sees *sessions*: a user opens the world view, picks a
dense tile, zooms, re-tiles, switches relation, zooms again (the Figure 1
interaction loop).  This module generates reproducible session traces for
the service-level benchmark and capacity planning.

A session is a sequence of :class:`BrowseInteraction` steps: each step
re-tiles its region with a random divisor partition, requests a relation
drawn from a UI-like mix, and the next step zooms into one tile of the
previous raster, chosen uniformly.

Sessions can also *pan*: with probability ``pan_prob`` a step shifts the
previous viewport by a whole number of tiles (a fraction of the viewport
per axis) while keeping the tiling and relation unchanged.  Pan offsets
are tile-aligned by construction, which makes panned rasters eligible
for viewport-delta reuse (:mod:`repro.browse.delta`); the benchmark
harness's ``pan`` workload replays pan-dominated traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

__all__ = [
    "BrowseInteraction",
    "BrowseSession",
    "TenantSession",
    "generate_sessions",
    "generate_tenant_sessions",
]

#: Relations a session step may request, with rough UI frequencies.
_RELATION_MIX = (("overlap", 0.45), ("intersect", 0.25), ("contains", 0.2), ("contained", 0.1))


@dataclass(frozen=True)
class BrowseInteraction:
    """One click: a region, its tiling, and the requested relation."""

    region: TileQuery
    rows: int
    cols: int
    relation: str

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def tile_queries(self) -> list[TileQuery]:
        """The individual tile queries this interaction expands into."""
        from repro.workloads.tiles import browsing_tiles

        return [t for row in browsing_tiles(self.region, self.rows, self.cols) for t in row]


@dataclass(frozen=True)
class BrowseSession:
    """A user session: an ordered list of interactions."""

    interactions: tuple[BrowseInteraction, ...]

    def __iter__(self) -> Iterator[BrowseInteraction]:
        return iter(self.interactions)

    def __len__(self) -> int:
        return len(self.interactions)

    @property
    def total_tiles(self) -> int:
        """Total tile queries the session issues -- its cost driver."""
        return sum(step.num_tiles for step in self.interactions)


def _pick_partition(
    rng: np.random.Generator,
    width: int,
    height: int,
    max_partition: int = 32,
    min_partition: int = 2,
) -> tuple[int, int]:
    """A (rows, cols) partition dividing the region's cell span."""

    def divisors(n: int) -> list[int]:
        return [
            d for d in range(min_partition, min(n, max_partition) + 1) if n % d == 0
        ]

    col_options = divisors(width) or [1]
    row_options = divisors(height) or [1]
    return int(rng.choice(row_options)), int(rng.choice(col_options))


def _pan_region(
    rng: np.random.Generator,
    region: TileQuery,
    rows: int,
    cols: int,
    grid: Grid,
    pan_fraction: float,
) -> TileQuery | None:
    """Shift ``region`` by a whole number of tiles, staying inside the grid.

    The shift magnitude per axis is ``pan_fraction`` of the viewport,
    rounded to whole tiles (at least one); the direction is random and
    flipped when the grid edge leaves no room.  Returns ``None`` when the
    viewport cannot move along the sampled axis at all (e.g. it fills
    the whole grid).
    """
    tile_w = region.width // cols
    tile_h = region.height // rows

    def shift(lo_room: int, hi_room: int, want: int, unit: int) -> int:
        sign = 1 if rng.random() < 0.5 else -1
        for s in (sign, -sign):
            room = hi_room if s > 0 else lo_room
            mag = min(want, (room // unit) * unit)
            if mag > 0:
                return s * mag
        return 0

    axis = int(rng.integers(0, 3))  # 0: horizontal, 1: vertical, 2: diagonal
    dx = dy = 0
    if axis != 1:
        want_x = max(1, round(pan_fraction * cols)) * tile_w
        dx = shift(region.qx_lo, grid.n1 - region.qx_hi, want_x, tile_w)
    if axis != 0:
        want_y = max(1, round(pan_fraction * rows)) * tile_h
        dy = shift(region.qy_lo, grid.n2 - region.qy_hi, want_y, tile_h)
    if dx == 0 and dy == 0:
        return None
    return TileQuery(
        region.qx_lo + dx, region.qx_hi + dx, region.qy_lo + dy, region.qy_hi + dy
    )


def _zoom_into(
    rng: np.random.Generator, region: TileQuery, rows: int, cols: int
) -> TileQuery:
    """Pick one tile of the previous raster as the next region, expanding
    it if it would be too small to re-tile."""
    r = int(rng.integers(0, rows))
    c = int(rng.integers(0, cols))
    tile_w = region.width // cols
    tile_h = region.height // rows
    qx_lo = region.qx_lo + c * tile_w
    qy_lo = region.qy_lo + r * tile_h
    return TileQuery(qx_lo, qx_lo + tile_w, qy_lo, qy_lo + tile_h)


def generate_sessions(
    grid: Grid,
    *,
    num_sessions: int = 10,
    max_depth: int = 4,
    seed: int = 0,
    pan_prob: float = 0.0,
    pan_fraction: float = 0.25,
    max_partition: int = 32,
    min_partition: int = 2,
    start_region: TileQuery | None = None,
) -> list[BrowseSession]:
    """Generate reproducible zoom/pan sessions over ``grid``.

    Each session starts from ``start_region`` (the full data space when
    omitted) and takes up to ``max_depth`` steps.  A step either zooms
    into one tile of the previous raster and re-tiles it with a divisor
    partition (between ``min_partition`` and ``max_partition`` per axis)
    and a relation drawn from a UI-like mix, or -- with probability
    ``pan_prob`` -- pans the previous viewport by ``pan_fraction`` of
    its extent (rounded to whole tiles) while keeping its tiling and
    relation.  The defaults (``pan_prob=0.0``, full-space start)
    reproduce the original zoom-only traces draw for draw.
    """
    if num_sessions < 1 or max_depth < 1:
        raise ValueError("num_sessions and max_depth must be positive")
    if not 0.0 <= pan_prob <= 1.0:
        raise ValueError("pan_prob must be in [0, 1]")
    if not 0.0 < pan_fraction:
        raise ValueError("pan_fraction must be positive")
    if not 2 <= min_partition <= max_partition:
        raise ValueError("need 2 <= min_partition <= max_partition")
    if start_region is not None:
        start_region.validate_against(grid)
    rng = np.random.default_rng(seed)
    relations = [r for r, _ in _RELATION_MIX]
    weights = np.array([w for _, w in _RELATION_MIX])
    weights = weights / weights.sum()

    sessions = []
    for _ in range(num_sessions):
        region = start_region if start_region is not None else TileQuery(0, grid.n1, 0, grid.n2)
        steps: list[BrowseInteraction] = []
        prev: BrowseInteraction | None = None
        for _ in range(int(rng.integers(2, max_depth + 1))):
            panned = None
            if prev is not None and pan_prob > 0 and rng.random() < pan_prob:
                panned = _pan_region(
                    rng, prev.region, prev.rows, prev.cols, grid, pan_fraction
                )
            if panned is not None:
                # A pan keeps the viewport size, tiling and relation; the
                # zoom target computed at the end of the previous step is
                # discarded.
                region = panned
                rows, cols, relation = prev.rows, prev.cols, prev.relation
            else:
                rows, cols = _pick_partition(
                    rng, region.width, region.height, max_partition, min_partition
                )
                relation = str(rng.choice(relations, p=weights))
            prev = BrowseInteraction(
                region=region, rows=rows, cols=cols, relation=relation
            )
            steps.append(prev)
            if rows == 1 and cols == 1:
                break  # cannot zoom further
            region = _zoom_into(rng, region, rows, cols)
            if region.width < 2 and region.height < 2:
                break
        sessions.append(BrowseSession(interactions=tuple(steps)))
    return sessions


@dataclass(frozen=True)
class TenantSession:
    """One session attributed to a tenant, for multi-tenant replay.

    ``session_id`` keys the gateway's per-tenant viewport-delta state;
    two sessions of the same tenant never share it, matching how real
    browser sessions behave.
    """

    tenant: str
    dataset: str
    session_id: str
    session: BrowseSession


def generate_tenant_sessions(
    grid: Grid,
    *,
    tenants: Sequence[str],
    dataset: str,
    sessions_per_tenant: int = 8,
    seed: int = 0,
    **session_kwargs,
) -> list[TenantSession]:
    """Generate reproducible per-tenant session traces over ``grid``.

    Each tenant gets ``sessions_per_tenant`` sessions from its own
    derived seed (``seed`` + tenant index), so tenants browse different
    traces but the whole workload is reproducible from one seed.  Extra
    keyword arguments (``pan_prob``, ``max_depth``, ...) pass through to
    :func:`generate_sessions`.  The result interleaves tenants
    round-robin, so replaying a prefix already exercises every tenant.
    """
    if not tenants:
        raise ValueError("tenants must be non-empty")
    if sessions_per_tenant < 1:
        raise ValueError("sessions_per_tenant must be positive")
    per_tenant = {
        tenant: generate_sessions(
            grid, num_sessions=sessions_per_tenant, seed=seed + i, **session_kwargs
        )
        for i, tenant in enumerate(tenants)
    }
    out: list[TenantSession] = []
    for s in range(sessions_per_tenant):
        for tenant in tenants:
            out.append(
                TenantSession(
                    tenant=tenant,
                    dataset=dataset,
                    session_id=f"{tenant}-s{s}",
                    session=per_tenant[tenant][s],
                )
            )
    return out
