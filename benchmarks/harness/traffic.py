"""Seeded traffic for the serving workloads.

Every workload is an open loop whose offered load is a constant of the
workload; only *which* requests arrive, and exactly when, depends on the
seed.  Sessions arrive in one of two shapes:

- **Poisson** (``pan``, ``zoom``): the arrival count is fixed at
  ``rate x window`` (a Poisson process conditioned on its count is
  uniform order statistics).
- **Bursts** (``overload``): every ``burst_every_s`` a crowd of
  ``burst_size`` sessions arrives at one instant, at a seeded offset in
  the first quarter of its period.  A burst far exceeds the admission
  queue, and the rest of the period lets the gateway drain it, so every
  burst meets the same empty gateway and the backlog never grows.

Every session issues exactly ``steps`` requests; it waits for each
response and then thinks for :data:`THINK_S` before the next.

Browse steps come from :func:`repro.workloads.sessions.generate_sessions`;
a session shorter than ``steps`` continues from a fresh start viewport
(the user jumps elsewhere).  Every request line is JSON-encoded here,
before any timing starts.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.workloads.sessions import BrowseInteraction, generate_sessions

TENANTS = ("acme", "beta", "gamma", "omega")

#: Pause between a response and the session's next request.
THINK_S = 0.25

#: Seed of the hot viewports and fixed traces, which every run shares.
FIXED_TRACE_SEED = 2002


@dataclass(frozen=True)
class TrafficSpec:
    """One serving workload's traffic (rates are fixed constants)."""

    name: str
    #: Poisson session arrivals per second (unused for bursts).
    sessions_per_s: float
    #: Requests per session, exactly.
    steps: int
    #: Start viewport ``(width, height)`` in grid cells.
    start_cells: tuple[int, int]
    #: Tiles per axis, ``(min, max)``.
    partitions: tuple[int, int]
    pan_prob: float = 0.0
    pan_fraction: float = 0.25
    #: ``max_depth`` of each generated session piece.
    trace_depth: int = 5
    #: Per-session client deadlines, drawn uniformly.
    deadlines: tuple[float, ...] = (0.25,)
    #: When set, sessions replay one of ``fixed_traces`` traces starting
    #: at ``hot_viewports`` viewports (so many requests repeat exactly).
    hot_viewports: int = 0
    fixed_traces: int = 0
    #: When set, sessions arrive in crowds of this size, one crowd every
    #: ``burst_every_s``, instead of by a Poisson process.
    burst_size: int = 0
    burst_every_s: float = 1.0


@dataclass(frozen=True)
class SessionPlan:
    """One session: when it arrives and its pre-encoded request lines."""

    arrival: float
    deadline: float
    #: Plan-wide index of the session's first request.
    first_index: int
    lines: tuple[bytes, ...]


@dataclass(frozen=True)
class TrafficPlan:
    spec: TrafficSpec
    seconds: float
    sessions: tuple[SessionPlan, ...]
    #: Untimed closed-loop pass run before the window (cache fill).
    warm_lines: tuple[bytes, ...] = ()

    @property
    def attempted(self) -> int:
        return sum(len(s.lines) for s in self.sessions)

    def lines(self) -> list[bytes]:
        """Every timed request line, by plan-wide index."""
        return [line for s in self.sessions for line in s.lines]


def encode_request(
    tenant: str,
    dataset: str,
    session: str,
    step: BrowseInteraction,
    deadline: float | None,
) -> bytes:
    """One NDJSON request line, as a client would send it."""
    region = step.region
    return json.dumps(
        {
            "tenant": tenant,
            "dataset": dataset,
            "region": {"cells": [region.qx_lo, region.qx_hi, region.qy_lo, region.qy_hi]},
            "rows": step.rows,
            "cols": step.cols,
            "relation": step.relation,
            "deadline_s": deadline,
            "session": session,
        }
    ).encode()


def _random_start(rng: np.random.Generator, grid: Grid, spec: TrafficSpec) -> TileQuery:
    width, height = spec.start_cells
    x = int(rng.integers(0, grid.n1 - width + 1))
    y = int(rng.integers(0, grid.n2 - height + 1))
    return TileQuery(x, x + width, y, y + height)


def _trace(rng, grid, spec, start) -> list[BrowseInteraction]:
    """Exactly ``spec.steps`` browse steps; ``start()`` gives each piece's
    first viewport."""
    steps: list[BrowseInteraction] = []
    while len(steps) < spec.steps:
        (session,) = generate_sessions(
            grid,
            num_sessions=1,
            max_depth=spec.trace_depth,
            seed=int(rng.integers(2**32)),
            pan_prob=spec.pan_prob,
            pan_fraction=spec.pan_fraction,
            min_partition=spec.partitions[0],
            max_partition=spec.partitions[1],
            start_region=start(),
        )
        steps.extend(session.interactions)
    return steps[: spec.steps]


def _arrivals(rng: np.random.Generator, spec: TrafficSpec, seconds: float) -> np.ndarray:
    if spec.burst_size:
        bursts = max(1, int(seconds / spec.burst_every_s))
        starts = (np.arange(bursts) + rng.uniform(0.0, 0.25, bursts)) * spec.burst_every_s
        return np.repeat(starts, spec.burst_size)
    count = max(1, round(spec.sessions_per_s * seconds))
    return np.sort(rng.uniform(0.0, seconds, count))


def generate(
    spec: TrafficSpec,
    grid: Grid,
    datasets: tuple[str, ...],
    seconds: float,
    seed: int,
) -> TrafficPlan:
    """The workload's full request plan for one run (see module docstring)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    arrivals = _arrivals(rng, spec, seconds)

    traces: list[tuple[str, list[BrowseInteraction]]] = []
    warm: list[bytes] = []
    if spec.fixed_traces:
        # The hot set is part of the workload, not of the seed.
        trace_rng = np.random.default_rng([FIXED_TRACE_SEED, zlib.crc32(spec.name.encode())])
        hot = [_random_start(trace_rng, grid, spec) for _ in range(spec.hot_viewports)]
        for i in range(spec.fixed_traces):
            viewport = hot[i % len(hot)]
            dataset = datasets[int(trace_rng.integers(len(datasets)))]
            steps = _trace(trace_rng, grid, spec, lambda: viewport)
            traces.append((dataset, steps))
            warm.extend(
                encode_request(TENANTS[0], dataset, f"warm{i}", step, None) for step in steps
            )

    sessions = []
    index = 0
    for k, arrival in enumerate(arrivals):
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        deadline = spec.deadlines[int(rng.integers(len(spec.deadlines)))]
        if traces:
            dataset, steps = traces[int(rng.integers(len(traces)))]
        else:
            dataset = datasets[int(rng.integers(len(datasets)))]
            steps = _trace(rng, grid, spec, lambda: _random_start(rng, grid, spec))
        lines = tuple(encode_request(tenant, dataset, f"s{k}", s, deadline) for s in steps)
        sessions.append(SessionPlan(float(arrival), deadline, index, lines))
        index += len(lines)
    return TrafficPlan(spec, float(seconds), tuple(sessions), tuple(warm))
