"""Shared fixtures and reference oracles for the test suite.

The oracles here deliberately take *different code paths* from the library
internals they check: brute-force per-object classification goes through
the scalar interval logic of :mod:`repro.geometry`, while the library's
evaluators are vectorised lattice computations.  Agreement between the two
is the core correctness evidence.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import struct
import zipfile

import numpy as np
import pytest

from repro.datasets.base import RectDataset
from repro.euler.estimates import Level2Counts
from repro.geometry.rect import Rect
from repro.geometry.relations import Level2Relation, classify_level2_shrunk
from repro.geometry.snapping import snap_rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail any test that leaves a ``multiprocessing`` child running.

    Leaked workers are killed before the failure is reported, so one
    leak does not cascade into every later test."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.kill()
        child.join(5.0)
    if leaked:
        pytest.fail(f"test left child processes running: {[c.name for c in leaked]}")


@pytest.fixture
def small_grid() -> Grid:
    """A 12x8 grid over [0,12]x[0,8]: cell units == world units."""
    return Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)


@pytest.fixture
def world_grid() -> Grid:
    """The paper's 360x180 1-degree grid."""
    return Grid.world_1deg()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_dataset(
    rng: np.random.Generator,
    grid: Grid,
    n: int,
    *,
    max_size_cells: float | None = None,
    degenerate_fraction: float = 0.1,
    aligned_fraction: float = 0.2,
    name: str = "random",
) -> RectDataset:
    """Random rectangles inside the grid extent, with a controllable mix of
    degenerate objects and grid-aligned coordinates (the tricky cases)."""
    extent = grid.extent
    if max_size_cells is None:
        max_w, max_h = extent.width, extent.height
    else:
        max_w = min(extent.width, max_size_cells * grid.cell_width)
        max_h = min(extent.height, max_size_cells * grid.cell_height)

    w = rng.uniform(0.0, max_w, size=n)
    h = rng.uniform(0.0, max_h, size=n)
    degenerate = rng.random(n) < degenerate_fraction
    w[degenerate] = 0.0
    h[degenerate] = 0.0
    x_lo = rng.uniform(extent.x_lo, extent.x_hi - w)
    y_lo = rng.uniform(extent.y_lo, extent.y_hi - h)

    # Snap a fraction of coordinates onto grid lines to exercise the
    # shrinking convention.
    aligned = rng.random(n) < aligned_fraction
    x_lo[aligned] = grid.to_world_x(np.round(grid.to_cell_units_x(x_lo[aligned])))
    y_lo[aligned] = grid.to_world_y(np.round(grid.to_cell_units_y(y_lo[aligned])))

    x_hi = np.minimum(x_lo + w, extent.x_hi)
    y_hi = np.minimum(y_lo + h, extent.y_hi)
    return RectDataset(x_lo, x_hi, y_lo, y_hi, extent, name)


def snapped_open_rect(grid: Grid, rect: Rect) -> Rect:
    """The object's lattice footprint as an open rectangle in cell units:
    the canonical resolution-level view of the object."""
    span = snap_rect(*grid.rect_to_cell_units(rect), grid.n1, grid.n2)
    return Rect(
        float(span.cell_lo_x),
        float(span.cell_hi_x + 1),
        float(span.cell_lo_y),
        float(span.cell_hi_y + 1),
    )


def brute_force_counts(dataset: RectDataset, grid: Grid, query: TileQuery) -> Level2Counts:
    """Ground truth via scalar classification of every object's lattice
    footprint -- the reference for every evaluator and estimator."""
    q = Rect(float(query.qx_lo), float(query.qx_hi), float(query.qy_lo), float(query.qy_hi))
    tally = {rel: 0 for rel in Level2Relation}
    for obj in dataset:
        footprint = snapped_open_rect(grid, obj)
        tally[classify_level2_shrunk(footprint, q)] += 1
    assert tally[Level2Relation.EQUALS] == 0  # shrinking kills equals
    return Level2Counts(
        n_d=float(tally[Level2Relation.DISJOINT]),
        n_cs=float(tally[Level2Relation.CONTAINS]),
        n_cd=float(tally[Level2Relation.CONTAINED]),
        n_o=float(tally[Level2Relation.OVERLAP]),
    )


def random_query(rng: np.random.Generator, grid: Grid) -> TileQuery:
    """A uniformly random aligned query on the grid."""
    x = np.sort(rng.choice(grid.n1 + 1, size=2, replace=False))
    y = np.sort(rng.choice(grid.n2 + 1, size=2, replace=False))
    return TileQuery(int(x[0]), int(x[1]), int(y[0]), int(y[1]))


def flip_npz_member_byte(path: str | os.PathLike, member: str) -> None:
    """Flip the middle byte of one member's compressed data inside the
    ``.npz`` at ``path``: bit rot in one array, with the zip directory
    intact."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    path = pathlib.Path(path)
    raw = bytearray(path.read_bytes())
    # Local file header: 30 fixed bytes, then the name and extra field.
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    raw[start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(raw)
