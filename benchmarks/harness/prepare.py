"""Benchmark inputs, built once per checkout and cached under ``.bench_cache/``.

Serving workloads read the four paper datasets (Figure 12) at paper
scale, summarised on the 360x180 world grid: one Euler histogram and one
histogram pyramid per dataset, persisted with the library's own
checksummed ``save`` so that set-up time is the deployment's load path.
Build workloads stream one fixed ADL-like object file (``.npy``) whose
direct, in-memory build is saved alongside as the correctness reference.

The inputs are fixed (dataset seed 42) so every workload seed replays its
traffic over the same summaries; ``--seed`` only drives traffic.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.datasets import by_name
from repro.datasets.base import RectDataset
from repro.euler.histogram import EulerHistogram
from repro.euler.pyramid import HistogramPyramid
from repro.grid.grid import Grid
from repro.ingest import NpyChunkSource, SyntheticChunkSource

#: Dataset name -> object count (the paper's sizes, Section 6).
SERVING_DATASETS = {
    "sp_skew": 1_000_000,
    "sz_skew": 1_000_000,
    "adl": 2_340_000,
    "ca_road": 2_670_000,
}
DATASET_SEED = 42
GRID_CELLS = (360, 180)
PYRAMID_MIN_CELLS = 4

#: The build stream: ADL-like objects in 250k-object chunks.
STREAM_DATASET = "adl"
STREAM_OBJECTS = 2_000_000
STREAM_CHUNK = 250_000

#: Bump when any input above changes, so stale caches are rebuilt.
VERSION = 1


def _config() -> dict:
    return {
        "version": VERSION,
        "datasets": SERVING_DATASETS,
        "seed": DATASET_SEED,
        "grid": list(GRID_CELLS),
        "min_cells": PYRAMID_MIN_CELLS,
        "stream": [STREAM_DATASET, STREAM_OBJECTS, STREAM_CHUNK],
    }


def scale_label() -> str:
    """The input scale, for the environment stamp."""
    sizes = "/".join(f"{name}={n}" for name, n in SERVING_DATASETS.items())
    return f"{sizes}; stream {STREAM_DATASET}={STREAM_OBJECTS}"


class Inputs:
    """Paths of the prepared inputs (see the module docstring)."""

    def __init__(self, root: pathlib.Path) -> None:
        self.dir = root / ".bench_cache"
        self.marker = self.dir / "inputs.json"

    def histogram(self, name: str) -> pathlib.Path:
        return self.dir / f"{name}.hist.npz"

    def pyramid(self, name: str) -> pathlib.Path:
        return self.dir / f"{name}.pyramid.npz"

    @property
    def stream(self) -> pathlib.Path:
        return self.dir / f"{STREAM_DATASET}_stream.npy"

    @property
    def stream_reference(self) -> pathlib.Path:
        return self.dir / f"{STREAM_DATASET}_stream.reference.npz"

    def ready(self) -> bool:
        """Whether a complete preparation of the current inputs exists."""
        try:
            return json.loads(self.marker.read_text()) == _config()
        except (OSError, ValueError):
            return False

    def open_stream(self) -> NpyChunkSource:
        """The build workloads' replayable chunk source."""
        return NpyChunkSource(self.stream, STREAM_CHUNK, extent=stream_extent())


def stream_extent():
    return by_name(STREAM_DATASET, 0, seed=DATASET_SEED).extent


def stream_grid() -> Grid:
    return Grid(stream_extent(), *GRID_CELLS)


def _write_stream(path: pathlib.Path) -> None:
    """Write the generated stream chunk by chunk, never holding it whole."""
    source = SyntheticChunkSource(
        STREAM_DATASET, STREAM_OBJECTS, STREAM_CHUNK, seed=DATASET_SEED
    )
    tmp = path.with_suffix(".tmp.npy")
    out = np.lib.format.open_memmap(
        tmp, mode="w+", dtype=np.float64, shape=(STREAM_OBJECTS, 4)
    )
    for index, chunk in source:
        start = index * STREAM_CHUNK
        out[start : start + len(chunk)] = np.column_stack(
            [chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi]
        )
    out.flush()
    del out
    os.replace(tmp, path)


def prepare(root: pathlib.Path) -> Inputs:
    """Build every input not already cached for the current config."""
    inputs = Inputs(root)
    if inputs.ready():
        return inputs
    inputs.dir.mkdir(parents=True, exist_ok=True)
    inputs.marker.unlink(missing_ok=True)
    for name, count in SERVING_DATASETS.items():
        data = by_name(name, count, seed=DATASET_SEED)
        grid = Grid(data.extent, *GRID_CELLS)
        EulerHistogram.from_dataset(data, grid).save(inputs.histogram(name))
        HistogramPyramid(data, grid, min_cells=PYRAMID_MIN_CELLS).save(
            inputs.pyramid(name)
        )
        del data
    _write_stream(inputs.stream)
    # The reference is the direct in-memory build of the very file the
    # zoned builds stream, so it checks the whole pipeline end to end.
    whole = np.load(inputs.stream)
    dataset = RectDataset(whole[:, 0], whole[:, 1], whole[:, 2], whole[:, 3], stream_extent())
    EulerHistogram.from_dataset(dataset, stream_grid()).save(inputs.stream_reference)
    del whole, dataset
    inputs.marker.write_text(json.dumps(_config()))
    return inputs
