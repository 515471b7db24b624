"""Replayable chunk sources for streaming construction.

The out-of-core builder never holds a whole dataset: it pulls bounded
chunks from a :class:`ChunkSource` and routes each chunk's rectangles to
zone accumulators.  A source is an *indexed* stream -- every chunk has a
stable index and can be re-read by that index -- because the parallel
build replays the chunks a crashed worker had in flight.  Four sources
cover the repo's object supplies:

- :class:`DatasetChunkSource` -- an in-memory :class:`RectDataset`,
  sliced (mostly for tests and parity checks).
- :class:`SyntheticChunkSource` -- the paper's generators, one seeded
  generation per chunk, so arbitrarily large streams cost only one
  chunk of memory.
- :class:`NdjsonChunkSource` -- newline-delimited JSON records; byte
  offsets are recorded per chunk so a replay seeks instead of rescanning.
- :class:`NpyChunkSource` -- an ``(N, 4)`` float ``.npy`` array read
  through a memory map, so chunks are views into the page cache.

:func:`open_chunk_source` dispatches on a path's suffix (``.npz`` files
load as a :class:`RectDataset` first).
"""

from __future__ import annotations

import json
import os
from typing import Iterator

import numpy as np

from repro.datasets import by_name as dataset_by_name
from repro.datasets.base import RectDataset
from repro.geometry.rect import Rect

__all__ = [
    "ChunkSource",
    "DatasetChunkSource",
    "NdjsonChunkSource",
    "NpyChunkSource",
    "SyntheticChunkSource",
    "open_chunk_source",
]


class ChunkSource:
    """Indexed stream of bounded :class:`RectDataset` chunks.

    Iteration yields ``(index, chunk)`` pairs with consecutive indices
    starting at zero; :meth:`reread` reproduces a previously yielded
    chunk bit-for-bit.  The *stream* a source defines is the
    concatenation of its chunks in index order -- parity tests compare a
    zoned build of the stream against a direct build of the same
    concatenation.
    """

    #: Human-readable label (dataset name / file stem).
    name: str = "stream"

    def __init__(self, chunk_size: int) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = int(chunk_size)

    @property
    def extent(self) -> Rect:
        """The data-space extent every chunk lies inside."""
        raise NotImplementedError

    @property
    def num_objects(self) -> int | None:
        """Total stream length, or ``None`` when unknown up front."""
        return None

    def __iter__(self) -> Iterator[tuple[int, RectDataset]]:
        raise NotImplementedError

    def reread(self, index: int) -> RectDataset:
        """Reproduce chunk ``index`` (must already have been yielded)."""
        raise NotImplementedError


class DatasetChunkSource(ChunkSource):
    """Chunks sliced from an in-memory :class:`RectDataset`."""

    def __init__(self, dataset: RectDataset, chunk_size: int) -> None:
        super().__init__(chunk_size)
        self._dataset = dataset
        self.name = dataset.name

    @property
    def extent(self) -> Rect:
        return self._dataset.extent

    @property
    def num_objects(self) -> int:
        return len(self._dataset)

    def __iter__(self) -> Iterator[tuple[int, RectDataset]]:
        for index, chunk in enumerate(self._dataset.iter_chunks(self.chunk_size)):
            yield index, chunk

    def reread(self, index: int) -> RectDataset:
        """Re-slice chunk ``index`` from the backing dataset."""
        start = index * self.chunk_size
        if index < 0 or start >= max(len(self._dataset), 1):
            raise IndexError(f"chunk {index} is out of range for {self.name}")
        return self._dataset.select(slice(start, start + self.chunk_size))


class SyntheticChunkSource(ChunkSource):
    """Seeded per-chunk generation of the paper's synthetic datasets.

    Chunk ``i`` is generated with a :class:`numpy.random.SeedSequence`
    derived from ``(seed, i)``, so any chunk regenerates independently
    of the others -- replay after a worker crash re-creates exactly the
    lost rectangles.  Note the resulting stream is *defined as* the
    concatenation of the per-chunk generations; it is deterministic for
    a ``(name, num_objects, chunk_size, seed)`` tuple but differs from
    one monolithic ``by_name(name, num_objects)`` call.
    """

    def __init__(self, name: str, num_objects: int, chunk_size: int, *, seed: int = 0) -> None:
        super().__init__(chunk_size)
        if num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        self.name = name
        self._num_objects = int(num_objects)
        self._seed = int(seed)
        # Validate the dataset name (and capture the extent) eagerly.
        self._extent = dataset_by_name(name, 0, seed=seed).extent

    @property
    def extent(self) -> Rect:
        return self._extent

    @property
    def num_objects(self) -> int:
        return self._num_objects

    @property
    def num_chunks(self) -> int:
        return -(-self._num_objects // self.chunk_size) if self._num_objects else 0

    def __iter__(self) -> Iterator[tuple[int, RectDataset]]:
        for index in range(self.num_chunks):
            yield index, self.reread(index)

    def reread(self, index: int) -> RectDataset:
        """Regenerate chunk ``index`` from its derived seed sequence."""
        if index < 0 or index >= self.num_chunks:
            raise IndexError(f"chunk {index} is out of range for {self.name}")
        start = index * self.chunk_size
        size = min(self.chunk_size, self._num_objects - start)
        seed = np.random.SeedSequence(entropy=(self._seed, index))
        return dataset_by_name(self.name, size, seed=seed)

    def materialize(self) -> RectDataset:
        """The full stream as one dataset (parity tests, small sizes)."""
        chunks = [chunk for _, chunk in self]
        out = RectDataset.empty(self._extent, name=self.name)
        for chunk in chunks:
            out = out.concatenated(chunk, name=self.name)
        return out


class NdjsonChunkSource(ChunkSource):
    """Newline-delimited JSON rectangles, chunked with seekable replay.

    Each line is either a 4-element array ``[x_lo, x_hi, y_lo, y_hi]``
    or an object with those keys; blank lines are skipped.  The byte
    offset of every chunk is recorded as the stream advances, so
    :meth:`reread` seeks straight to a chunk already yielded -- the only
    chunks a crash replay ever asks for.
    """

    def __init__(
        self, path: str | os.PathLike, chunk_size: int, *, extent: Rect | None = None
    ) -> None:
        super().__init__(chunk_size)
        self._path = os.fspath(path)
        self.name = os.path.splitext(os.path.basename(self._path))[0]
        self._offsets: list[int] = [0]
        self._extent = extent if extent is not None else self._scan_extent()

    def _scan_extent(self) -> Rect:
        """Derive the extent from a full pass over the file (used only
        when the caller cannot declare one up front)."""
        bounds = [np.inf, -np.inf, np.inf, -np.inf]
        with open(self._path, "rb") as handle:
            while True:
                columns = self._read_rows(handle, self.chunk_size)
                if columns[0].size == 0:
                    break
                bounds[0] = min(bounds[0], float(columns[0].min()))
                bounds[1] = max(bounds[1], float(columns[1].max()))
                bounds[2] = min(bounds[2], float(columns[2].min()))
                bounds[3] = max(bounds[3], float(columns[3].max()))
        if not np.isfinite(bounds).all():
            raise ValueError(f"{self._path} holds no rectangles; declare an extent explicitly")
        return Rect(*bounds)

    @property
    def extent(self) -> Rect:
        return self._extent

    @staticmethod
    def _read_rows(handle, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        rows = []
        while len(rows) < count:
            line = handle.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict):
                rows.append(
                    (record["x_lo"], record["x_hi"], record["y_lo"], record["y_hi"])
                )
            else:
                if len(record) != 4:
                    raise ValueError(f"NDJSON record must have 4 coordinates, got {record!r}")
                rows.append(tuple(record))
        columns = np.asarray(rows, dtype=np.float64).reshape(len(rows), 4)
        return columns[:, 0], columns[:, 1], columns[:, 2], columns[:, 3]

    def _chunk_at(self, handle) -> RectDataset:
        x_lo, x_hi, y_lo, y_hi = self._read_rows(handle, self.chunk_size)
        return RectDataset(x_lo, x_hi, y_lo, y_hi, self._extent, name=self.name)

    def __iter__(self) -> Iterator[tuple[int, RectDataset]]:
        index = 0
        with open(self._path, "rb") as handle:
            while True:
                chunk = self._chunk_at(handle)
                if not len(chunk):
                    break
                if index + 1 >= len(self._offsets):
                    self._offsets.append(handle.tell())
                yield index, chunk
                index += 1

    def reread(self, index: int) -> RectDataset:
        """Seek to chunk ``index``'s recorded byte offset and re-parse."""
        # The last offset is where the next, not yet yielded, chunk starts.
        if index < 0 or index >= len(self._offsets) - 1:
            raise IndexError(
                f"chunk {index} of {self.name} has not been read yet; "
                "only yielded chunks can be replayed"
            )
        with open(self._path, "rb") as handle:
            handle.seek(self._offsets[index])
            return self._chunk_at(handle)


class NpyChunkSource(ChunkSource):
    """An ``(N, 4)`` float array on disk, streamed through a memory map.

    Columns are ``x_lo, x_hi, y_lo, y_hi``.  Chunks copy out of the map,
    so each chunk touches only its own pages -- a 100M-object file never
    needs 100M objects of RAM.
    """

    def __init__(
        self, path: str | os.PathLike, chunk_size: int, *, extent: Rect | None = None
    ) -> None:
        super().__init__(chunk_size)
        self._path = os.fspath(path)
        self.name = os.path.splitext(os.path.basename(self._path))[0]
        data = np.load(self._path, mmap_mode="r")
        if data.ndim != 2 or data.shape[1] != 4:
            raise ValueError(
                f"{self._path} must hold an (N, 4) array of MBR columns, got shape {data.shape}"
            )
        self._data = data
        if extent is None:
            if not data.shape[0]:
                raise ValueError(f"{self._path} holds no rectangles; declare an extent explicitly")
            extent = Rect(
                float(np.min(data[:, 0])),
                float(np.max(data[:, 1])),
                float(np.min(data[:, 2])),
                float(np.max(data[:, 3])),
            )
        self._extent = extent

    @property
    def extent(self) -> Rect:
        return self._extent

    @property
    def num_objects(self) -> int:
        return int(self._data.shape[0])

    @property
    def num_chunks(self) -> int:
        return -(-self.num_objects // self.chunk_size) if self.num_objects else 0

    def __iter__(self) -> Iterator[tuple[int, RectDataset]]:
        for index in range(self.num_chunks):
            yield index, self.reread(index)

    def reread(self, index: int) -> RectDataset:
        """Copy chunk ``index``'s rows out of the memory map."""
        if index < 0 or index >= self.num_chunks:
            raise IndexError(f"chunk {index} is out of range for {self.name}")
        start = index * self.chunk_size
        block = np.array(self._data[start : start + self.chunk_size], dtype=np.float64)
        return RectDataset(
            block[:, 0], block[:, 1], block[:, 2], block[:, 3], self._extent, name=self.name
        )


def open_chunk_source(
    path: str | os.PathLike, chunk_size: int, *, extent: Rect | None = None
) -> ChunkSource:
    """Open a rectangle file as a chunk source, dispatching on suffix.

    ``.ndjson``/``.jsonl`` stream as :class:`NdjsonChunkSource`, ``.npy``
    as :class:`NpyChunkSource`; ``.npz`` files are checksum-verified
    :class:`RectDataset` saves, loaded whole and then sliced (the format
    carries its own extent, so ``extent`` must be left unset).
    """
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    if suffix in (".ndjson", ".jsonl"):
        return NdjsonChunkSource(path, chunk_size, extent=extent)
    if suffix == ".npy":
        return NpyChunkSource(path, chunk_size, extent=extent)
    if suffix == ".npz":
        if extent is not None:
            raise ValueError(".npz datasets carry their own extent; do not pass one")
        return DatasetChunkSource(RectDataset.load(path), chunk_size)
    raise ValueError(
        f"cannot infer a chunk reader for {path!s}; "
        "expected a .ndjson/.jsonl, .npy or .npz suffix"
    )
