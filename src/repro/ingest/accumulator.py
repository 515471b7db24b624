"""Budgeted per-zone accumulation with checksummed, sparse disk spills.

The heart of bounded-memory construction: a :class:`ZoneAccumulator`
owns one :class:`~repro.euler.histogram.EulerHistogramBuilder` per zone
it has seen spans for, charges their difference-array footprints against
a byte budget, and when the budget is exceeded spills the
least-recently-touched zones to disk as :class:`ZonePartial` files.
:meth:`ZoneAccumulator.finish` folds everything the accumulator holds --
its live zones, then its own spill files -- into one partial, so every
build participant hands back exactly one partial and no spill file
outlives the accumulator that wrote it.

A spilled partial is the builder's scratch clipped to the bounding box
of the spans it actually received (plus the difference array's
past-the-end row/column).  Each object touches only four corners of it,
so the file keeps just the patch's nonzero entries -- flat positions and
values, with the patch shape, offset, object count and grid identity --
inside the repo's CRC-32 ``.npz`` envelope (:mod:`repro.persistence`): a
corrupt or mismatched spill fails loudly when it is folded instead of
silently skewing counts.  Difference-domain addition is linear and
int64-exact, so folding every partial of every zone into one builder
reproduces the accumulator's state bit-for-bit no matter how many times
a zone was spilled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import SummaryCorruptError
from repro.euler.histogram import EulerHistogramBuilder
from repro.grid.grid import Grid
from repro.persistence import load_verified_npz, save_verified_npz

__all__ = ["ALL_ZONES", "ZoneAccumulator", "ZonePartial", "load_zone_partial"]

#: ``kind`` stamped into spill files' persistence envelope.
SPILL_KIND = "zone partial"

#: ``zone`` of the partial :meth:`ZoneAccumulator.finish` hands back: it
#: folds every zone its accumulator saw.
ALL_ZONES = -1


@dataclass(frozen=True)
class ZonePartial:
    """Accumulated state clipped to the bounding box of its spans.

    ``patch`` is a difference-domain scratch patch (see
    :meth:`repro.cube.difference.DifferenceArray2D.patch`); pasting it at
    lattice offset ``(a_lo, b_lo)`` via
    :meth:`EulerHistogramBuilder.add_partial` replays its updates
    exactly.  A spilled partial holds one ``zone``; the one an
    accumulator's :meth:`~ZoneAccumulator.finish` hands back holds all
    of them (``zone == ALL_ZONES``).  Partials are additive: any number
    of them, from any mix of workers and spill generations, sum to the
    true state.
    """

    zone: int
    a_lo: int
    b_lo: int
    patch: np.ndarray
    num_objects: int

    @property
    def nbytes(self) -> int:
        return int(self.patch.nbytes)

    def save(self, path: str | os.PathLike, grid: Grid) -> None:
        """Persist the patch's nonzero entries with the CRC-32 envelope
        plus the grid identity, so a merge against the wrong grid is
        caught at load."""
        flat = np.ravel(self.patch)
        positions = np.flatnonzero(flat)
        save_verified_npz(
            path,
            {
                "zone": np.int64(self.zone),
                "offset": np.array([self.a_lo, self.b_lo], dtype=np.int64),
                "shape": np.array(self.patch.shape, dtype=np.int64),
                "positions": positions,
                "values": flat[positions],
                "num_objects": np.int64(self.num_objects),
                "cells": np.array([grid.n1, grid.n2], dtype=np.int64),
                "extent": np.array(grid.extent.as_tuple(), dtype=np.float64),
            },
            kind=SPILL_KIND,
        )


def load_zone_partial(path: str | os.PathLike, grid: Grid) -> ZonePartial:
    """Load a spilled partial, verifying checksum, grid identity and
    that every stored entry lies inside a patch that fits the lattice."""
    payload = load_verified_npz(
        path,
        kind=SPILL_KIND,
        required=(
            "zone", "offset", "shape", "positions", "values", "num_objects", "cells", "extent"
        ),
    )
    cells = np.asarray(payload["cells"], dtype=np.int64).reshape(-1)
    extent = np.asarray(payload["extent"], dtype=np.float64).reshape(-1)
    if (
        cells.shape != (2,)
        or extent.shape != (4,)
        or (int(cells[0]), int(cells[1])) != (grid.n1, grid.n2)
        or tuple(float(v) for v in extent) != grid.extent.as_tuple()
    ):
        raise SummaryCorruptError(
            f"zone partial {path!s} was built for a different grid "
            f"(cells {cells.tolist()}, extent {extent.tolist()}); refusing to merge"
        )
    offset = np.asarray(payload["offset"], dtype=np.int64).reshape(-1)
    shape = np.asarray(payload["shape"], dtype=np.int64).reshape(-1)
    num_objects = int(payload["num_objects"])
    lattice = np.asarray(grid.lattice_shape, dtype=np.int64)
    if (
        offset.shape != (2,)
        or shape.shape != (2,)
        or offset.min() < 0
        or shape.min() < 0
        or np.any(offset + shape > lattice + 1)
        or num_objects < 0
    ):
        raise SummaryCorruptError(
            f"zone partial {path!s} holds a malformed offset, shape or count"
        )
    positions = np.asarray(payload["positions"])
    values = np.asarray(payload["values"])
    if (
        positions.ndim != 1
        or positions.shape != values.shape
        or not np.issubdtype(positions.dtype, np.integer)
        or not np.issubdtype(values.dtype, np.integer)
    ):
        raise SummaryCorruptError(f"zone partial {path!s} holds malformed entries")
    if positions.size and (
        positions[0] < 0
        or positions[-1] >= int(shape[0]) * int(shape[1])
        or np.any(np.diff(positions) <= 0)
    ):
        raise SummaryCorruptError(f"zone partial {path!s} holds entries outside its patch")
    patch = np.zeros((int(shape[0]), int(shape[1])), dtype=np.int64)
    patch.reshape(-1)[positions] = values
    return ZonePartial(
        zone=int(payload["zone"]),
        a_lo=int(offset[0]),
        b_lo=int(offset[1]),
        patch=patch,
        num_objects=num_objects,
    )


class ZoneAccumulator:
    """Routes snapped spans to per-zone builders under a byte budget.

    ``budget_bytes`` bounds the *sum* of live builders' accumulator
    footprints -- an invariant, not a soft target: builders over the
    whole lattice cost a fixed ``builder_nbytes`` each, and before a new
    zone's builder is allocated, least-recently-touched zones are
    spilled (and their builders freed) until the newcomer fits.  The
    budget must admit at least one builder.

    The accumulator tracks the bounding box of every zone's spans so
    spills clip to the smallest patch that carries the zone's state.
    :attr:`spill_paths` lists the spill files it wrote and has not yet
    folded; :meth:`finish` folds and deletes them, :meth:`discard`
    deletes them when the build ends without a result.
    """

    def __init__(
        self,
        grid: Grid,
        budget_bytes: int,
        spill_dir: str | os.PathLike,
        *,
        label: str = "ingest",
    ) -> None:
        self._grid = grid
        shape = grid.lattice_shape
        self.builder_nbytes = (shape[0] + 1) * (shape[1] + 1) * np.dtype(np.int64).itemsize
        if budget_bytes < self.builder_nbytes:
            raise ValueError(
                f"memory budget {budget_bytes} B cannot hold even one zone "
                f"accumulator ({self.builder_nbytes} B for a "
                f"{shape[0]}x{shape[1]} lattice); raise --memory-mb"
            )
        self._budget_bytes = int(budget_bytes)
        self._spill_dir = os.fspath(spill_dir)
        self._label = label
        self._builders: dict[int, EulerHistogramBuilder] = {}
        self._bboxes: dict[int, list[int]] = {}
        self._lru: dict[int, int] = {}
        self._clock = 0
        self._spill_seq = 0
        self.spill_paths: list[str] = []
        self.objects = 0
        self.spills = 0
        self.peak_bytes = 0

    @property
    def live_bytes(self) -> int:
        return len(self._builders) * self.builder_nbytes

    @property
    def live_zones(self) -> int:
        return len(self._builders)

    def add_spans(
        self,
        zones: np.ndarray,
        a_lo: np.ndarray,
        a_hi: np.ndarray,
        b_lo: np.ndarray,
        b_hi: np.ndarray,
    ) -> None:
        """Scatter a batch of snapped spans into their zones' builders.

        Rows are grouped by zone (one stable sort), each group lands in
        its zone's builder via one vectorised ``add_spans`` call, and
        the budget is enforced after the batch.
        """
        zones = np.asarray(zones, dtype=np.int64)
        if zones.size == 0:
            return
        order = np.argsort(zones, kind="stable")
        sorted_zones = zones[order]
        group_starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_zones)) + 1, [sorted_zones.size]]
        )
        for start, end in zip(group_starts[:-1], group_starts[1:]):
            zone = int(sorted_zones[start])
            rows = order[start:end]
            za_lo, za_hi = a_lo[rows], a_hi[rows]
            zb_lo, zb_hi = b_lo[rows], b_hi[rows]
            builder = self._builders.get(zone)
            if builder is None:
                self._make_room()
                builder = EulerHistogramBuilder(self._grid)
                self._builders[zone] = builder
                shape = self._grid.lattice_shape
                self._bboxes.setdefault(zone, [shape[0], -1, shape[1], -1])
            builder.add_spans(za_lo, za_hi, zb_lo, zb_hi, np.ones(rows.size, dtype=np.int64))
            _grow(
                self._bboxes[zone],
                int(za_lo.min()),
                int(za_hi.max()),
                int(zb_lo.min()),
                int(zb_hi.max()),
            )
            self._clock += 1
            self._lru[zone] = self._clock
            self.objects += int(rows.size)
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)

    def _make_room(self) -> None:
        """Spill least-recently-touched zones until one more builder fits
        inside the budget (the budget-as-invariant step)."""
        while (
            self.live_bytes + self.builder_nbytes > self._budget_bytes and self._builders
        ):
            victim = min(self._builders, key=self._lru.__getitem__)
            self._spill(victim)

    def _spill(self, zone: int) -> None:
        builder = self._builders.pop(zone)
        self._lru.pop(zone, None)
        bbox = self._bboxes.pop(zone)
        patch, num_objects = builder.export_partial(*bbox)
        partial = ZonePartial(
            zone=zone, a_lo=bbox[0], b_lo=bbox[2], patch=patch, num_objects=num_objects
        )
        path = os.path.join(
            self._spill_dir, f"{self._label}-zone{zone:06d}-{self._spill_seq:05d}.npz"
        )
        self._spill_seq += 1
        # Listed before it is written, so a failed write is still deleted.
        self.spill_paths.append(path)
        partial.save(path, self._grid)
        self.spills += 1

    def finish(self) -> list[ZonePartial]:
        """Fold everything this accumulator holds into one partial.

        Live zones fold into one of their builders, each freed as it is
        added; then each spill file in :attr:`spill_paths` is loaded,
        added and deleted before the next one is read, so at most one
        reloaded partial is held.  A builder is allocated only when no
        zone is live, so the budget holds here too.  Returns the folded
        partial (``zone == ALL_ZONES``) in a one-element list, or an
        empty list when no span ever arrived.

        A corrupt or mismatched spill raises
        :class:`~repro.errors.SummaryCorruptError`; the files not yet
        folded stay in :attr:`spill_paths` for :meth:`discard`.
        """
        shape = self._grid.lattice_shape
        box = [shape[0], -1, shape[1], -1]
        target: EulerHistogramBuilder | None = None
        while self._builders:
            zone, builder = self._builders.popitem()
            _grow(box, *self._bboxes.pop(zone))
            if target is None:
                target = builder
            else:
                target.merge(builder)
        self._lru.clear()
        while self.spill_paths:
            path = self.spill_paths[-1]
            partial = load_zone_partial(path, self._grid)
            if target is None:
                target = EulerHistogramBuilder(self._grid)
                self.peak_bytes = max(self.peak_bytes, self.builder_nbytes)
            target.add_partial(partial.a_lo, partial.b_lo, partial.patch, partial.num_objects)
            rows, cols = partial.patch.shape
            _grow(box, partial.a_lo, partial.a_lo + rows - 2, partial.b_lo, partial.b_lo + cols - 2)
            del partial  # freed before the next one loads
            os.unlink(path)
            self.spill_paths.pop()
        if target is None:
            return []
        patch, num_objects = target.export_partial(*box)
        return [
            ZonePartial(
                zone=ALL_ZONES, a_lo=box[0], b_lo=box[2], patch=patch, num_objects=num_objects
            )
        ]

    def discard(self) -> None:
        """Release the builders and delete every spill file not yet
        folded: a build that ends without a result leaves none of this
        accumulator's files behind (idempotent)."""
        self._builders.clear()
        self._bboxes.clear()
        self._lru.clear()
        while self.spill_paths:
            try:
                os.unlink(self.spill_paths.pop())
            except OSError:
                pass


def _grow(box: list[int], a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> None:
    """Widen the inclusive lattice box ``box`` to cover another one."""
    box[0] = min(box[0], a_lo)
    box[1] = max(box[1], a_hi)
    box[2] = min(box[2], b_lo)
    box[3] = max(box[3], b_hi)
