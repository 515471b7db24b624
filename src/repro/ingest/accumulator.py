"""Budgeted per-zone accumulation with checksummed, sparse disk spills.

The heart of bounded-memory construction: a :class:`ZoneAccumulator`
owns one :class:`~repro.euler.histogram.EulerHistogramBuilder` per zone
it has seen spans for, charges their difference-array footprints against
a byte budget, and when the budget is exceeded spills the
least-recently-touched zones to disk as :class:`ZonePartial` records.
:meth:`ZoneAccumulator.finish` folds everything the accumulator holds --
its live zones, then its own spill records -- into one partial, so every
build participant hands back exactly one partial and no spill outlives
the accumulator that wrote it.

A spilled partial is the builder's scratch clipped to the bounding box
of the spans it actually received (plus the difference array's
past-the-end row/column).  Each object touches only four corners of it,
so a spill keeps just the patch's nonzero entries.  It is one flat
record appended to the accumulator's one spill log,
``<spill_dir>/<label>.spill`` (:func:`spill_log_path`):

- a fixed header (:data:`RECORD_HEADER`): magic and version, zone,
  patch offset ``(a_lo, b_lo)``, patch shape ``(rows, cols)``, object
  count, entry count, the grid's cells ``(n1, n2)`` and its extent;
- the entries' flat positions in the patch, then their values, each as
  raw int64;
- a uint32 CRC-32 over every preceding byte of the record.

Spilling a record is one write at the end of the log and folding it is
one read: no archive directory, compression or member headers.  Byte
order is native: a record is read back only by the process that wrote
it, since every participant folds its own log and no spill crosses a
process boundary.  :func:`load_zone_partial` checks everything a record
claims, so a truncated, corrupt or mismatched spill fails loudly when it
is folded instead of silently skewing counts.  Difference-domain
addition is linear and int64-exact, so folding every partial of every
zone into one builder reproduces the accumulator's state bit-for-bit no
matter how many times a zone was spilled.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import SummaryCorruptError
from repro.euler.histogram import EulerHistogramBuilder
from repro.grid.grid import Grid
from repro.obs.instruments import record_persistence_event

__all__ = ["ALL_ZONES", "ZoneAccumulator", "ZonePartial", "load_zone_partial", "spill_log_path"]

#: ``kind`` of the ``repro_persistence_ops_total`` events spills record.
SPILL_KIND = "zone partial"

#: ``zone`` of the partial :meth:`ZoneAccumulator.finish` hands back: it
#: folds every zone its accumulator saw.
ALL_ZONES = -1

#: Spill record header, native byte order, no padding: magic, version,
#: zone, a_lo, b_lo, rows, cols, num_objects, entries, n1, n2, then the
#: grid extent (x_lo, x_hi, y_lo, y_hi).
RECORD_HEADER = struct.Struct("=4sI9q4d")
RECORD_MAGIC = b"ZSPL"
RECORD_VERSION = 1
#: The CRC-32 that closes a record.
RECORD_TRAILER = struct.Struct("=I")


def spill_log_path(spill_dir: str | os.PathLike, label: str) -> str:
    """The spill log of the accumulator labelled ``label``: the one file
    it appends spills to, and the one a pool deletes for a lost worker."""
    return os.path.join(os.fspath(spill_dir), f"{label}.spill")


@dataclass(frozen=True)
class ZonePartial:
    """Accumulated state clipped to the bounding box of its spans.

    ``patch`` is a difference-domain scratch patch (see
    :meth:`repro.cube.difference.DifferenceArray.patch`); pasting it at
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

    def to_record(self, grid: Grid) -> bytes:
        """This partial as one spill record (see the module docstring):
        the patch's nonzero entries plus the grid identity, so a fold
        against the wrong grid is caught at load."""
        flat = np.ravel(self.patch)
        positions = np.flatnonzero(flat).astype(np.int64, copy=False)
        values = np.ascontiguousarray(flat[positions], dtype=np.int64)
        rows, cols = self.patch.shape
        header = RECORD_HEADER.pack(
            RECORD_MAGIC,
            RECORD_VERSION,
            self.zone,
            self.a_lo,
            self.b_lo,
            rows,
            cols,
            self.num_objects,
            positions.size,
            grid.n1,
            grid.n2,
            *grid.extent.as_tuple(),
        )
        crc = zlib.crc32(values, zlib.crc32(positions, zlib.crc32(header)))
        record_persistence_event(SPILL_KIND, "save", "ok")
        return b"".join((header, positions, values, RECORD_TRAILER.pack(crc)))


def load_zone_partial(
    path: str | os.PathLike, grid: Grid, offset: int, length: int
) -> ZonePartial:
    """Load the spill record of ``length`` bytes at ``offset`` in the log
    at ``path``, verifying its framing, checksum, grid identity and that
    every stored entry lies inside a patch that fits the lattice.  Any
    failure raises :class:`~repro.errors.SummaryCorruptError` naming the
    file."""
    try:
        with open(path, "rb") as log:
            log.seek(offset)
            record = log.read(length)
    except OSError as exc:
        record_persistence_event(SPILL_KIND, "load", "unreadable")
        raise SummaryCorruptError(f"zone partial {path!s} is unreadable: {exc}") from exc
    header_size = RECORD_HEADER.size
    if len(record) != length or length < header_size + RECORD_TRAILER.size:
        record_persistence_event(SPILL_KIND, "load", "unreadable")
        raise SummaryCorruptError(
            f"zone partial {path!s} is truncated: {len(record)} of {length} bytes "
            f"at offset {offset}"
        )
    (
        magic, version, zone, a_lo, b_lo, rows, cols, num_objects, entries, n1, n2, *extent
    ) = RECORD_HEADER.unpack_from(record)
    if magic != RECORD_MAGIC or version != RECORD_VERSION:
        record_persistence_event(SPILL_KIND, "load", "unreadable")
        raise SummaryCorruptError(
            f"zone partial {path!s} is not a version-{RECORD_VERSION} spill record "
            f"(magic {magic!r}, version {version})"
        )
    # Each entry is an int64 position plus an int64 value.
    if length != header_size + 16 * entries + RECORD_TRAILER.size:
        record_persistence_event(SPILL_KIND, "load", "unreadable")
        raise SummaryCorruptError(
            f"zone partial {path!s} is {length} bytes long but its header "
            f"claims {entries} entries"
        )
    (stored,) = RECORD_TRAILER.unpack_from(record, length - RECORD_TRAILER.size)
    actual = zlib.crc32(memoryview(record)[: length - RECORD_TRAILER.size])
    if stored != actual:
        record_persistence_event(SPILL_KIND, "load", "checksum_mismatch")
        raise SummaryCorruptError(
            f"zone partial {path!s} failed checksum verification "
            f"(stored {stored:#010x}, computed {actual:#010x})"
        )
    record_persistence_event(SPILL_KIND, "load", "ok")
    if (n1, n2) != (grid.n1, grid.n2) or tuple(extent) != grid.extent.as_tuple():
        raise SummaryCorruptError(
            f"zone partial {path!s} was built for a different grid "
            f"(cells {[n1, n2]}, extent {extent}); refusing to merge"
        )
    lattice = grid.lattice_shape
    if (
        min(a_lo, b_lo, rows, cols, num_objects) < 0
        or a_lo + rows > lattice[0] + 1
        or b_lo + cols > lattice[1] + 1
    ):
        raise SummaryCorruptError(
            f"zone partial {path!s} holds a malformed offset, shape or count"
        )
    positions = np.frombuffer(record, dtype=np.int64, count=entries, offset=header_size)
    values = np.frombuffer(
        record, dtype=np.int64, count=entries, offset=header_size + 8 * entries
    )
    if entries and (
        positions[0] < 0 or positions[-1] >= rows * cols or np.any(np.diff(positions) <= 0)
    ):
        raise SummaryCorruptError(f"zone partial {path!s} holds entries outside its patch")
    patch = np.zeros((rows, cols), dtype=np.int64)
    patch.reshape(-1)[positions] = values
    return ZonePartial(zone=zone, a_lo=a_lo, b_lo=b_lo, patch=patch, num_objects=num_objects)


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
    Spills append to one log, :attr:`spill_path`, named from ``label``;
    :attr:`spill_records` lists the ``(offset, length)`` of each record
    in it not yet folded.  :meth:`finish` folds the records and deletes
    the log; :meth:`discard` deletes it when the build ends without a
    result.
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
        # Known before the first write, so a failed append is still deleted.
        self.spill_path = spill_log_path(spill_dir, label)
        self.spill_records: list[tuple[int, int]] = []
        self._builders: dict[int, EulerHistogramBuilder] = {}
        self._bboxes: dict[int, list[int]] = {}
        self._lru: dict[int, int] = {}
        self._clock = 0
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
        record = partial.to_record(self._grid)
        offset = sum(self.spill_records[-1]) if self.spill_records else 0
        # The first spill creates the log or truncates a stale one; each
        # record goes where the last one listed ends.
        with open(self.spill_path, "r+b" if offset else "wb") as log:
            log.seek(offset)
            log.write(record)
        self.spill_records.append((offset, len(record)))
        self.spills += 1

    def finish(self) -> list[ZonePartial]:
        """Fold everything this accumulator holds into one partial.

        Live zones fold into one of their builders, each freed as it is
        added; then the spill records are folded newest first, each
        loaded, added and cut off the end of the log before the next one
        is read, so at most one reloaded partial is held and disk space
        is released as the fold proceeds.  The log is deleted once every
        record is folded.  A builder is allocated only when no zone is
        live, so the budget holds here too.  Returns the folded partial
        (``zone == ALL_ZONES``) in a one-element list, or an empty list
        when no span ever arrived.

        A corrupt or mismatched spill raises
        :class:`~repro.errors.SummaryCorruptError`; the records not yet
        folded stay in :attr:`spill_records`, and :meth:`discard` deletes
        the log.
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
        while self.spill_records:
            offset, length = self.spill_records[-1]
            partial = load_zone_partial(self.spill_path, self._grid, offset, length)
            if target is None:
                target = EulerHistogramBuilder(self._grid)
                self.peak_bytes = max(self.peak_bytes, self.builder_nbytes)
            target.add_partial(partial.a_lo, partial.b_lo, partial.patch, partial.num_objects)
            rows, cols = partial.patch.shape
            _grow(box, partial.a_lo, partial.a_lo + rows - 2, partial.b_lo, partial.b_lo + cols - 2)
            del partial  # freed before the next one loads
            self.spill_records.pop()
            if self.spill_records:
                os.truncate(self.spill_path, offset)
            else:
                os.unlink(self.spill_path)
        if target is None:
            return []
        patch, num_objects = target.export_partial(*box)
        return [
            ZonePartial(
                zone=ALL_ZONES, a_lo=box[0], b_lo=box[2], patch=patch, num_objects=num_objects
            )
        ]

    def discard(self) -> None:
        """Release the builders and delete the spill log: a build that
        ends without a result leaves none of this accumulator's spills
        behind (idempotent)."""
        self._builders.clear()
        self._bboxes.clear()
        self._lru.clear()
        self.spill_records.clear()
        try:
            os.unlink(self.spill_path)
        except OSError:
            pass


def _grow(box: list[int], a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> None:
    """Widen the inclusive lattice box ``box`` to cover another one."""
    box[0] = min(box[0], a_lo)
    box[1] = max(box[1], a_hi)
    box[2] = min(box[2], b_lo)
    box[3] = max(box[3], b_hi)
