"""The zone-build worker loop: snap, route, accumulate, hand back one partial.

A build worker's whole life:

1. construct a :class:`~repro.ingest.accumulator.ZoneAccumulator` over
   the shipped :class:`~repro.ingest.zones.ZoneMap`'s grid, send
   ``("ready", index, pid)``;
2. loop on the pipe:

   - ``("chunk", chunk_index, x_lo, x_hi, y_lo, y_hi)`` -- snap the raw
     world-coordinate columns to lattice spans, route them to zones and
     scatter into the accumulator; reply ``("done", chunk_index, n)``.
     Any failure replies ``("error", chunk_index, repr)`` -- a data or
     accumulator error is a build-aborting bug, not a crash to mask.
   - ``("finish",)`` -- fold the live zones and the worker's own spill
     files into one partial (:meth:`ZoneAccumulator.finish`) and reply
     ``("result", index, partials, stats)``, where ``partials`` holds
     that one partial (none if the worker was dealt no objects).  No
     spill path leaves the worker.  A corrupt spill replies ``("error",
     None, repr)`` like any accumulator error.
   - ``("stop",)`` -- exit.

Each worker owns builders for **every** zone it happens to see: the
parent round-robins raw chunks instead of routing by zone, which keeps
the parent's per-chunk work at one pipe send and parallelises the
dominant snap+scatter cost.  Difference-domain accumulation is exact and
order-independent, so the workers' partials merge bit-identically to a
single-builder build no matter how chunks were dealt.

This module must stay importable with no side effects: ``spawn`` workers
re-import it by qualified name.
"""

from __future__ import annotations

import os
from multiprocessing.connection import Connection

import numpy as np

from repro.geometry.snapping import snap_rects
from repro.grid.grid import Grid
from repro.ingest.accumulator import ZoneAccumulator
from repro.ingest.zones import ZoneMap

__all__ = ["build_worker_main", "snap_columns"]


def snap_columns(
    grid: Grid,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Snap raw world-coordinate MBR columns to lattice spans on ``grid``
    (the column counterpart of what ``add_dataset`` does internally)."""
    return snap_rects(
        grid.to_cell_units_x(np.asarray(x_lo, dtype=np.float64)),
        grid.to_cell_units_x(np.asarray(x_hi, dtype=np.float64)),
        grid.to_cell_units_y(np.asarray(y_lo, dtype=np.float64)),
        grid.to_cell_units_y(np.asarray(y_hi, dtype=np.float64)),
        grid.n1,
        grid.n2,
    )


def build_worker_main(
    worker_index: int,
    conn: Connection,
    zone_map: ZoneMap,
    budget_bytes: int,
    spill_dir: str,
    label: str,
) -> None:
    """Entry point of one zone-build worker process (see module docstring)."""
    try:
        try:
            accumulator = ZoneAccumulator(
                zone_map.grid, budget_bytes, spill_dir, label=label
            )
        except BaseException as exc:
            conn.send(("init_error", worker_index, repr(exc)))
            return
        conn.send(("ready", worker_index, os.getpid()))

        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Parent vanished; exit quietly.
                return
            kind = message[0]
            if kind == "stop":
                return
            if kind == "chunk":
                _, chunk_index, x_lo, x_hi, y_lo, y_hi = message
                try:
                    a_lo, a_hi, b_lo, b_hi = snap_columns(
                        zone_map.grid, x_lo, x_hi, y_lo, y_hi
                    )
                    zones = zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi)
                    accumulator.add_spans(zones, a_lo, a_hi, b_lo, b_hi)
                except BaseException as exc:
                    try:
                        conn.send(("error", chunk_index, repr(exc)))
                    except (BrokenPipeError, OSError):  # pragma: no cover
                        return
                    continue
                conn.send(("done", chunk_index, int(np.asarray(x_lo).size)))
            elif kind == "finish":
                try:
                    partials = accumulator.finish()
                    stats = {
                        "objects": accumulator.objects,
                        "spills": accumulator.spills,
                        "peak_bytes": accumulator.peak_bytes,
                    }
                    conn.send(("result", worker_index, partials, stats))
                except BaseException as exc:
                    try:
                        conn.send(("error", None, repr(exc)))
                    except (BrokenPipeError, OSError):  # pragma: no cover
                        return
            else:  # pragma: no cover - protocol guard
                conn.send(("error", None, f"unknown message {kind!r}"))
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
