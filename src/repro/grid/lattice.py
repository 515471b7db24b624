"""Lattice index algebra for the Euler histogram bucket array.

The Euler histogram is an array of shape ``(2*n_k - 1)`` per axis -- in 2-d
``(2*n1 - 1, 2*n2 - 1)`` -- indexed by lattice coordinates (see
:mod:`repro.geometry.snapping` for the coordinate system).  This module
centralises the index arithmetic used when reading the histogram:

- :func:`query_interior_slice` -- the buckets strictly inside an aligned
  query (used for ``n_ii``, Equation 12/14),
- :func:`query_boundary_slice` -- the buckets of the *closed* query region
  including its boundary lines (the complement of this region is "outside
  the query" for ``n_ei``, Equation 13/15),
- :func:`lattice_sign` -- the ``+1 / -1`` pattern that negates edge
  buckets (the histogram inversion step of Section 5.1), in any dimension.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.grid.tiles_math import TileQuery

__all__ = [
    "lattice_shape",
    "lattice_sign",
    "query_interior_slice",
    "query_boundary_slice",
]


def lattice_shape(n1: int, n2: int) -> tuple[int, int]:
    """Bucket-array shape for an ``n1 x n2`` grid."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"grid must have at least one cell per axis, got {n1}x{n2}")
    return (2 * n1 - 1, 2 * n2 - 1)


def lattice_sign(shape: Sequence[int]) -> np.ndarray:
    """The edge-negation pattern of Section 5.1 as a ``+1/-1`` int8 array
    over a lattice of the given shape, in any dimension.

    An element with ``k`` odd lattice coordinates is a codimension-``k``
    face of the grid's cell complex and carries ``(-1)^k``.  In 2-d, cells
    (both coordinates even) and vertices (both odd) carry ``+1`` and edges
    ``-1``, so that summing a region of the histogram evaluates
    ``V_i - E_i + F_i`` (Corollary 4.1); in 3-d cells and edges are ``+``,
    faces and vertices ``-``.  Every dimension sums to 1 over the whole
    lattice: the interior Euler characteristic of one grid block.
    """
    sign = np.ones((), dtype=np.int8)
    for axis, size in enumerate(shape):
        axis_sign = (1 - 2 * (np.arange(size) % 2)).astype(np.int8)
        sign = sign * axis_sign.reshape([-1 if k == axis else 1 for k in range(len(shape))])
    return sign


def query_interior_slice(query: TileQuery) -> tuple[slice, slice]:
    """Bucket slice strictly inside the open query region.

    The interior of the closed query ``[qx_lo, qx_hi] x [qy_lo, qy_hi]``
    covers cells ``qx_lo .. qx_hi - 1`` (lattice ``2*qx_lo .. 2*qx_hi - 2``)
    and the interior grid lines strictly between the query's boundary lines
    -- together exactly the even/odd lattice coordinates in that inclusive
    range.
    """
    return (
        slice(2 * query.qx_lo, 2 * query.qx_hi - 1),
        slice(2 * query.qy_lo, 2 * query.qy_hi - 1),
    )


def query_boundary_slice(query: TileQuery, n1: int, n2: int) -> tuple[slice, slice]:
    """Bucket slice of the *closed* query region: interior plus the
    boundary lines of the query.

    The boundary line ``x = qx_lo`` has lattice coordinate
    ``2*qx_lo - 1``; when the query touches the data-space boundary that
    line is not part of the lattice and the slice is clipped.  Everything
    outside this slice is "outside the query" for the purpose of
    ``n_ei = sum of buckets outside the query`` (Equation 13): buckets on
    the query boundary belong to neither the interior nor the exterior.
    """
    shape = lattice_shape(n1, n2)
    a_start = max(2 * query.qx_lo - 1, 0)
    a_stop = min(2 * query.qx_hi, shape[0])
    b_start = max(2 * query.qy_lo - 1, 0)
    b_stop = min(2 * query.qy_hi, shape[1])
    return (slice(a_start, a_stop), slice(b_start, b_stop))
