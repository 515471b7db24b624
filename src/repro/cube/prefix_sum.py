"""The prefix-sum data cube of Ho, Agrawal, Megiddo & Srikant (SIGMOD'97).

This is the query-side substrate of every histogram in the library: given a
d-dimensional array ``A``, the cube stores ``P[i] = sum(A[0..i])`` (with a
zero-padded border) so that the sum of any axis-aligned box of ``A`` costs
``2^d`` lookups and ``2^d - 1`` additions -- constant time per query, the
property the paper leans on for its "constant query response time" claims
(Sections 2 and 5.2).

The implementation is dimension-generic: the Euler histogram uses it in
any dimension (d=2 to serve, 1/3/4-d in tests and the spatio-temporal
example), and a 2-d cube answers through the four-lookup
:meth:`PrefixSumCube.range_sum_2d`.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

__all__ = ["PrefixSumCube"]


class PrefixSumCube:
    """Immutable prefix-sum cube over a dense d-dimensional array.

    Parameters
    ----------
    values:
        The source array ``A``.  A copy is cumulated; the source is not
        retained.  Integer inputs are widened to int64 to make overflow a
        non-issue for realistic dataset sizes (sums of at most ~2^63).
    """

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.ndim < 1:
            raise ValueError("PrefixSumCube requires an array of dimension >= 1")
        dtype = np.int64 if np.issubdtype(values.dtype, np.integer) else np.float64
        # Zero-pad one layer at the low end of every axis so that range-sum
        # corner lookups never need boundary special cases.
        padded_shape = tuple(s + 1 for s in values.shape)
        cum = np.zeros(padded_shape, dtype=dtype)
        cum[tuple(slice(1, None) for _ in values.shape)] = values
        for axis in range(values.ndim):
            np.cumsum(cum, axis=axis, out=cum)
        self._cum = cum
        self._shape = values.shape
        # The dtype-correct zero returned for empty boxes, built once here
        # rather than per call (the scalar range sums are hot paths).
        self._zero: int | float = cum.dtype.type(0).item()

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the source array."""
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def nbytes(self) -> int:
        """Storage footprint of the cumulative array."""
        return int(self._cum.nbytes)

    @property
    def total(self) -> int | float:
        """Sum of the entire source array."""
        return self._cum[tuple(-1 for _ in self._shape)].item()

    def range_sum(self, lo: Sequence[int], hi: Sequence[int]) -> int | float:
        """Sum of the source box ``[lo, hi]`` (inclusive on both ends).

        An empty box (any ``hi[k] < lo[k]``) sums to zero whatever its
        other bounds, which lets callers pass degenerate regions (e.g. a
        Region-A slab of height 0 when the query touches the data-space
        boundary) without guards.  A 2-d cube answers through
        :meth:`range_sum_2d`'s four lookups.
        """
        shape = self._shape
        ndim = len(shape)
        if len(lo) != ndim or len(hi) != ndim:
            raise ValueError(f"expected {ndim}-d corners, got {lo} / {hi}")
        if ndim == 2:
            return self.range_sum_2d(lo[0], hi[0], lo[1], hi[1])
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        if any(hi_k < lo_k for lo_k, hi_k in zip(lo, hi)):
            return self._zero
        if any(lo_k < 0 or hi_k >= s for lo_k, hi_k, s in zip(lo, hi, shape)):
            raise IndexError(f"box [{lo}, {hi}] exceeds array shape {shape}")

        # Inclusion-exclusion over the 2^d corners of the padded cube,
        # accumulated in Python scalars (exact for int64; identical IEEE
        # order for float64) -- cheaper than a chain of numpy scalar ops.
        cum = self._cum
        total = self._zero
        for corner in itertools.product((0, 1), repeat=ndim):
            idx = tuple(hi[k] + 1 if bit else lo[k] for k, bit in enumerate(corner))
            sign = 1 if (ndim - sum(corner)) % 2 == 0 else -1
            total = total + sign * cum[idx].item()
        return total

    def range_sum_2d(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> int | float:
        """Specialised 2-d inclusive range sum (the hot path).

        Identical to ``range_sum((a_lo, b_lo), (a_hi, b_hi))`` but without
        the generic corner loop: four lookups and three additions, exactly
        the operation count quoted in Section 5.2.
        """
        shape = self._shape
        if len(shape) != 2:
            raise ValueError("range_sum_2d requires a 2-d cube")
        if a_hi < a_lo or b_hi < b_lo:
            return self._zero
        if a_lo < 0 or b_lo < 0 or a_hi >= shape[0] or b_hi >= shape[1]:
            raise IndexError(
                f"box [({a_lo},{b_lo}), ({a_hi},{b_hi})] exceeds array shape {shape}"
            )
        # Pull the four corners into Python scalars once and combine them
        # with Python arithmetic (exact for int64, IEEE-identical for
        # float64) -- measurably faster than numpy-scalar chaining.
        cum = self._cum
        a1 = a_hi + 1
        b1 = b_hi + 1
        return (
            cum[a1, b1].item() - cum[a_lo, b1].item() - cum[a1, b_lo].item() + cum[a_lo, b_lo].item()
        )

    def range_sum_2d_batch(
        self,
        a_lo: np.ndarray,
        a_hi: np.ndarray,
        b_lo: np.ndarray,
        b_hi: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`range_sum_2d` over arrays of box corners.

        All four operands are broadcast against each other; the result has
        the broadcast shape and the cube's dtype.  Empty boxes
        (``a_hi < a_lo`` or ``b_hi < b_lo``) sum to zero, mirroring the
        scalar method, and bounds are validated once for the whole batch
        (only non-empty boxes constrain the bounds).  The whole batch is
        answered with four fancy-indexed gathers -- no per-query Python
        work -- which is what makes a browse raster O(1) numpy calls.
        """
        shape = self._shape
        if len(shape) != 2:
            raise ValueError("range_sum_2d_batch requires a 2-d cube")
        a_lo, a_hi, b_lo, b_hi = np.broadcast_arrays(
            np.asarray(a_lo, dtype=np.intp),
            np.asarray(a_hi, dtype=np.intp),
            np.asarray(b_lo, dtype=np.intp),
            np.asarray(b_hi, dtype=np.intp),
        )
        empty = (a_hi < a_lo) | (b_hi < b_lo)
        nonempty = ~empty
        if (
            a_lo.min(where=nonempty, initial=0) < 0
            or b_lo.min(where=nonempty, initial=0) < 0
            or a_hi.max(where=nonempty, initial=-1) >= shape[0]
            or b_hi.max(where=nonempty, initial=-1) >= shape[1]
        ):
            raise IndexError(f"batch contains a box exceeding array shape {shape}")
        # Collapse empty boxes onto the padded cube's zero corner so the
        # inclusion-exclusion below yields exactly 0 for them without a
        # masking pass afterwards.
        a0 = np.where(empty, 0, a_lo)
        a1 = np.where(empty, 0, a_hi + 1)
        b0 = np.where(empty, 0, b_lo)
        b1 = np.where(empty, 0, b_hi + 1)
        cum = self._cum
        return cum[a1, b1] - cum[a0, b1] - cum[a1, b0] + cum[a0, b0]
