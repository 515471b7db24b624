"""d-dimensional difference-array accumulator.

Adding ``+1`` to every array element inside a box, for millions of boxes,
is the construction workload of every histogram in this library (Euler,
cell-count, exact tilings).  The classic difference-array trick makes the
whole batch cost ``O(M + buckets)``: each box contributes ``2^d`` signed
corner updates to a scratch array one element larger per axis, whose
d-fold prefix sum is the final result.

Corner updates are applied with ``np.add.at`` on the flattened scratch, so
a vectorised batch of a million boxes is ``2^d`` scatter-adds.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

__all__ = ["DifferenceArray"]


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an integer array; anything else raises ``ValueError``.

    Float corners would land on truncated cells and float weights on
    truncated counts, so both are refused instead of cast.
    """
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}; refusing to truncate")
    return arr


class DifferenceArray:
    """Accumulates "+w over an inclusive box" updates in d dimensions and
    materialises the dense result on demand."""

    def __init__(self, shape: Sequence[int], dtype: np.dtype | type = np.int64) -> None:
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 1 for s in shape):
            raise ValueError(f"shape must be non-empty and positive, got {shape}")
        self._shape = shape
        # One extra element per axis catches the "past the end" corner updates.
        self._scratch = np.zeros(tuple(s + 1 for s in shape), dtype=dtype)
        self._strides = tuple(s // self._scratch.itemsize for s in self._scratch.strides)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by the scratch array (the accumulator's whole
        footprint; the out-of-core builder budgets against this)."""
        return int(self._scratch.nbytes)

    def merge(self, other: "DifferenceArray") -> None:
        """Fold another accumulator's updates into this one.

        Box additions are linear in the scratch array, so summing two
        scratch arrays element-wise is exactly equivalent to replaying
        every :meth:`add_boxes` call of ``other`` on ``self`` -- the
        primitive behind merging partial histogram builds.  Both
        accumulators must share shape and dtype; ``other`` is left
        untouched.
        """
        if other._shape != self._shape:
            raise ValueError(
                f"cannot merge accumulators of different shapes "
                f"{self._shape} vs {other._shape}"
            )
        if other._scratch.dtype != self._scratch.dtype:
            raise ValueError(
                f"cannot merge accumulators of different dtypes "
                f"{self._scratch.dtype} vs {other._scratch.dtype}"
            )
        self._scratch += other._scratch

    def patch(self, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
        """A copy of the scratch region covering the inclusive element box
        ``[lo, hi]`` (one integer per axis on each side).

        The returned patch is one element longer than the box on every
        axis: the extra element catches the "past the end" corner updates
        of boxes ending at ``hi``.  If every box ever added lies inside
        the element box, the patch carries the accumulator's *entire*
        state -- this is what the out-of-core builder spills for a zone
        whose spans stay inside its bounding box.
        """
        lo, hi = self._check_boxes(lo, hi)
        return self._scratch[tuple(slice(a, b + 2) for a, b in zip(lo, hi))].copy()

    def add_patch(self, offset: Sequence[int], patch: np.ndarray) -> None:
        """Add a scratch patch (from :meth:`patch`) at element ``offset``.

        The inverse of :meth:`patch`: pasting a partial accumulator's
        patch into a full-size accumulator replays the partial's updates
        exactly (difference-domain addition is linear).  Float patches
        are rejected like float corners -- silent truncation would
        corrupt the counts.
        """
        patch = _integers(patch, "patch")
        if patch.ndim != self.ndim:
            raise ValueError(f"patch must be {self.ndim}-d, got {patch.ndim}-d")
        offset = tuple(int(v) for v in offset)
        if len(offset) != self.ndim or min(offset) < 0:
            raise IndexError(f"patch offset {offset} is not a non-negative {self.ndim}-d index")
        if any(o + n > s for o, n, s in zip(offset, patch.shape, self._scratch.shape)):
            raise IndexError(
                f"patch of shape {patch.shape} at {offset} exceeds "
                f"the accumulator shape {self._shape}"
            )
        self._scratch[tuple(slice(o, o + n) for o, n in zip(offset, patch.shape))] += patch

    def add_boxes(
        self,
        lo: Sequence[np.ndarray],
        hi: Sequence[np.ndarray],
        weights: np.ndarray | int = 1,
    ) -> None:
        """Add ``weights`` to every element of each inclusive box.

        ``lo`` and ``hi`` hold one integer array per axis, all of one
        shape (a single box is a batch of scalars); ``weights`` is an
        integer scalar or an array of that shape.
        """
        lo, hi = self._check_boxes(lo, hi)
        w = _integers(weights, "weights")
        if w.ndim and w.shape != lo[0].shape:
            raise ValueError("weights must be scalar or match the box arrays' shape")
        if lo[0].size == 0:
            return
        # Each of the 2^d corners takes, per axis, the box's low coordinate
        # or the one just past its high end, and carries sign
        # (-1)^(#past-the-end axes).  The scratch is C-contiguous, so the
        # last axis has stride 1 and the flat index needs no multiply there.
        flat = self._scratch.reshape(-1)
        for corner in itertools.product((0, 1), repeat=self.ndim):
            coords = [b + 1 if bit else a for a, b, bit in zip(lo, hi, corner)]
            idx = coords[-1]
            for coord, stride in zip(coords[:-1], self._strides):
                idx = coord * stride + idx
            (np.subtract if sum(corner) % 2 else np.add).at(flat, idx, w)

    def _check_boxes(
        self, lo: Sequence[np.ndarray], hi: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        if len(lo) != self.ndim or len(hi) != self.ndim:
            raise ValueError(
                f"expected {self.ndim} corner arrays per side, got {len(lo)} / {len(hi)}"
            )
        lo = [_integers(a, "box corners").astype(np.int64, copy=False) for a in lo]
        hi = [_integers(b, "box corners").astype(np.int64, copy=False) for b in hi]
        if len({a.shape for a in lo + hi}) != 1:
            raise ValueError("box corner arrays must share one shape")
        if lo[0].size == 0:
            return lo, hi
        if any(int(a.min()) < 0 or int(b.max()) >= s for a, b, s in zip(lo, hi, self._shape)):
            raise IndexError(f"some boxes exceed the array shape {self._shape}")
        if any(np.any(b < a) for a, b in zip(lo, hi)):
            raise ValueError("boxes must be non-empty (hi >= lo on every axis)")
        return lo, hi

    def materialize(self) -> np.ndarray:
        """Dense result array of :attr:`shape`.

        The accumulator remains usable; further updates compose with the
        boxes already added.
        """
        dense = self._scratch
        for axis in range(self.ndim):
            dense = np.cumsum(dense, axis=axis)
        return dense[tuple(slice(0, s) for s in self._shape)].copy()
