"""Tests for the difference-array accumulator in 1, 3 and 4 dimensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.difference import DifferenceArray


class TestBasics:
    def test_1d(self):
        acc = DifferenceArray((5,))
        acc.add_boxes((1,), (3,))
        np.testing.assert_array_equal(acc.materialize(), [0, 1, 1, 1, 0])

    def test_3d_single_box(self):
        acc = DifferenceArray((3, 3, 3))
        acc.add_boxes((0, 1, 2), (1, 2, 2))
        dense = acc.materialize()
        expected = np.zeros((3, 3, 3), dtype=np.int64)
        expected[0:2, 1:3, 2:3] = 1
        np.testing.assert_array_equal(dense, expected)

    def test_weights(self):
        acc = DifferenceArray((2, 2))
        acc.add_boxes(
            (np.array([0, 0]), np.array([0, 0])),
            (np.array([1, 0]), np.array([1, 0])),
            np.array([2, 3]),
        )
        dense = acc.materialize()
        assert dense[0, 0] == 5
        assert dense[1, 1] == 2

    def test_empty_batch(self):
        acc = DifferenceArray((4, 4))
        empty = np.zeros(0, dtype=np.int64)
        acc.add_boxes((empty, empty), (empty, empty))
        assert acc.materialize().sum() == 0

    def test_validation(self):
        acc = DifferenceArray((3, 3))
        with pytest.raises(ValueError):
            DifferenceArray(())
        with pytest.raises(ValueError):
            DifferenceArray((0, 3))
        with pytest.raises(IndexError):
            acc.add_boxes((0, 0), (3, 0))
        with pytest.raises(ValueError):
            acc.add_boxes((2, 0), (1, 0))
        zeros = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            acc.add_boxes((zeros, zeros, zeros), (zeros, zeros, zeros))
        with pytest.raises(ValueError):
            acc.add_boxes((zeros, zeros), (zeros, zeros), weights=np.zeros(3, dtype=np.int64))


@st.composite
def nd_boxes(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    num = draw(st.integers(0, 15))
    boxes = []
    for _ in range(num):
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        hi = [draw(st.integers(lo[k], shape[k] - 1)) for k in range(ndim)]
        boxes.append((lo, hi))
    return shape, boxes


@settings(max_examples=120)
@given(nd_boxes())
def test_matches_naive(case):
    shape, boxes = case
    acc = DifferenceArray(shape)
    naive = np.zeros(shape, dtype=np.int64)
    for lo, hi in boxes:
        acc.add_boxes(lo, hi)
        naive[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] += 1
    np.testing.assert_array_equal(acc.materialize(), naive)


@settings(max_examples=60)
@given(nd_boxes(), st.data())
def test_batch_equals_one_box_at_a_time(case, data):
    """One weighted batch scatters exactly what the same boxes add one at
    a time, for d = 1 to 4."""
    shape, boxes = case
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(boxes), max_size=len(boxes)))
    batch = DifferenceArray(shape)
    single = DifferenceArray(shape)
    columns = np.array([lo + hi for lo, hi in boxes], dtype=np.int64).reshape(-1, 2 * len(shape))
    d = len(shape)
    batch.add_boxes(columns.T[:d], columns.T[d:], np.array(weights, dtype=np.int64))
    for (lo, hi), w in zip(boxes, weights):
        single.add_boxes(lo, hi, w)
    np.testing.assert_array_equal(batch.materialize(), single.materialize())
