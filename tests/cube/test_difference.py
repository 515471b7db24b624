"""Tests for the difference-array accumulator in 2-d."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.difference import DifferenceArray


class TestBasics:
    def test_single_box(self):
        acc = DifferenceArray((4, 3))
        acc.add_boxes((1, 0), (2, 1))
        expected = np.zeros((4, 3), dtype=np.int64)
        expected[1:3, 0:2] = 1
        np.testing.assert_array_equal(acc.materialize(), expected)

    def test_full_array_box(self):
        acc = DifferenceArray((3, 3))
        acc.add_boxes((0, 0), (2, 2), weights=5)
        np.testing.assert_array_equal(acc.materialize(), np.full((3, 3), 5))

    def test_overlapping_boxes_accumulate(self):
        acc = DifferenceArray((3, 3))
        acc.add_boxes((0, 0), (1, 1))
        acc.add_boxes((1, 1), (2, 2))
        result = acc.materialize()
        assert result[1, 1] == 2
        assert result[0, 0] == 1
        assert result[2, 0] == 0

    def test_negative_weight_removes(self):
        acc = DifferenceArray((3, 3))
        acc.add_boxes((0, 0), (2, 2))
        acc.add_boxes((0, 0), (2, 2), weights=-1)
        np.testing.assert_array_equal(acc.materialize(), np.zeros((3, 3), dtype=np.int64))

    def test_materialize_is_repeatable_and_composable(self):
        acc = DifferenceArray((2, 2))
        acc.add_boxes((0, 0), (0, 0))
        first = acc.materialize()
        acc.add_boxes((1, 1), (1, 1))
        second = acc.materialize()
        assert first[0, 0] == 1 and first[1, 1] == 0
        assert second[0, 0] == 1 and second[1, 1] == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DifferenceArray((0, 3))

    def test_rejects_out_of_bounds(self):
        acc = DifferenceArray((3, 3))
        with pytest.raises(IndexError):
            acc.add_boxes((0, 0), (3, 1))
        with pytest.raises(IndexError):
            acc.add_boxes((np.array([-1]), np.array([0])), (np.array([0]), np.array([0])))

    def test_rejects_empty_box(self):
        acc = DifferenceArray((3, 3))
        with pytest.raises(ValueError):
            acc.add_boxes((np.array([2]), np.array([0])), (np.array([1]), np.array([0])))

    def test_rejects_mismatched_arrays(self):
        acc = DifferenceArray((3, 3))
        with pytest.raises(ValueError):
            acc.add_boxes((np.array([0, 1]), np.array([0, 0])), (np.array([1]), np.array([1, 1])))

    def test_empty_batch_is_noop(self):
        acc = DifferenceArray((3, 3))
        empty = np.zeros(0, dtype=np.int64)
        acc.add_boxes((empty, empty), (empty, empty))
        assert acc.materialize().sum() == 0

    def test_weights_array(self):
        acc = DifferenceArray((2, 2))
        acc.add_boxes(
            (np.array([0, 0]), np.array([0, 0])),
            (np.array([0, 1]), np.array([0, 1])),
            weights=np.array([3, 2]),
        )
        result = acc.materialize()
        assert result[0, 0] == 5
        assert result[1, 1] == 2

    def test_rejects_float_corners_weights_and_patches(self):
        """Floats would be truncated (corners 0.9 and 1.9 landing on cells
        0 and 1, a weight of 0.7 or 0.5 adding nothing), so every integer
        input refuses them and leaves the accumulator untouched."""
        acc = DifferenceArray((3, 3))
        ints = (np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="integers"):
            acc.add_boxes((np.array([0.9]), np.array([0])), (np.array([1.9]), np.array([2])))
        with pytest.raises(ValueError, match="integers"):
            acc.add_boxes(ints, (np.array([2]), np.array([2.0])))
        with pytest.raises(ValueError, match="integers"):
            acc.add_boxes((0, 0), (2, 2), weights=np.array(0.7))
        with pytest.raises(ValueError, match="integers"):
            acc.add_boxes((0, 0), (2, 2), weights=0.5)
        with pytest.raises(ValueError, match="integers"):
            acc.add_boxes(ints, ints, weights=np.array([0.7]))
        with pytest.raises(ValueError, match="integers"):
            acc.add_patch((0, 0), np.ones((2, 2)))
        assert not acc.materialize().any()


boxes = st.lists(
    st.tuples(
        st.integers(0, 7), st.integers(0, 7), st.integers(0, 5), st.integers(0, 5)
    ).map(lambda t: (min(t[0], t[1]), max(t[0], t[1]), min(t[2], t[3]), max(t[2], t[3]))),
    min_size=0,
    max_size=40,
)


@settings(max_examples=150)
@given(boxes)
def test_matches_naive_accumulation(box_list):
    acc = DifferenceArray((8, 6))
    naive = np.zeros((8, 6), dtype=np.int64)
    for a_lo, a_hi, b_lo, b_hi in box_list:
        naive[a_lo : a_hi + 1, b_lo : b_hi + 1] += 1
    if box_list:
        arr = np.array(box_list)
        acc.add_boxes((arr[:, 0], arr[:, 2]), (arr[:, 1], arr[:, 3]))
    np.testing.assert_array_equal(acc.materialize(), naive)


@settings(max_examples=100)
@given(boxes)
def test_batch_equals_scalar_adds(box_list):
    batch = DifferenceArray((8, 6))
    scalar = DifferenceArray((8, 6))
    if box_list:
        arr = np.array(box_list)
        batch.add_boxes((arr[:, 0], arr[:, 2]), (arr[:, 1], arr[:, 3]))
    for a_lo, a_hi, b_lo, b_hi in box_list:
        scalar.add_boxes((a_lo, b_lo), (a_hi, b_hi))
    np.testing.assert_array_equal(batch.materialize(), scalar.materialize())
