"""Property and unit tests for the HAMS97 prefix-sum cube."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cube.prefix_sum import PrefixSumCube


class TestBasics:
    def test_total(self):
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        assert cube.total == 66

    def test_shape_and_ndim(self):
        cube = PrefixSumCube(np.zeros((3, 4, 5)))
        assert cube.shape == (3, 4, 5)
        assert cube.ndim == 3

    def test_scalar_input_rejected(self):
        with pytest.raises(ValueError):
            PrefixSumCube(np.array(5))

    def test_single_element(self):
        cube = PrefixSumCube(np.array([7]))
        assert cube.range_sum((0,), (0,)) == 7

    def test_empty_box_sums_to_zero(self):
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        assert cube.range_sum((2, 2), (1, 3)) == 0
        assert cube.range_sum_2d(2, 1, 0, 3) == 0

    def test_empty_axis_wins_over_bounds_on_any_axis(self):
        """A box empty on any axis sums to 0 before any bound is checked,
        whichever axis is empty, in 2-d (like ``range_sum_2d``) and 3-d."""
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        assert cube.range_sum((-1, 2), (1, 1)) == 0 == cube.range_sum_2d(-1, 1, 2, 1)
        cube3 = PrefixSumCube(np.ones((2, 3, 4), dtype=np.int64))
        assert cube3.range_sum((-1, 2, 0), (1, 1, 2)) == 0
        assert cube3.range_sum((0, 2, -5), (1, 1, 9)) == 0

    def test_out_of_bounds_raises(self):
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        with pytest.raises(IndexError):
            cube.range_sum((0, 0), (3, 3))
        with pytest.raises(IndexError):
            cube.range_sum_2d(-1, 2, 0, 3)

    def test_wrong_arity(self):
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        with pytest.raises(ValueError):
            cube.range_sum((0,), (1,))

    def test_range_sum_2d_requires_2d(self):
        cube = PrefixSumCube(np.arange(4))
        with pytest.raises(ValueError):
            cube.range_sum_2d(0, 1, 0, 1)

    def test_negative_values(self):
        values = np.array([[1, -2], [-3, 4]])
        cube = PrefixSumCube(values)
        assert cube.range_sum_2d(0, 1, 0, 1) == 0
        assert cube.range_sum_2d(0, 0, 0, 1) == -1

    def test_float_input(self):
        cube = PrefixSumCube(np.array([0.5, 1.5, 2.0]))
        assert cube.range_sum((1,), (2,)) == pytest.approx(3.5)

    def test_int_inputs_do_not_overflow_int32(self):
        values = np.full((100, 100), 2**31 - 1, dtype=np.int32)
        cube = PrefixSumCube(values)
        assert cube.total == (2**31 - 1) * 10_000

    def test_nbytes_positive(self):
        assert PrefixSumCube(np.zeros((5, 5))).nbytes > 0


@st.composite
def array_and_box(draw, max_dims=3):
    ndim = draw(st.integers(min_value=1, max_value=max_dims))
    shape = tuple(draw(st.integers(min_value=1, max_value=6)) for _ in range(ndim))
    values = draw(
        hnp.arrays(np.int64, shape, elements=st.integers(min_value=-50, max_value=50))
    )
    lo = tuple(draw(st.integers(min_value=0, max_value=s - 1)) for s in shape)
    hi = tuple(
        draw(st.integers(min_value=lo[k], max_value=shape[k] - 1)) for k in range(ndim)
    )
    return values, lo, hi


@settings(max_examples=200)
@given(array_and_box())
def test_range_sum_matches_numpy_slice(case):
    values, lo, hi = case
    cube = PrefixSumCube(values)
    box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    assert cube.range_sum(lo, hi) == int(values[box].sum())


@settings(max_examples=200)
@given(array_and_box(max_dims=2))
def test_range_sum_2d_matches_generic(case):
    values, lo, hi = case
    if values.ndim != 2:
        return
    cube = PrefixSumCube(values)
    assert cube.range_sum_2d(lo[0], hi[0], lo[1], hi[1]) == cube.range_sum(lo, hi)


@given(array_and_box())
def test_total_matches_sum(case):
    values, _, _ = case
    assert PrefixSumCube(values).total == int(values.sum())


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(7)
        values = rng.integers(-50, 50, size=(9, 13))
        cube = PrefixSumCube(values)
        a_lo = rng.integers(0, 9, size=200)
        a_hi = rng.integers(0, 9, size=200)
        b_lo = rng.integers(0, 13, size=200)
        b_hi = rng.integers(0, 13, size=200)
        got = cube.range_sum_2d_batch(a_lo, a_hi, b_lo, b_hi)
        assert got.dtype == np.int64
        for i in range(200):
            assert got[i] == cube.range_sum_2d(
                int(a_lo[i]), int(a_hi[i]), int(b_lo[i]), int(b_hi[i])
            )

    def test_empty_boxes_sum_to_zero(self):
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        got = cube.range_sum_2d_batch([2, 0], [1, 2], [0, 3], [3, 2])
        np.testing.assert_array_equal(got, [0, 0])

    def test_empty_boxes_skip_bounds_check(self):
        # Scalar range_sum_2d returns 0 for empty boxes before bounds
        # checking; the batch path must accept the same degenerate corners
        # (e.g. Region-B slabs clipped to hi = lo - 1 at the boundary).
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        got = cube.range_sum_2d_batch([0], [-1], [0], [3])
        np.testing.assert_array_equal(got, [0])

    def test_out_of_bounds_raises(self):
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        with pytest.raises(IndexError):
            cube.range_sum_2d_batch([0, 0], [2, 3], [0, 0], [3, 3])
        with pytest.raises(IndexError):
            cube.range_sum_2d_batch([-1], [2], [0], [3])

    def test_requires_2d(self):
        cube = PrefixSumCube(np.arange(4))
        with pytest.raises(ValueError):
            cube.range_sum_2d_batch([0], [1], [0], [1])

    def test_broadcasting(self):
        values = np.arange(12).reshape(3, 4)
        cube = PrefixSumCube(values)
        # Scalar lows against an array of highs.
        got = cube.range_sum_2d_batch(0, [0, 1, 2], 0, 3)
        expected = [values[:1].sum(), values[:2].sum(), values.sum()]
        np.testing.assert_array_equal(got, expected)

    def test_float_dtype(self):
        cube = PrefixSumCube(np.array([[0.5, 1.5], [2.0, 4.0]]))
        got = cube.range_sum_2d_batch([0], [1], [0], [1])
        assert got.dtype == np.float64
        assert got[0] == pytest.approx(8.0)

    def test_empty_batch(self):
        cube = PrefixSumCube(np.arange(12).reshape(3, 4))
        got = cube.range_sum_2d_batch([], [], [], [])
        assert got.shape == (0,)


@settings(max_examples=100)
@given(array_and_box(max_dims=2))
def test_batch_matches_scalar_property(case):
    values, lo, hi = case
    if values.ndim != 2:
        return
    cube = PrefixSumCube(values)
    got = cube.range_sum_2d_batch([lo[0]], [hi[0]], [lo[1]], [hi[1]])
    assert got[0] == cube.range_sum_2d(lo[0], hi[0], lo[1], hi[1])
