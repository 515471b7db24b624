"""Unit tests for the lattice index algebra."""

import numpy as np
import pytest

from repro.grid.lattice import (
    lattice_shape,
    lattice_sign,
    query_boundary_slice,
    query_interior_slice,
)
from repro.grid.tiles_math import TileQuery


class TestLatticeShape:
    def test_shape(self):
        assert lattice_shape(3, 3) == (5, 5)
        assert lattice_shape(360, 180) == (719, 359)

    def test_single_cell(self):
        assert lattice_shape(1, 1) == (1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            lattice_shape(0, 3)


class TestSignMatrix:
    def test_pattern_3x3(self):
        signs = lattice_sign((3, 3))
        expected = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]], dtype=np.int8)
        np.testing.assert_array_equal(signs, expected)

    def test_faces_and_vertices_positive_edges_negative(self):
        signs = lattice_sign((7, 5))
        assert (signs[::2, ::2] == 1).all()    # faces
        assert (signs[1::2, 1::2] == 1).all()  # vertices
        assert (signs[1::2, ::2] == -1).all()  # vertical-line edges
        assert (signs[::2, 1::2] == -1).all()  # horizontal-line edges

    def test_sum_is_one(self):
        # V - E + F over the full interior lattice of an n1 x n2 region is
        # 1 (Corollary 4.1 applied to the whole data space).
        for n1, n2 in [(1, 1), (2, 3), (5, 4), (7, 7)]:
            assert int(lattice_sign(lattice_shape(n1, n2)).sum()) == 1


class TestSlices:
    def test_interior_slice_unit_query(self):
        q = TileQuery(2, 3, 1, 2)
        a, b = query_interior_slice(q)
        assert (a.start, a.stop) == (4, 5)
        assert (b.start, b.stop) == (2, 3)

    def test_interior_slice_matches_example(self):
        # Query covering cells [1,3) x [0,2): interior lattice 2..4 x 0..2.
        a, b = query_interior_slice(TileQuery(1, 3, 0, 2))
        assert (a.start, a.stop) == (2, 5)
        assert (b.start, b.stop) == (0, 3)

    def test_boundary_slice_interior_query(self):
        a, b = query_boundary_slice(TileQuery(1, 3, 1, 2), 5, 5)
        assert (a.start, a.stop) == (1, 6)
        assert (b.start, b.stop) == (1, 4)

    def test_boundary_slice_clipped_at_data_space(self):
        a, b = query_boundary_slice(TileQuery(0, 2, 0, 5), 5, 5)
        assert (a.start, a.stop) == (0, 4)
        assert (b.start, b.stop) == (0, 9)

    def test_boundary_contains_interior(self):
        for q in [TileQuery(0, 1, 0, 1), TileQuery(2, 4, 1, 5), TileQuery(0, 5, 0, 5)]:
            ai, bi = query_interior_slice(q)
            ab, bb = query_boundary_slice(q, 5, 5)
            assert ab.start <= ai.start and ai.stop <= ab.stop
            assert bb.start <= bi.start and bi.stop <= bb.stop
