"""Grid model: data-space gridding, tiles and lattice index algebra."""

from repro.grid.grid import Grid
from repro.grid.grid_nd import BoxQuery, GridND
from repro.grid.lattice import (
    lattice_shape,
    lattice_sign,
    query_boundary_slice,
    query_interior_slice,
)
from repro.grid.tiles_math import TileQuery, TileQueryBatch, aligned_query_cells

__all__ = [
    "Grid",
    "GridND",
    "BoxQuery",
    "TileQuery",
    "TileQueryBatch",
    "aligned_query_cells",
    "lattice_shape",
    "lattice_sign",
    "query_interior_slice",
    "query_boundary_slice",
]
