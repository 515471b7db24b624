"""EulerApprox: the Euler Approximation algorithm (Section 5.3).

Handles datasets where objects may *contain* the query.  The obstacle is
the loophole effect: an object containing the query leaves the sum of the
buckets outside the query unchanged (its exterior footprint is a region
with a hole, ``V_i - E_i + F_i = 2 - k = 0`` by Corollary 4.2), so that sum
is only ``n'_ei`` -- it ignores containing objects.  A fourth equation is
obtained by splitting the query's exterior relative to **one edge of the
query** (Figure 11):

- extend the query to the data-space boundary across the chosen edge; for
  the left edge this is the band rectangle
  ``R = [0, qx_hi] x [qy_lo, qy_hi]``;
- **Region B** is the extension itself, ``[0, qx_lo] x [qy_lo, qy_hi]``;
- **Region A** is everything outside the closed band ``R`` -- a single
  connected, simply connected region wrapping around the other three sides.

Then ``N_i(A) + N_cs(B)`` approximates ``n_ei`` (the true
interior-vs-exterior count, containers included):

- ``N_i(A)``: each object/Region-A intersection piece adds 1 to the sum of
  the buckets inside A, and an object containing the query meets A in one
  connected piece (it wraps around the three non-extended sides), so
  containers are counted exactly once;
- ``N_cs(B)``: objects confined to the extension are invisible to A; they
  are recovered as "objects contained in B", which
  :meth:`EulerHistogram.contained_count` computes exactly because nothing
  can contain or cross a region touching the data-space boundary.

The residual errors are exactly the paper's O1/O2 pair, both tied to the
chosen edge: an object *containing that query edge* (overlapping the query
while sticking out above and below the band) meets A twice and is double
counted (O1), while an object *overlapping that edge only sideways*
(confined to the band, poking out of the query into B) is missed by both
terms (O2).  Section 5.4's observation -- longer query edges make O2 more
and O1 less likely -- follows directly.

The final system (Equations 18-22):

.. math::

    N_d    &= |S| - n_{ii} \\\\
    N_o    &= n'_{ei} - N_d \\\\
    N_{cd} &= N_i(A) + N_{cs}(B) - n'_{ei} \\\\
    N_{cs} &= |S| - N_{cd} - N_d - N_o

**d dimensions.**  The construction is the same on a d-dimensional
histogram (:meth:`EulerHistogram.from_boxes`): each query edge is a facet,
axis 0 or 1 on its low or high side, and Region B extends the query across
it.  What changes with d is the loophole arithmetic.  A container adds 1
to ``N_i(A)`` in every dimension (its intersection with the simply
connected wrap A is one contractible piece) but ``1 - (-1)^d`` to
``n'_ei`` (:meth:`RegionSums.outside_sum`).  Writing
``E = N_i(A) + N_cs(B)``, which approximates ``N_d + N_o + N_cd``:

- **even d** (the paper's d=2): ``n'_ei = N_d + N_o`` (containers vanish),
  so ``N_cd = E - n'_ei`` and ``N_o = n'_ei - N_d`` -- Equations 18-22;
- **odd d**: ``n'_ei = N_d + N_o + 2 N_cd`` (containers count twice), so
  ``N_cd = n'_ei - E`` -- the sign flips -- and
  ``N_o = n'_ei - N_d - 2 N_cd``.

Both inherit the O1/O2 residuals of the 2-d analysis along the chosen
facet.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.euler.estimates import Level2Counts, Level2CountsBatch
from repro.euler.histogram import EulerHistogram
from repro.grid.grid_nd import BoxQuery
from repro.grid.tiles_math import TileQuery, TileQueryBatch

__all__ = ["EulerApprox", "QueryEdge"]


class QueryEdge(Enum):
    """Which query edge the Region A/B split extends across.

    The paper fixes one edge implicitly (Figure 11); we expose the choice
    for the ablation benchmark.  ``LEFT`` extends the query to the
    data-space boundary on its left, and so on.

    ``ALL`` is this library's extension: average the four single-edge
    ``N_cd`` estimates.  For anisotropic datasets or workloads (e.g. long
    east-west objects) the four edges see different O1/O2 populations and
    averaging removes the orientation-dependent part of the error; for
    isotropic data it is a variance reducer only (each edge misses its own
    pokers, and the four poker populations have equal mass in
    expectation).  Cost: four times the (still constant) lookup work.
    """

    LEFT = "left"
    RIGHT = "right"
    BOTTOM = "bottom"
    TOP = "top"
    ALL = "all"


#: Each single edge as a facet: the axis it crosses and whether it is the
#: query's low side on that axis.  ``ALL`` averages them in this order.
_FACETS = {
    QueryEdge.LEFT: (0, True),
    QueryEdge.RIGHT: (0, False),
    QueryEdge.BOTTOM: (1, True),
    QueryEdge.TOP: (1, False),
}


def _split(lo, hi, axis: int, low_side: bool, boundary):
    """Per-axis corners of the band ``R`` (the query extended across one
    facet to the data-space ``boundary``) and of Region B (the extension),
    plus whether Region B is non-empty.

    ``lo``/``hi`` hold the query's cells per axis and ``boundary`` the
    boundary coordinate on ``axis`` (0 on the low side, ``n`` on the
    high side); all are ints for one query or equal-shape arrays for a
    batch.
    """
    side = lo[axis] if low_side else hi[axis]
    band_lo, band_hi, b_lo, b_hi = list(lo), list(hi), list(lo), list(hi)
    if low_side:
        band_lo[axis] = b_lo[axis] = boundary
        b_hi[axis] = side
    else:
        band_hi[axis] = b_hi[axis] = boundary
        b_lo[axis] = side
    return (band_lo, band_hi), (b_lo, b_hi), side != boundary


class EulerApprox:
    """Euler Approximation over one Euler histogram, of any dimension.

    Parameters
    ----------
    histogram:
        The dataset's Euler histogram.
    edge:
        The query edge used for the Region A/B split (default: left).  An
        edge on an axis the histogram lacks (``BOTTOM``/``TOP`` on a 1-d
        histogram) raises ``ValueError``; ``ALL`` averages the edges the
        histogram has.
    """

    def __init__(self, histogram: EulerHistogram, edge: QueryEdge = QueryEdge.LEFT) -> None:
        ndim = histogram.grid.ndim
        if edge is QueryEdge.ALL:
            edges = tuple(e for e, (axis, _) in _FACETS.items() if axis < ndim)
        else:
            axis = _FACETS[edge][0]
            if axis >= ndim:
                raise ValueError(
                    f"edge {edge.value} splits axis {axis}, which a {ndim}-d histogram lacks"
                )
            edges = (edge,)
        self._hist = histogram
        self._edge = edge
        self._edges = edges
        self._odd = ndim % 2 == 1

    @property
    def name(self) -> str:
        return "EulerApprox"

    @property
    def histogram(self) -> EulerHistogram:
        return self._hist

    @property
    def edge(self) -> QueryEdge:
        return self._edge

    # ------------------------------------------------------------------ #
    # the parity rule (module docstring), shared by both paths
    # ------------------------------------------------------------------ #

    def _contained(self, split, n_ei_prime):
        """``N_cd`` from one split sum ``E = N_i(A) + N_cs(B)``."""
        return n_ei_prime - split if self._odd else split - n_ei_prime

    def _overlap(self, n_ei_prime, n_d, n_cd):
        """``N_o``: ``n'_ei`` counts ``N_d + N_o``, plus ``2 N_cd`` in odd d."""
        n_o = n_ei_prime - n_d
        return n_o - 2.0 * n_cd if self._odd else n_o

    # ------------------------------------------------------------------ #
    # scalar path
    # ------------------------------------------------------------------ #

    def _split_sum(self, query: TileQuery | BoxQuery, edge: QueryEdge) -> int:
        """``E = N_i(A) + N_cs(B)`` for one query and one edge."""
        hist = self._hist
        axis, low_side = _FACETS[edge]
        boundary = 0 if low_side else hist.grid.cells[axis]
        band, region_b, has_b = _split(query.lo, query.hi, axis, low_side, boundary)
        total = hist.total_sum
        n_i_a = total - hist._closed_sum(*band)
        n_cs_b = hist.num_objects - (total - hist._closed_sum(*region_b)) if has_b else 0
        return n_i_a + n_cs_b

    def _contained_estimate(self, query: TileQuery | BoxQuery, n_ei_prime: int) -> float:
        """``N_cd`` (Equation 21) given the query's ``n'_ei``."""
        singles = [
            float(self._contained(self._split_sum(query, edge), n_ei_prime))
            for edge in self._edges
        ]
        return sum(singles) / len(singles)

    def contained_in_query_estimate(self, query: TileQuery | BoxQuery) -> float:
        """The ``N_cd`` estimate alone (Equation 21)."""
        return self._contained_estimate(query, self._hist.outside_sum(query))

    def estimate(self, query: TileQuery | BoxQuery) -> Level2Counts:
        """Estimate the Level-2 counts for one aligned query."""
        query.validate_against(self._hist.grid)
        n_total = self._hist.num_objects
        n_ii = self._hist.intersect_count(query)
        n_ei_prime = self._hist.outside_sum(query)

        n_d = float(n_total - n_ii)
        n_cd = self._contained_estimate(query, n_ei_prime)
        n_o = self._overlap(n_ei_prime, n_d, n_cd)
        n_cs = float(n_total) - n_cd - n_d - n_o
        return Level2Counts(n_d=n_d, n_cs=n_cs, n_cd=n_cd, n_o=n_o)

    # ------------------------------------------------------------------ #
    # batch path (2-d)
    # ------------------------------------------------------------------ #

    def _split_sum_batch(self, queries: TileQueryBatch, edge: QueryEdge) -> np.ndarray:
        """Batch ``E = N_i(A) + N_cs(B)`` for one edge.

        The band and Region-B corner arrays come from the same facet
        construction as the scalar path, with the boundary broadcast to
        the batch; the whole batch then costs two batched region sums.
        Region B degenerates to an empty span exactly where the query
        touches the chosen boundary, and its ``N_cs(B)`` contribution is
        masked to 0 there -- the scalar path's ``has_b`` rule.
        """
        hist = self._hist
        axis, low_side = _FACETS[edge]
        boundary = np.full(len(queries), 0 if low_side else hist.grid.cells[axis], dtype=np.intp)
        band, region_b, has_b = _split(
            (queries.qx_lo, queries.qy_lo), (queries.qx_hi, queries.qy_hi), axis, low_side, boundary
        )
        total = hist.total_sum
        n_i_a = total - hist._closed_sum_batch(*band)
        n_cs_b = np.where(has_b, hist.num_objects - (total - hist._closed_sum_batch(*region_b)), 0)
        return n_i_a + n_cs_b

    def _contained_estimate_batch(
        self, queries: TileQueryBatch, n_ei_prime: np.ndarray
    ) -> np.ndarray:
        """Batch ``N_cd`` (Equation 21) given the batch's ``n'_ei``."""
        acc = np.zeros(len(queries), dtype=np.float64)
        for edge in self._edges:
            split = self._split_sum_batch(queries, edge)
            acc = acc + self._contained(split, n_ei_prime).astype(np.float64)
        return acc / len(self._edges)

    def contained_in_query_estimate_batch(self, queries: TileQueryBatch) -> np.ndarray:
        """Batch ``N_cd`` estimates (Equation 21), one float64 per query."""
        return self._contained_estimate_batch(queries, self._hist.outside_sum_batch(queries))

    def estimate_batch(self, queries: TileQueryBatch) -> Level2CountsBatch:
        """Vectorised :meth:`estimate` over a 2-d query batch.

        A constant number of batched gathers regardless of batch size
        (four region sums for a single-edge split, ten for ``ALL``);
        per-query values are bit-identical to the scalar path.
        """
        queries.validate_against(self._hist.grid)
        n_total = self._hist.num_objects
        n_ii = self._hist.intersect_count_batch(queries)
        n_ei_prime = self._hist.outside_sum_batch(queries)

        n_d = (n_total - n_ii).astype(np.float64)
        n_cd = self._contained_estimate_batch(queries, n_ei_prime)
        n_o = self._overlap(n_ei_prime, n_d, n_cd)
        n_cs = float(n_total) - n_cd - n_d - n_o
        return Level2CountsBatch(n_d=n_d, n_cs=n_cs, n_cd=n_cd, n_o=n_o)
