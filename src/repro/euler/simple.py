"""S-EulerApprox: the Simple Euler Approximation algorithm (Section 5.2).

Assumes no object contains the query (``N_cd = 0``, Equation 11) and solves
the interior-exterior system from two histogram sums:

.. math::

    n_{ii} &= \\sum_{b_i} H(b_i)            \\quad\\text{(Eq. 14)} \\\\
    n_{ei} &= \\sum_{b_e} H(b_e)            \\quad\\text{(Eq. 15)} \\\\
    N_{cs} &= |S| - n_{ei}                   \\quad\\text{(Eq. 16)} \\\\
    N_o    &= n_{ei} - N_d = n_{ei} - (|S| - n_{ii}) \\quad\\text{(Eq. 17)}

Error modes (Section 5.2/6.2): crossover objects inflate ``n_ei`` by one
each (hurting both ``N_cs`` and ``N_o``), and every object that actually
contains the query is silently misattributed to ``N_cs`` (the ``N_cd = 0``
assumption), which is what blows this algorithm up on ``sz_skew``/``adl``.
"""

from __future__ import annotations

import numpy as np

from repro.euler.estimates import Level2Counts, Level2CountsBatch
from repro.euler.histogram import EulerHistogram
from repro.grid.grid_nd import BoxQuery
from repro.grid.tiles_math import TileQuery, TileQueryBatch

__all__ = ["SEulerApprox"]


class SEulerApprox:
    """Simple Euler Approximation over one Euler histogram."""

    def __init__(self, histogram: EulerHistogram) -> None:
        self._hist = histogram

    @property
    def name(self) -> str:
        return "S-EulerApprox"

    @property
    def histogram(self) -> EulerHistogram:
        return self._hist

    def estimate(self, query: TileQuery | BoxQuery) -> Level2Counts:
        """Estimate the Level-2 counts for one aligned query, of any
        dimension.

        ``n_cd`` is identically 0 by the algorithm's assumption.  ``n_o``
        may come out negative when that assumption is violated badly (each
        container drops ``n_ei`` by one via the loophole effect while still
        counting in ``n_ii``); values are reported raw.
        """
        n_total = self._hist.num_objects
        n_ii = self._hist.intersect_count(query)
        n_ei = self._hist.outside_sum(query)

        n_d = n_total - n_ii
        n_cs = n_total - n_ei
        n_o = n_ei - n_d
        return Level2Counts(n_d=float(n_d), n_cs=float(n_cs), n_cd=0.0, n_o=float(n_o))

    def estimate_batch(self, queries: TileQueryBatch) -> Level2CountsBatch:
        """Vectorised :meth:`estimate` over a query batch.

        Two batched histogram sums (each a constant number of gathers)
        answer the whole batch; per-query values are bit-identical to the
        scalar path (integer arithmetic, widened to float64 at the end).
        """
        n_total = self._hist.num_objects
        n_ii = self._hist.intersect_count_batch(queries)
        n_ei = self._hist.outside_sum_batch(queries)

        n_d = n_total - n_ii
        n_cs = n_total - n_ei
        n_o = n_ei - n_d
        return Level2CountsBatch(
            n_d=n_d.astype(np.float64),
            n_cs=n_cs.astype(np.float64),
            n_cd=np.zeros(len(queries), dtype=np.float64),
            n_o=n_o.astype(np.float64),
        )
