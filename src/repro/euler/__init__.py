"""The paper's core contribution: Euler histograms and the three
Level-2 approximation algorithms.

- :mod:`repro.euler.histogram` -- the ``(2n1-1)(2n2-1)``-bucket Euler
  histogram (Section 5.1) with constant-time region sums.
- :mod:`repro.euler.simple` -- S-EulerApprox (Section 5.2).
- :mod:`repro.euler.full` -- EulerApprox with the Region A/B containment
  estimate (Section 5.3).
- :mod:`repro.euler.multi` -- M-EulerApprox, the multi-resolution variant
  (Section 5.4), and :mod:`repro.euler.tuning` -- the pragmatic
  threshold-selection procedure (Section 6.4).
- :mod:`repro.euler.euler_formula` -- Euler's formula and Corollaries
  4.1/4.2 on grid regions (the theory of Section 4, used by tests and
  examples).

The histogram and the three estimators serve any dimension d: the
histogram, M-EulerApprox and the exact evaluator take a
:class:`~repro.grid.grid_nd.GridND` through ``from_boxes`` (the paper
states its model for d dimensions and evaluates d=2); the batch paths are
2-d.  The ``1 - (-1)^d`` loophole finding lives in
:meth:`~repro.euler.histogram.RegionSums.outside_sum` and
:class:`~repro.euler.full.EulerApprox`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.euler.base": (
            "Level2BatchEstimator",
            "Level2Estimator",
            "ScalarBatchFallback",
            "as_batch_estimator",
        ),
        "repro.euler.estimates": ("Level2Counts", "Level2CountsBatch"),
        "repro.euler.euler_formula": (
            "euler_characteristic",
            "interior_counts",
            "region_euler_sum",
        ),
        "repro.euler.exterior": ("ExteriorHistogram",),
        "repro.euler.full": ("EulerApprox", "QueryEdge"),
        "repro.euler.histogram": ("EulerHistogram", "EulerHistogramBuilder", "RegionSums"),
        "repro.euler.maintained": ("MaintainedEulerHistogram",),
        "repro.euler.multi": ("MEulerApprox", "area_partition"),
        "repro.euler.pyramid": ("HistogramPyramid", "pyramid_level_grids"),
        "repro.euler.simple": ("SEulerApprox",),
        "repro.euler.tuning": ("TuningResult", "tune_area_thresholds"),
        "repro.euler.unaligned": ("RelationEnvelope", "UnalignedEstimator"),
    },
)

__all__ = [
    "EulerHistogram",
    "EulerHistogramBuilder",
    "MaintainedEulerHistogram",
    "UnalignedEstimator",
    "RelationEnvelope",
    "ExteriorHistogram",
    "HistogramPyramid",
    "pyramid_level_grids",
    "Level2Counts",
    "Level2CountsBatch",
    "Level2Estimator",
    "Level2BatchEstimator",
    "ScalarBatchFallback",
    "as_batch_estimator",
    "RegionSums",
    "SEulerApprox",
    "EulerApprox",
    "QueryEdge",
    "MEulerApprox",
    "area_partition",
    "tune_area_thresholds",
    "TuningResult",
    "euler_characteristic",
    "interior_counts",
    "region_euler_sum",
]
