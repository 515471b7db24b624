"""Percentiles, spreads and the compare rules.

``compare`` applies the rules a performance claim must meet, per
(metric, workload), on runs of a parent and of a change:

- **regression**: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
- **gain**: over at least :data:`MIN_GAIN_PAIRS` pairs (run ``i``
  against run ``i``), the change wins at least 9 of every 10, ties
  counting for neither, and the medians differ by more than the parent's
  interquartile range;
- **unresolved**: either side's spread (interquartile range over median)
  exceeds the bound, or its ``(max - min) / median`` exceeds
  :data:`REPEAT_RANGE`, unless every change run beats every parent run;
- otherwise **unchanged**.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Below ten pairs, 9 wins in 10 means winning every pair, which two
#: equal commits do by chance once in ``2**pairs`` (once in 32 for 5).
MIN_GAIN_PAIRS = 10

#: The repeatability rule: over five runs of one commit, an end-to-end
#: metric's ``(max - min) / median`` should stay within this.  A metric
#: that misses it on either side cannot be called unchanged (README.md
#: lists which metrics meet it on the measuring machine).
REPEAT_RANGE = 0.10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the sample at or below it (``q`` in (0, 100])."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def range_spread(values: Sequence[float]) -> float:
    """``(max - min) / median``."""
    med = statistics.median(values)
    return (max(values) - min(values)) / abs(med) if med else math.inf


@dataclass(frozen=True)
class Verdict:
    metric: str
    workload: str
    verdict: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    ratio: float
    wins: int
    pairs: int


def judge(
    metric: str,
    workload: str,
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> Verdict:
    """Apply the module's rules to one (metric, workload)."""
    sign = 1.0 if better == "higher" else -1.0
    p = quartiles(parent)
    c = quartiles(change)
    ratio = c[1] / p[1] if p[1] else math.inf
    pairs = min(len(parent), len(change))
    diffs = [sign * (change[i] - parent[i]) for i in range(pairs)]
    wins = sum(d > 0 for d in diffs)
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    worse_by = -sign * (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0
    noisy = (
        max(spread(parent), spread(change)) > bound
        or max(range_spread(parent), range_spread(change)) > REPEAT_RANGE
    )
    if worse_by > bound:
        verdict = "regression"
    elif pairs >= MIN_GAIN_PAIRS and wins >= 0.9 * pairs and sign * (c[1] - p[1]) > p[2] - p[0]:
        verdict = "gain"
    elif noisy and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Verdict(metric, workload, verdict, p, c, ratio, wins, pairs)
