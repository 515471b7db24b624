"""Aggregate-cube substrate: prefix-sum cubes and difference-array builders.

The paper's histograms are query-answered through the prefix-sum technique
of Ho et al. (HAMS97): a cumulative cube turns any axis-aligned range sum
into a constant number of lookups.  The same machinery, run in reverse, is
the difference-array accumulator used to *build* histograms from millions
of rectangles in O(M + buckets) time.
"""

from repro.cube.difference import DifferenceArray
from repro.cube.prefix_sum import PrefixSumCube

__all__ = ["PrefixSumCube", "DifferenceArray"]
