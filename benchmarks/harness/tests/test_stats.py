import statistics

import pytest

from stats import judge, percentile, quartiles, range_spread, spread


def test_nearest_rank_percentiles():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([3.0], 99) == 3.0


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    q1, med, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert range_spread(values) == pytest.approx((9.0 - 1.0) / 3.0)


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr():
    change = [v * 0.9 for v in PARENT]
    v = judge("latency", "pan", PARENT, change, better="lower", bound=0.1)
    assert v.verdict == "gain"
    assert v.wins == 10 and v.pairs == 10
    assert v.ratio == pytest.approx(0.9, rel=1e-3)


def test_fewer_than_ten_pairs_is_never_a_gain():
    change = [v * 0.9 for v in PARENT]
    v = judge("latency", "pan", PARENT[:5], change[:5], better="lower", bound=0.1)
    assert (v.wins, v.pairs, v.verdict) == (5, 5, "unchanged")


def test_too_few_wins_is_not_a_gain():
    change = [v * 0.9 for v in PARENT]
    change[0] = change[1] = 11.0
    v = judge("latency", "pan", PARENT, change, better="lower", bound=0.1)
    assert (v.wins, v.verdict) == (8, "unresolved")


def test_regression_is_a_median_worse_than_the_bound():
    change = [v * 1.2 for v in PARENT]
    assert judge("latency", "pan", PARENT, change, better="lower", bound=0.1).verdict == "regression"
    # Within the bound it is not a regression.
    change = [v * 1.05 for v in PARENT]
    assert judge("latency", "pan", PARENT, change, better="lower", bound=0.1).verdict == "unchanged"
    # Direction matters: lower goodput is worse.
    change = [v * 0.8 for v in PARENT]
    assert judge("goodput", "pan", PARENT, change, better="higher", bound=0.1).verdict == "regression"


def test_wide_spread_is_unresolved_unless_every_change_run_is_better():
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v * 1.02 for v in noisy]
    assert judge("latency", "pan", noisy, change, better="lower", bound=0.1).verdict == "unresolved"
    clearly_better = [v / 10.0 for v in noisy]
    assert judge("latency", "pan", noisy, clearly_better, better="lower", bound=0.1).verdict == "gain"
    # Noise never hides a median worse than the bound.
    worse = [v * 1.5 for v in noisy]
    assert judge("latency", "pan", noisy, worse, better="lower", bound=0.1).verdict == "regression"


def test_a_range_beyond_the_repeat_rule_is_unresolved_even_within_the_bound():
    one_outlier = PARENT[:-1] + [12.0]
    assert spread(one_outlier) < 0.25 and range_spread(one_outlier) > 0.10
    v = judge("latency", "pan", one_outlier, one_outlier, better="lower", bound=0.25)
    assert v.verdict == "unresolved"
