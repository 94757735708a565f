"""The statistics that turn timings and runs into medians and bounds."""

import statistics

import pytest

from perfbench import stats


def test_quartiles_are_those_of_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles(values)[1] == stats.median(values) == 3.5


def test_relative_spread_is_the_interquartile_distance_over_the_median():
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.relative_spread([7.0] * 10) == 0.0
    assert stats.relative_spread([0.0] * 4) == 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([4.0], 0.99) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_throughput_sums_per_request_medians():
    # A burst slowed the second pass of request 0; its median ignores it.
    tokens = [100, 300]
    times = [[1.0, 9.0, 1.0], [2.0, 2.0, 3.0]]
    assert stats.throughput(tokens, times) == pytest.approx(400 / 3.0)
    with pytest.raises(ValueError):
        stats.throughput([100], times)


def test_bound_is_three_spreads_rounded_up_and_capped():
    assert stats.bound_for([0.01, 0.02]) == 0.06
    assert stats.bound_for([0.021]) == 0.07
    assert stats.bound_for([0.0]) == 0.01
    assert stats.bound_for([0.2]) == 0.25
