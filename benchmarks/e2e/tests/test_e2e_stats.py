import pytest

from benchmarks.e2e import stats


@pytest.mark.parametrize("n, want", [
    (10, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (4500, 99.0), (9999, 99.0),
    (10000, 99.9), (100000, 99.99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want):
    assert stats.tail_percentile(n) == want
    if want is not None:
        ordered = list(range(n))
        value = stats.percentile(ordered, want)
        assert sum(1 for x in ordered if x > value) >= stats.MIN_BEYOND


def test_tail_falls_back_to_the_maximum_and_says_so():
    assert stats.tail([3.0, 9.0, 1.0]) == (9.0, "max")
    assert stats.tail(list(range(1000))) == (989, "p99")


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert stats.percentile(samples, 50) == 3
    assert stats.percentile(samples, 100) == 5
    assert stats.percentile(samples, 1) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    import statistics
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert stats.quartile_spread(values) == pytest.approx(0.055)
    assert stats.quartile_spread([4.0]) == 0.0
