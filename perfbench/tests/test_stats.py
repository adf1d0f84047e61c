import pytest

from perfbench.stats import (
    interquartile_mean,
    min_samples_for,
    percentile,
    quartile_spread,
    samples_beyond,
    supported,
)


def test_samples_beyond_uses_nearest_rank():
    # p99 of 1000 samples is the 990th value: ten lie beyond it.
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9


def test_ten_beyond_rule_thresholds():
    assert min_samples_for(99) == 1000
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20
    assert supported(1000, 99) and not supported(999, 99)


@pytest.mark.parametrize("q, n", [
    (50, 20), (75, 40), (90, 100), (95, 200), (99, 1000), (99.9, 10000),
])
def test_each_percentile_needs_its_sample_count(q, n):
    # The run is sized until its fixed tail percentile is supported.
    assert supported(n, q) and not supported(n - 1, q)
    assert min_samples_for(q) == n


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(reversed(values), 99) == 99


def test_mid_cell_percentiles_of_whole_rounds():
    # 15 cells of distinct cost, r rounds: p50 and p90 land inside one
    # cell's samples (the 8th and 14th cheapest), never on a boundary.
    for rounds in range(7, 14):
        samples = sorted(cell + 0.001 * run for cell in range(15)
                         for run in range(rounds))
        assert int(percentile(samples, 50)) == 7
        assert int(percentile(samples, 90)) == 13
        index = samples.index(percentile(samples, 50))
        assert samples[index - 1] // 1 == samples[index + 1] // 1 == 7


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    spread = quartile_spread([9, 10, 10, 10, 10, 10, 10, 10, 10, 11])
    assert spread == pytest.approx(0.0)
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0.5


def test_interquartile_mean_drops_each_outer_quarter():
    assert interquartile_mean([5.0]) == 5.0
    assert interquartile_mean([1, 2, 3]) == 2
    # Eight rounds: the two slowest and two fastest are dropped.
    assert interquartile_mean([100, 1, 4, 5, 6, 7, 0, 50]) == 5.5
    # A slow stretch shorter than a quarter of the run leaves it alone...
    steady = [10.0] * 12
    assert interquartile_mean(steady[:9] + [3.0, 3.0, 3.0]) == 10.0
    # ...a longer one moves it part of the way, not all of it.
    half = interquartile_mean([10.0] * 6 + [5.0] * 6)
    assert 5.0 < half < 10.0
    with pytest.raises(ValueError):
        interquartile_mean([])


def test_window_rates_count_whole_windows_only():
    from perfbench.serve import window_rates

    # 2.5 s phase: two whole windows; the partial third is dropped.
    rates = window_rates([0.1, 0.2, 0.9, 1.5, 2.2, 2.4], 2.5)
    assert rates == [3.0, 1.0]
    assert window_rates([0.5, 1.0, 1.5], 2.0, window=0.5) == [0.0, 2.0,
                                                             2.0, 2.0]
    assert window_rates([], 0.3) == [0.0]
