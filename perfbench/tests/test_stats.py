import math

import pytest

from perfbench import procs, stats


def test_nearest_rank_picks_an_observed_sample():
    ordered = list(range(1, 101))
    assert stats.nearest_rank(ordered, 50) == 50
    assert stats.nearest_rank(ordered, 99) == 99
    assert stats.nearest_rank(ordered, 100) == 100
    assert stats.nearest_rank([7.0], 99) == 7.0
    # rank = ceil(0.5 * 5) = 3
    assert stats.nearest_rank([1, 2, 3, 4, 5], 50) == 3
    # rank = ceil(0.99 * 10) = 10: the maximum
    assert stats.nearest_rank(list(range(10)), 99) == 9


@pytest.mark.parametrize("pct", [0, -1, 100.5])
def test_nearest_rank_rejects_bad_percentiles(pct):
    with pytest.raises(ValueError):
        stats.nearest_rank([1, 2, 3], pct)


def test_nearest_rank_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


@pytest.mark.parametrize("n, expected", [
    (1000, 99),   # 1000 - 990 = 10 beyond
    (999, 98),    # p99 leaves 9 beyond, p98 leaves 19
    (448, 97),    # p98 leaves 8, p97 leaves 13
    (20, 50),     # the median leaves exactly 10
    (100_000, 99),  # capped at the 99th
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    pct = stats.tail_percentile(n)
    assert pct == expected
    assert stats.beyond(n, pct) >= stats.MIN_BEYOND
    if pct < stats.TAIL_CAP:
        assert stats.beyond(n, pct + 1) < stats.MIN_BEYOND


def test_tail_percentile_needs_twenty_samples():
    assert stats.tail_percentile(19) is None
    with pytest.raises(ValueError):
        stats.summarize([1.0] * 19)


def test_missed_requests_count_against_the_tail():
    answered = [0.001 * i for i in range(1, 991)]
    ten_missed = stats.summarize(answered[:990] + [math.inf] * 10)
    assert ten_missed["tail_pct"] == 99
    assert ten_missed["missed"] == 10
    assert ten_missed["tail"] == answered[989]
    eleven_missed = stats.summarize(answered[:989] + [math.inf] * 11)
    assert eleven_missed["count"] == 1000
    assert math.isinf(eleven_missed["tail"])


def test_median_is_nearest_rank():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_net_figures_take_host_steal_off_the_phase():
    latencies = [0.004] * 39 + [float("inf")]
    figures = stats.net_figures(39 * 64, wall=4.0, net=3.0,
                                latencies=latencies, miss=9.0)
    # throughput over the 3 s the host let the program run
    assert figures["records_per_s"] == pytest.approx(39 * 64 / 3.0)
    # every latency scaled by 3/4; the missed request stays a miss
    assert figures["p50"] == pytest.approx(0.003)
    assert figures["count"] == 40 and figures["missed"] == 1
    assert figures["net_share"] == pytest.approx(0.75)


def test_net_figures_count_a_missed_median_as_the_deadline():
    figures = stats.net_figures(0, wall=1.0, net=1.0,
                                latencies=[float("inf")] * 20, miss=9.0)
    assert figures["p50"] == 9.0 and figures["tail"] == 9.0


def _meter(samples):
    meter = procs.StealMeter()
    meter.stop()
    meter._samples = samples
    return meter


def test_steal_is_interpolated_between_samples():
    meter = _meter([(0.0, 10.0), (1.0, 10.2), (2.0, 10.2)])
    assert meter.stolen(0.0, 1.0) == pytest.approx(0.2)
    assert meter.stolen(0.5, 1.5) == pytest.approx(0.1)
    assert meter.stolen(1.0, 2.0) == pytest.approx(0.0)
    # outside the sampled phase the counter holds its end values
    assert meter.stolen(-1.0, 3.0) == pytest.approx(0.2)


def test_net_time_takes_off_steal_but_at_most_half():
    meter = _meter([(0.0, 0.0), (1.0, 0.1), (2.0, 1.9)])
    assert meter.net(0.0, 1.0) == pytest.approx(0.9)
    assert meter.net(1.0, 2.0) == pytest.approx(0.5)

