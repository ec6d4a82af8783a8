"""SLO validation, burn-rate math, and two-window alerting."""

import numpy as np
import pytest

from repro.telemetry.slo import SLO, SLOMonitor, default_serve_slos


def make_slo(**overrides):
    base = dict(name="lat", kind="latency", threshold=0.1,
                objective=0.99, fast_window_s=10.0, slow_window_s=60.0,
                burn_rate=2.0)
    base.update(overrides)
    return SLO(**base)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestSLOValidation:
    def test_budget_is_complement_of_objective(self):
        assert make_slo(objective=0.99).budget == pytest.approx(0.01)

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 1.5])
    def test_objective_must_be_open_interval(self, objective):
        with pytest.raises(ValueError, match="objective"):
            make_slo(objective=objective)

    def test_windows_must_be_ordered(self):
        with pytest.raises(ValueError, match="window"):
            make_slo(fast_window_s=60.0, slow_window_s=10.0)

    def test_fast_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            make_slo(fast_window_s=0.0)

    def test_burn_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="burn_rate"):
            make_slo(burn_rate=0.0)

    def test_kind_must_be_a_fed_stream(self):
        # Only latency and queue depth are fed; an objective of any
        # other kind would never receive a sample.
        with pytest.raises(ValueError, match="kind"):
            SLO(name="x", kind="accuracy", threshold=0.5)

    def test_describe_round_trips_fields(self):
        desc = make_slo().describe()
        assert desc["name"] == "lat"
        assert desc["kind"] == "latency"
        assert desc["threshold"] == 0.1
        assert desc["objective"] == 0.99


class TestBurnRates:
    def test_no_data_means_zero_burn(self):
        monitor = SLOMonitor([make_slo()], clock=FakeClock())
        (status,) = monitor.evaluate()
        assert status["fast_burn"] == 0.0
        assert status["slow_burn"] == 0.0
        assert not status["alerting"]

    def test_burn_is_error_rate_over_budget(self):
        clock = FakeClock()
        monitor = SLOMonitor([make_slo(objective=0.9)], clock=clock)
        # 20% errors against a 10% budget -> burn 2.0 in both windows.
        monitor.record("lat", good=80, bad=20)
        (status,) = monitor.evaluate()
        assert status["fast_burn"] == pytest.approx(2.0)
        assert status["slow_burn"] == pytest.approx(2.0)
        assert status["alerting"]

    def test_all_good_burns_nothing(self):
        monitor = SLOMonitor([make_slo()], clock=FakeClock())
        monitor.record("lat", good=1000)
        (status,) = monitor.evaluate()
        assert status["fast_burn"] == 0.0
        assert not status["alerting"]

    def test_unknown_slo_rejected(self):
        monitor = SLOMonitor([make_slo()])
        with pytest.raises(KeyError):
            monitor.record("nope", bad=1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOMonitor([make_slo(), make_slo()])


class TestTwoWindowAlerting:
    def test_fast_burn_alone_does_not_fire(self):
        clock = FakeClock()
        monitor = SLOMonitor([make_slo(objective=0.9)], clock=clock)
        # A long healthy history dilutes the slow window...
        monitor.record("lat", good=1000)
        clock.advance(15.0)  # ...outside the 10s fast window.
        monitor.record("lat", good=0, bad=10)
        (status,) = monitor.evaluate()
        assert status["fast_burn"] >= 2.0
        assert status["slow_burn"] < 2.0
        assert not status["alerting"]
        assert monitor.healthy

    def test_sustained_errors_fire_then_clear(self):
        clock = FakeClock()
        monitor = SLOMonitor([make_slo(objective=0.9)], clock=clock)
        monitor.record("lat", good=0, bad=50)
        (status,) = monitor.evaluate()
        assert status["alerting"]
        assert monitor.alerting() == ["lat"]
        assert not monitor.healthy
        # Errors age past the fast window: alert clears quickly.
        clock.advance(15.0)
        monitor.record("lat", good=100)
        (status,) = monitor.evaluate()
        assert not status["alerting"]
        assert monitor.healthy

    def test_entries_pruned_past_slow_window(self):
        clock = FakeClock()
        monitor = SLOMonitor([make_slo(objective=0.9)], clock=clock)
        monitor.record("lat", good=0, bad=100)
        clock.advance(120.0)  # > slow_window_s
        (status,) = monitor.evaluate()
        assert status["slow_burn"] == 0.0
        assert not status["alerting"]
        # Lifetime totals survive pruning.
        assert status["total_bad"] == 100

    def test_multiple_slos_evaluate_independently(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            [make_slo(), make_slo(name="queue", kind="queue_depth",
                                  objective=0.9)],
            clock=clock)
        monitor.record("queue", bad=10)
        statuses = {s["name"]: s for s in monitor.evaluate()}
        assert not statuses["lat"]["alerting"]
        assert statuses["queue"]["alerting"]
        assert monitor.alerting() == ["queue"]


class TestSecondTallies:
    def test_a_busy_stream_keeps_one_tally_per_second(self):
        """2,000 observations/s for the whole slow window coalesce into
        one tally per second, and at whole-second evaluation times the
        windows count exactly the observations a per-observation log
        would."""
        rate, seconds, start = 2000, 300, 1000.0
        monitor = SLOMonitor(default_serve_slos(), clock=FakeClock(start))
        slo = monitor.slos[0]
        assert slo.name == "step_latency_p99"
        index = np.arange(rate * seconds)
        times = start + index / rate
        bad = (index % 100) < (times.astype(np.int64) % 7)
        for now, is_bad in zip(times.tolist(), bad.tolist()):
            monitor.record(slo.name, good=int(not is_bad),
                           bad=int(is_bad), now=now)
        assert len(monitor._streams[slo.name].entries) <= seconds + 1
        for now in (start + seconds, start + seconds + 30):
            status = monitor.evaluate(now)[0]
            for key, window in (("fast", slo.fast_window_s),
                                ("slow", slo.slow_window_s)):
                inside = times >= now - window
                n_bad = int(np.count_nonzero(bad & inside))
                n_good = int(np.count_nonzero(~bad & inside))
                assert status[f"{key}_bad"] == n_bad
                assert status[f"{key}_good"] == n_good
                assert status[f"{key}_burn"] == round(
                    n_bad / (n_bad + n_good) / slo.budget, 4)


class TestDefaults:
    def test_stock_slos_without_accuracy(self):
        slos = default_serve_slos()
        assert [s.name for s in slos] == ["step_latency_p99", "queue_depth"]
        by_name = {s.name: s for s in slos}
        assert by_name["step_latency_p99"].kind == "latency"
        assert by_name["step_latency_p99"].objective == 0.99
        assert by_name["queue_depth"].kind == "queue_depth"

    def test_parameters_thread_through(self):
        slos = default_serve_slos(p99_latency_s=0.5,
                                  queue_depth_ceiling=64.0,
                                  fast_window_s=5.0, slow_window_s=20.0,
                                  burn_rate=1.5)
        by_name = {s.name: s for s in slos}
        assert by_name["step_latency_p99"].threshold == 0.5
        assert by_name["queue_depth"].threshold == 64.0
        assert all(s.fast_window_s == 5.0 and s.burn_rate == 1.5
                   for s in slos)
