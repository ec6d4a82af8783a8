"""The ``repro top`` dashboard: rendering, rates, and live polling."""

import io

from repro.core.spec import StrideSpec
from repro.serve import top as top_module
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread
from repro.serve.top import (_History, render_dashboard, run_top,
                             sparkline)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_zero_uses_lowest_block(self):
        assert sparkline([0, 0, 0]) == "▁▁▁"

    def test_flat_positive_uses_mid_block(self):
        assert sparkline([5, 5]) == "▄▄"

    def test_ramp_spans_full_range(self):
        line = sparkline(list(range(9)))
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 9

    def test_width_keeps_latest_values(self):
        line = sparkline([0] * 50 + [100], width=5)
        assert len(line) == 5
        assert line[-1] == "█"


class TestHistory:
    def test_first_poll_has_no_rate(self):
        history = _History()
        rates = history.update({"records_served": 100}, {})
        assert rates["rate"] is None

    def test_counter_deltas_become_rates(self, monkeypatch):
        clock = iter([10.0, 12.0])
        monkeypatch.setattr(top_module.time, "monotonic",
                            lambda: next(clock))
        history = _History()
        history.update({"records_served": 100}, {"hit_rate": 0.5})
        rates = history.update({"records_served": 300}, {"hit_rate": 0.6})
        assert rates["rate"] == 100.0      # 200 records over 2s
        assert list(history.rate_series) == [100.0]
        assert list(history.hit_series) == [0.5, 0.6]

    def test_counter_reset_is_not_a_negative_rate(self, monkeypatch):
        clock = iter([10.0, 11.0])
        monkeypatch.setattr(top_module.time, "monotonic",
                            lambda: next(clock))
        history = _History()
        history.update({"records_served": 500}, {})
        rates = history.update({"records_served": 10}, {})
        assert rates["rate"] is None  # restarted server: skip the sample


class TestRenderDashboard:
    HEALTH = {
        "status": "ok", "uptime_s": 12.5, "protocol_version": 2,
        "sessions_open": 3, "connections_open": 1,
        "records_served": 1234, "hits_served": 600,
        "alerts": [], "queue_depth": 2, "batches": 18,
        "requests_batched": 1234,
    }
    SLO = {
        "hit_rate": 0.486,
        "latency": {"count": 50, "p50_ms": 0.2, "p90_ms": 0.5,
                    "p99_ms": 1.1, "max_ms": 2.0},
        "slos": [{"name": "step_latency_p99", "kind": "latency",
                  "threshold": 0.25, "objective": 0.99,
                  "fast_burn": 0.1, "slow_burn": 0.05,
                  "alerting": False}],
    }
    SLOW = {"observed": 1234, "slowest": [
        {"trace_id": "00ab00ab00ab00ab", "type": "step_block",
         "latency_ms": 2.0,
         "stages_ms": {"queue": 0.5, "fuse": 0.1, "execute": 0.9,
                       "flush": 0.5}}]}

    def test_frame_contents(self):
        frame = render_dashboard("http://h:1", self.HEALTH, self.SLO,
                                 self.SLOW)
        assert "status: OK" in frame
        assert "records 1,234" in frame
        assert "hit-rate 48.6%" in frame
        assert "p99 1.100ms" in frame
        assert "queue  depth 2   batches 18   requests 1,234" in frame
        assert "alerts: none" in frame
        assert "step_latency_p99" in frame
        assert "00ab00ab00ab00ab" in frame
        # stage breakdown
        assert "queue 0.50 fuse 0.10 execute 0.90 flush 0.50" in frame
        assert "\x1b" not in frame  # screen control stays in run_top

    def test_router_entry_shows_its_own_stages(self):
        # A parked request through the router: none of its stages is a
        # worker stage, and each lands under its own name.
        slow = {"observed": 1, "slowest": [
            {"trace_id": "00cd00cd00cd00cd", "type": "step_block",
             "source": "router", "latency_ms": 10.0,
             "stages_ms": {"write": 1.0, "proxy": 4.0, "route": 1.0,
                           "unpark": 1.0, "park": 3.0}}]}
        frame = render_dashboard("http://h:1", self.HEALTH, self.SLO,
                                 slow)
        assert ("route 1.00 park 3.00 unpark 1.00 proxy 4.00 write 1.00"
                in frame)

    def test_alerts_line_lists_burns(self):
        health = dict(self.HEALTH, status="degraded",
                      alerts=["step_latency_p99"])
        slo = dict(self.SLO)
        slo["slos"] = [dict(self.SLO["slos"][0], fast_burn=3.5,
                            slow_burn=2.1, alerting=True)]
        frame = render_dashboard("http://h:1", health, slo, self.SLOW)
        assert "status: DEGRADED" in frame
        assert "ALERTS: step_latency_p99 (fast 3.5x, slow 2.1x)" in frame

    def test_empty_surfaces_render(self):
        frame = render_dashboard("http://h:1", {"status": "ok"}, {}, {})
        assert "status: OK" in frame
        assert "slowest" not in frame

    def test_older_server_without_state_fields(self):
        # HEALTH above deliberately predates --state-dir: no state
        # summary line.
        frame = render_dashboard("http://h:1", self.HEALTH, self.SLO,
                                 self.SLOW)
        assert "state  resident" not in frame

    def test_durable_state_line(self):
        health = dict(self.HEALTH, sessions_resident=2,
                      sessions_spilled=1, evictions_total=4,
                      reloads_total=3, snapshots_total=2,
                      state_dir=".state")
        frame = render_dashboard("http://h:1", health, self.SLO,
                                 self.SLOW)
        assert ("state  resident 2   spilled 1   evictions 4   "
                "reloads 3   snapshots 2   dir .state") in frame

    def test_cluster_panel_renders_worker_rows(self):
        # A cluster router's aggregated /healthz carries per-worker
        # rows; the dashboard grows a fleet panel for them.
        health = dict(self.HEALTH, cluster=True, migrations_total=3,
                      sessions_lost_total=0, sessions_parked=1,
                      workers=[
                          {"worker": 0, "pid": 101, "alive": True,
                           "status": "ok", "sessions": 2, "resident": 2,
                           "spilled": 0, "evictions": 0, "restarts": 0,
                           "alerts": []},
                          {"worker": 1, "pid": 0, "alive": False,
                           "sessions": 0, "restarts": 1,
                           "alerts": ["w1:worker_down"]},
                      ])
        frame = render_dashboard("http://h:1", health, self.SLO,
                                 self.SLOW)
        assert "cluster  1/2 workers up" in frame
        assert "migrations 3" in frame
        assert "parked 1" in frame
        assert "down" in frame  # the dead worker's state column
        assert "w1:worker_down" in frame

    def test_single_server_has_no_cluster_panel(self):
        frame = render_dashboard("http://h:1", self.HEALTH, self.SLO,
                                 self.SLOW)
        assert "cluster" not in frame
        assert "workers up" not in frame


class TestRunTop:
    def test_once_against_live_server(self):
        with ServerThread(obs_port=0) as server:
            with ServeClient(port=server.port) as client:
                session = client.open_session(StrideSpec(64))
                for i in range(10):
                    client.step(session, 0x40, i)
                out = io.StringIO()
                rc = run_top(f"http://127.0.0.1:{server.obs_port}",
                             once=True, out=out)
        frame = out.getvalue()
        assert rc == 0
        assert "status: OK" in frame
        assert "records 10" in frame
        assert "\x1b" not in frame  # --once is plain text for CI logs

    def test_iterations_bound_the_loop(self):
        with ServerThread(obs_port=0) as server:
            out = io.StringIO()
            rc = run_top(f"http://127.0.0.1:{server.obs_port}",
                         interval=0.01, iterations=2, out=out)
        assert rc == 0
        assert out.getvalue().count("\x1b[H\x1b[2J") == 2

    def test_dead_endpoint_is_an_error(self):
        out = io.StringIO()
        rc = run_top("http://127.0.0.1:1", once=True, out=out,
                     timeout=0.5)
        assert rc == 1
        assert out.getvalue().startswith("error: cannot poll")
