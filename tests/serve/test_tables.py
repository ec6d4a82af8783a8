"""Live table-usage observability: session stats, /tables, gauges, top.

The serve counterpart of the offline table auditor: every session
tracks level-1 write conflicts and can snapshot its live table state;
the server pools those into occupancy / efficiency / aliasing, serves
them per session on GET /tables, exports them as
``repro_serve_table_*`` gauges (refreshed as /metrics is read), and
``repro top`` renders the panel.
"""

import json
import time

import numpy as np
import pytest

from repro.core.spec import DFCMSpec, LastValueSpec, StrideSpec
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread
from repro.serve.session import Session, _AliasTracker
from repro.serve.top import render_dashboard
from tests.serve.test_obs import http_get, parse_prometheus

TABLE_GAUGES = {"repro_serve_table_occupancy",
                "repro_serve_table_live_bits",
                "repro_serve_table_efficiency",
                "repro_serve_table_aliasing_ratio"}


class TestAliasTracker:
    def test_scalar_conflict_accounting(self):
        tracker = _AliasTracker(8)
        # 0x40 and 0x60 collide on an 8-entry table: (pc >> 2) & 7 == 0.
        tracker.observe(0x40)
        assert (tracker.accesses, tracker.conflicts) == (1, 0)
        tracker.observe(0x40)  # same writer: clean
        assert tracker.conflicts == 0
        tracker.observe(0x60)  # different writer, same entry: conflict
        assert tracker.conflicts == 1
        assert tracker.ratio == pytest.approx(1 / 3)
        snapshot = tracker.snapshot()
        assert snapshot == {"accesses": 3, "conflicts": 1,
                            "ratio": round(1 / 3, 6)}

    def test_block_matches_scalar(self):
        rng = np.random.default_rng(7)
        pcs = rng.choice([0x40, 0x44, 0x60, 0x64, 0x80], size=200)
        scalar = _AliasTracker(8)
        for pc in pcs:
            scalar.observe(int(pc))
        blocked = _AliasTracker(8)
        for start in range(0, len(pcs), 33):  # uneven chunks
            blocked.observe_block(pcs[start:start + 33].astype(np.int64))
        assert blocked.snapshot() == scalar.snapshot()

    def test_empty_block_is_noop(self):
        tracker = _AliasTracker(8)
        tracker.observe_block(np.array([], dtype=np.int64))
        assert tracker.snapshot()["accesses"] == 0


class TestSessionTableStats:
    def test_engine_mode_live_bits_grow_with_training(self):
        session = Session(1, StrideSpec(64))
        assert session.table_stats()["live_bits"] == 0
        for i in range(10):
            session.outcome(0x40, 4 + i * 4)
        stats = session.table_stats()
        assert stats["session"] == 1
        assert stats["spec"] == "stride_64"
        assert stats["live_bits"] > 0
        assert stats["storage_bits"] == StrideSpec(64).storage_bits()
        assert 0 < stats["live_fraction"] <= 1
        assert stats["efficiency"] == round(
            session.hits / stats["live_bits"], 9)

    def test_scalar_mode_reports_the_same_shape(self):
        session = Session(2, DFCMSpec(64, 256), window=2)
        assert session.mode == "scalar"
        for i in range(20):
            session.outcome(0x40, i * 4)
        stats = session.table_stats()
        assert stats["live_bits"] > 0
        assert set(stats["tables"]) == {"last", "hist", "l2"}

    def test_aliasing_counters_follow_traffic(self):
        session = Session(3, LastValueSpec(8))
        session.outcome(0x40, 1)
        session.outcome(0x60, 2)  # same level-1 entry, different pc
        session.step_block([0x40, 0x60], [3, 4])
        aliasing = session.table_stats()["aliasing"]
        assert aliasing["accesses"] == 4
        assert aliasing["conflicts"] == 3

    def test_state_snapshot_matches_training(self):
        session = Session(4, LastValueSpec(64))
        session.outcome(0x40, 7)
        state = session.table_state()
        assert state["values"][(0x40 >> 2) & 63] == 7


class TestTablesEndpoint:
    def test_tables_route_serves_live_session_stats(self):
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            first = client.open_session(DFCMSpec(64, 256))
            second = client.open_session(StrideSpec(64))
            for i in range(30):
                client.step(first, 0x40, i * 4)
                client.step(second, 0x44, i * 8)
            _, ctype, body = http_get(server.obs_port, "/tables")
            _, _, index = http_get(server.obs_port, "/")
        assert "json" in ctype
        assert "/tables" in json.loads(index)["endpoints"]
        report = json.loads(body)
        assert report["schema"] == 1
        totals = report["totals"]
        assert totals["sessions"] == 2
        assert totals["live_bits"] > 0
        assert totals["storage_bits"] > totals["live_bits"]
        assert 0 < totals["occupancy"] <= 1
        sessions = report["sessions"]
        assert {s["spec"] for s in sessions} == {"dfcm_l1=64_l2=256",
                                                 "stride_64"}
        assert totals["live_bits"] == sum(s["live_bits"] for s in sessions)

    def test_gauges_exported_after_report(self):
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(StrideSpec(64))
            for i in range(20):
                client.step(session, 0x40, i * 4)
            http_get(server.obs_port, "/tables")  # refreshes the gauges
            _, _, text = http_get(server.obs_port, "/metrics")
        metrics, types = parse_prometheus(text)
        for name in TABLE_GAUGES:
            assert types[name] == "gauge"
            [(labels, value)] = metrics[name]
            assert labels == {}
            assert value >= 0
        assert metrics["repro_serve_table_live_bits"][0][1] > 0

    def test_metrics_scrape_refreshes_table_gauges(self):
        spec = DFCMSpec(64, 256)
        reference = Session(0, spec, window=4)
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(spec, window=4)
            for i in range(30):
                client.step(session, 0x40 + 4 * (i % 3), i * 4)
                reference.step(0x40 + 4 * (i % 3), i * 4)
            _, _, text = http_get(server.obs_port, "/metrics")
        metrics, _ = parse_prometheus(text)
        assert {name for name in metrics
                if name.startswith("repro_serve_table_")} == TABLE_GAUGES
        live_bits = reference.table_stats()["live_bits"]
        assert live_bits > 0
        assert metrics["repro_serve_table_live_bits"] == [({}, live_bits)]

    def test_idle_server_does_not_walk_tables(self, monkeypatch):
        walks = []
        table_stats = Session.table_stats

        def counted(session):
            walks.append(session.session_id)
            return table_stats(session)

        monkeypatch.setattr(Session, "table_stats", counted)
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            client.open_session(DFCMSpec(64, 256), window=4)
            walks.clear()
            time.sleep(1.5)
            idle_walks = list(walks)
        assert idle_walks == []

    def test_empty_server_reports_zero_totals(self):
        with ServerThread(obs_port=0) as server:
            _, _, body = http_get(server.obs_port, "/tables")
        report = json.loads(body)
        assert report["totals"]["sessions"] == 0
        assert report["totals"]["live_bits"] == 0


class TestTopPanel:
    def fake_feeds(self):
        health = {"status": "ok", "uptime_s": 1, "records_served": 10,
                  "sessions_open": 1, "queue_depth": 0, "alerts": []}
        slo = {"hit_rate": 0.5, "slos": [], "latency": {}}
        slow = {"observed": 0, "slowest": []}
        return health, slo, slow

    def test_tables_panel_rendered_when_present(self):
        health, slo, slow = self.fake_feeds()
        tables = {
            "totals": {"sessions": 2, "live_bits": 512,
                       "storage_bits": 4096, "occupancy": 0.125,
                       "efficiency": 0.031, "aliasing_ratio": 0.25},
            "workers": [{"worker": 0, "sessions": 2, "live_bits": 512,
                         "occupancy": 0.125, "efficiency": 0.031,
                         "aliasing_ratio": 0.25}],
        }
        frame = render_dashboard("http://x", health, slo, slow,
                                 tables=tables)
        assert "tables  occupancy 12.5%" in frame
        assert "aliasing 25.0%" in frame
        assert "worker  sessions   live bits" in frame

    def test_panel_omitted_without_tables_feed(self):
        health, slo, slow = self.fake_feeds()
        frame = render_dashboard("http://x", health, slo, slow,
                                 tables=None)
        assert "tables  occupancy" not in frame

    def test_run_top_once_against_live_server(self):
        import io

        from repro.serve.top import run_top
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(StrideSpec(64))
            for i in range(10):
                client.step(session, 0x40, i * 4)
            out = io.StringIO()
            code = run_top(f"http://127.0.0.1:{server.obs_port}",
                           once=True, out=out)
        assert code == 0
        assert "tables  occupancy" in out.getvalue()
