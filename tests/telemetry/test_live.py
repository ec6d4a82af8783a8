"""Live registry scrape path (the /metrics read side)."""

from repro.telemetry.export import snapshot_prometheus_text
from repro.telemetry.live import live_snapshot
from repro.telemetry.registry import registry


def seed_metrics():
    registry().counter("live_requests_total", "Requests").inc(5)
    registry().gauge("live_depth").set(3)
    registry().histogram("other_seconds", buckets=(1,)).observe(0.5)


class TestLiveSnapshot:
    def test_reflects_current_registry(self):
        seed_metrics()
        snap = live_snapshot()
        assert snap["live_requests_total"]["samples"][0]["value"] == 5
        assert snap["live_depth"]["samples"][0]["value"] == 3

    def test_prefix_filter(self):
        seed_metrics()
        snap = live_snapshot(prefix="live_")
        assert "live_requests_total" in snap
        assert "live_depth" in snap
        assert "other_seconds" not in snap

    def test_scrape_is_read_only(self):
        seed_metrics()
        before = live_snapshot()
        snapshot_prometheus_text(live_snapshot())
        assert live_snapshot() == before


class TestLivePrometheusText:
    def test_renders_current_values(self):
        seed_metrics()
        text = snapshot_prometheus_text(live_snapshot())
        assert "# TYPE live_requests_total counter" in text
        assert "live_requests_total 5" in text
        assert "live_depth 3" in text
        assert 'other_seconds_bucket{le="+Inf"} 1' in text

    def test_prefix_filter_applies(self):
        seed_metrics()
        text = snapshot_prometheus_text(live_snapshot(prefix="live_"))
        assert "live_requests_total 5" in text
        assert "other_seconds" not in text

    def test_exemplars_off_by_default(self):
        registry().histogram("live_lat_seconds", buckets=(1,)).observe(
            0.5, exemplar="00ab")
        strict = snapshot_prometheus_text(live_snapshot())
        assert "trace_id" not in strict
        annotated = snapshot_prometheus_text(live_snapshot(),
                                             exemplars=True)
        assert '# {trace_id="00ab"} 0.5' in annotated
