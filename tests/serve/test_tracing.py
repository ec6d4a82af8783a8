"""Request-trace identity, stage breakdowns, and the slow sampler."""

import pytest

from repro.serve import tracing
from repro.serve.tracing import (STAGES, RequestTrace, SlowRequestSampler,
                                 TraceStore, format_trace_id, new_trace_id,
                                 parse_trace_id, render_trace_report)


def make_trace(trace_id=1, latency=0.01):
    """A worker span: recv at 100.0, one stage per millisecond, then
    flush until *latency*."""
    trace = RequestTrace(trace_id=trace_id, frame_type="step",
                         request_id=1, t_recv=100.0)
    for offset, stage in enumerate(("decode", "queue", "fuse", "execute"),
                                   start=1):
        trace.mark(stage, 100.0 + offset * 0.001)
    trace.finish("flush", 100.0 + latency)
    return trace


class TestTraceIds:
    def test_ids_are_unique_and_nonzero(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert 0 not in ids

    def test_ids_fit_64_bits(self):
        assert all(0 < new_trace_id() < 1 << 64 for _ in range(100))

    def test_format_is_16_hex_digits(self):
        assert format_trace_id(0xAB) == "00000000000000ab"
        assert len(format_trace_id(new_trace_id())) == 16

    def test_format_masks_to_64_bits(self):
        assert format_trace_id(1 << 64) == "0000000000000000"

    def test_parse_round_trips_format(self):
        trace_id = new_trace_id()
        assert parse_trace_id(format_trace_id(trace_id)) == trace_id

    def test_parse_accepts_hex_spellings(self):
        assert parse_trace_id("ab") == 0xAB
        assert parse_trace_id("0xAB") == 0xAB
        assert parse_trace_id(" 00ab ") == 0xAB

    def test_parse_rejects_garbage(self):
        for bad in ("", "zz", "12g4", None, "-1", "1" * 17):
            with pytest.raises(ValueError):
                parse_trace_id(bad)


class TestRequestTrace:
    def test_latency_from_recv_to_done(self):
        trace = make_trace(latency=0.25)
        assert trace.latency_s() == pytest.approx(0.25)

    def test_latency_zero_while_incomplete(self):
        trace = make_trace()
        trace.t_done = None
        assert trace.latency_s() == 0.0

    def test_stage_durations(self):
        trace = make_trace()
        stages = trace.stages()
        assert set(stages) == {"decode", "queue", "fuse", "execute",
                               "flush"}
        assert stages["decode"] == pytest.approx(0.001)
        assert stages["queue"] == pytest.approx(0.001)
        assert stages["fuse"] == pytest.approx(0.001)
        assert stages["execute"] == pytest.approx(0.001)
        assert stages["flush"] == pytest.approx(0.006)

    def test_skipped_stages_absent(self):
        # An immediate response never enters queue/fuse/execute.
        trace = RequestTrace(trace_id=1, frame_type="stats", t_recv=1.0)
        trace.mark("decode", 1.1)
        trace.finish("flush", 1.5)
        assert set(trace.stages()) == {"decode", "flush"}

    def test_stages_partition_the_latency(self):
        trace = make_trace(latency=0.0173)
        assert sum(trace.stages().values()) == pytest.approx(
            trace.latency_s())
        entry = trace.to_dict()
        assert sum(entry["stages_ms"].values()) == pytest.approx(
            entry["latency_ms"], abs=1e-3)

    def test_to_dict_shape(self):
        trace = make_trace(trace_id=0xFF, latency=0.006)
        entry = trace.to_dict()
        assert entry["source"] == "worker"
        assert entry["trace_id"] == format_trace_id(0xFF)
        assert entry["type"] == "step"
        assert entry["latency_ms"] == pytest.approx(6.0)
        assert set(entry["stages_ms"]) == {"decode", "queue", "fuse",
                                           "execute", "flush"}
        # Router-only keys are present with their empty values.
        assert entry["workers"] == [] and entry["resends"] == 0
        assert entry["parked"] is False
        assert "error" not in entry

    def test_to_dict_carries_error(self):
        trace = make_trace()
        trace.fail("boom")
        entry = trace.to_dict()
        assert entry["status"] == "error"
        assert entry["error"] == "boom"


def offer(sampler, trace):
    sampler.add(trace.latency_s(), trace.to_dict())


class TestSlowRequestSampler:
    def test_keeps_top_k_by_latency(self, monkeypatch):
        monkeypatch.setattr(tracing, "SLOW_K", 3)
        sampler = SlowRequestSampler()
        for i, latency in enumerate([0.01, 0.05, 0.02, 0.09, 0.001]):
            offer(sampler, make_trace(trace_id=i + 1, latency=latency))
        snap = sampler.snapshot()
        assert snap["observed"] == 5
        assert snap["k"] == 3
        latencies = [e["latency_ms"] for e in snap["slowest"]]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies == pytest.approx([90.0, 50.0, 20.0])

    def test_fills_below_k(self):
        sampler = SlowRequestSampler()
        offer(sampler, make_trace(latency=0.01))
        snap = sampler.snapshot()
        assert snap["observed"] == 1
        assert len(snap["slowest"]) == 1

    def test_snapshot_is_json_able(self):
        import json
        sampler = SlowRequestSampler()
        offer(sampler, make_trace(latency=0.01))
        json.dumps(sampler.snapshot())

    def test_accepts_router_traces(self):
        sampler = SlowRequestSampler()
        offer(sampler, make_router_trace(latency=0.5))
        entry = sampler.snapshot()["slowest"][0]
        assert entry["source"] == "router"
        assert entry["latency_ms"] == pytest.approx(500.0)


def make_router_trace(trace_id=1, latency=0.01, resend_at=None):
    """A router span: forwarded to worker 0 at 200.001 (and re-sent to
    worker 2 at *resend_at*), replied at 90% of *latency*."""
    trace = RequestTrace(trace_id=trace_id, frame_type="step_block",
                         source="router", request_id=7, session_id=3,
                         records=256, t_recv=200.0)
    trace.mark("route", 200.001)
    trace.workers.append(0)
    if resend_at is not None:
        trace.mark("migrate_wait", resend_at)
        trace.workers.append(2)
    trace.mark("proxy", 200.0 + latency * 0.9)
    trace.finish("write", 200.0 + latency)
    return trace


class TestRouterTrace:
    def test_plain_proxy_stages(self):
        trace = make_router_trace(latency=0.010)
        stages = trace.stages()
        assert set(stages) == {"route", "proxy", "write"}
        assert stages["route"] == pytest.approx(0.001)
        assert trace.resends == 0
        assert trace.latency_s() == pytest.approx(0.010)

    def test_failover_resend_adds_migrate_wait(self):
        trace = make_router_trace(resend_at=200.005)
        stages = trace.stages()
        assert trace.resends == 1
        assert stages["migrate_wait"] == pytest.approx(0.004)
        # proxy is measured from the forward that actually answered.
        assert stages["proxy"] == pytest.approx(0.009 - 0.005)

    def test_park_and_unpark_stages(self):
        trace = RequestTrace(trace_id=9, frame_type="step",
                             source="router", t_recv=300.0)
        trace.mark("route", 300.002)      # parked
        trace.mark("park", 300.010)       # unparked
        trace.mark("unpark", 300.011)     # forwarded
        trace.workers.append(1)
        trace.mark("proxy", 300.020)
        trace.finish("write", 300.021)
        stages = trace.stages()
        assert stages["route"] == pytest.approx(0.002)
        assert stages["park"] == pytest.approx(0.008)
        assert stages["unpark"] == pytest.approx(0.001)
        assert trace.parked is True
        assert sum(stages.values()) == pytest.approx(trace.latency_s())

    def test_repeated_stage_sums(self):
        # Re-sent twice: both waits land in migrate_wait.
        trace = RequestTrace(trace_id=9, frame_type="step",
                             source="router", t_recv=1.0)
        for stage, at in (("route", 1.001), ("migrate_wait", 1.003),
                          ("migrate_wait", 1.007), ("proxy", 1.009)):
            trace.mark(stage, at)
        trace.finish("write", 1.010)
        stages = trace.stages()
        assert stages["migrate_wait"] == pytest.approx(0.006)
        assert sum(stages.values()) == pytest.approx(trace.latency_s())

    def test_to_dict_shape(self):
        trace = make_router_trace(trace_id=0xFF, resend_at=200.005)
        entry = trace.to_dict()
        assert entry["source"] == "router"
        assert entry["trace_id"] == format_trace_id(0xFF)
        assert entry["workers"] == [0, 2]
        assert entry["resends"] == 1
        assert entry["parked"] is False
        # Worker-only keys are present with their empty values.
        assert entry["batch_size"] == 0
        assert "error" not in entry
        assert set(entry["stages_ms"]) <= set(STAGES)

    def test_to_dict_carries_error(self):
        trace = make_router_trace()
        trace.fail("boom", timeout=True)
        entry = trace.to_dict()
        assert entry["status"] == "timeout"
        assert entry["error"] == "boom"


class TestTraceStore:
    def test_put_get_round_trip(self):
        store = TraceStore()
        store.put(5, {"trace_id": "05", "latency_ms": 1.0})
        assert store.get(5) == [{"trace_id": "05", "latency_ms": 1.0}]
        assert store.get(6) == []

    def test_multiple_spans_per_id_in_order(self):
        store = TraceStore()
        store.put(5, {"n": 1})
        store.put(5, {"n": 2})
        assert [s["n"] for s in store.get(5)] == [1, 2]

    def test_capacity_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 3)
        store = TraceStore()
        for i in range(5):
            store.put(i, {"n": i})
        assert len(store) == 3
        assert store.get(0) == [] and store.get(1) == []
        assert store.get(4) == [{"n": 4}]
        assert store.stored == 5

    def test_eviction_drops_only_the_oldest_span_of_an_id(self,
                                                          monkeypatch):
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 2)
        store = TraceStore()
        store.put(5, {"n": 1})
        store.put(5, {"n": 2})
        store.put(6, {"n": 3})
        assert [s["n"] for s in store.get(5)] == [2]

    def test_lookup_shape(self):
        store = TraceStore()
        body = store.lookup(0xAB)
        assert body == {"schema": 1, "trace_id": format_trace_id(0xAB),
                        "found": False, "spans": []}
        store.put(0xAB, {"n": 1})
        assert store.lookup(0xAB)["found"] is True

    def test_dump_limit_keeps_newest(self):
        store = TraceStore()
        for i in range(5):
            store.put(i, {"n": i})
        dump = store.dump(limit=2)
        assert dump["retained"] == 2
        assert [s["n"] for s in dump["spans"]] == [3, 4]
        assert dump["stored"] == 5

    def test_get_returns_copies(self):
        store = TraceStore()
        store.put(1, {"n": 1})
        store.get(1)[0]["n"] = 99
        assert store.get(1) == [{"n": 1}]


class TestRenderTraceReport:
    def test_not_found(self):
        text = render_trace_report(
            {"trace_id": "ab", "found": False, "spans": []})
        assert "not found" in text

    def test_cross_process_timeline(self):
        router = make_router_trace(trace_id=0xAB, resend_at=200.005)
        worker = dict(make_trace(trace_id=0xAB).to_dict(),
                      source="worker", worker=2)
        text = render_trace_report(
            {"trace_id": format_trace_id(0xAB), "found": True,
             "cluster": True, "spans": [router.to_dict(), worker]})
        assert "2 span(s), cluster" in text
        assert "router" in text and "worker 2" in text
        assert "workers 0->2" in text and "resends 1" in text
        assert "proxy" in text and "queue" in text
        # Stages render in pipeline order.
        assert ("route 1.000ms | migrate_wait 4.000ms | proxy 4.000ms | "
                "write 1.000ms") in text
