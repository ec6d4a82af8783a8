"""Fleet-wide distributed tracing, /scale, and the soak harness.

The acceptance path of the tracing work, driven end to end over real
sockets and real worker processes: one request proxied through the
router leaves a router span and a worker span under the same trace id,
retrievable merged from the router's ``/trace/<id>``; a request that
survives a mid-flight worker SIGKILL reconstructs as a single ordered
cross-process trace spanning both workers; every live span's stages
add up to its latency; ``/scale`` strict-parses as a Kubernetes
custom-metrics MetricValueList; and ``run_soak`` holds a fleet under
sustained load and passes its own SLO-burn gate.
"""

import io
import json
import os
import re
import signal
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.spec import DFCMSpec
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import ClusterThread
from repro.serve.server import ServerThread
from repro.serve.tracing import STAGES, format_trace_id
from repro.telemetry import run as telemetry_run_module
from repro.telemetry.export import find_run, read_events

HEX16 = r"[0-9a-f]{16}"


def workload(n, seed=0):
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x400 + 4 * ((i + seed) % 7))
        values.append((11 * i + seed * 3 + (i % 4)) & 0xFFFFFFFF)
    return pcs, values


def http_json(port, path, timeout=10.0):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def assert_partitioned(spans):
    """Every span carries only STAGES names and its stages add up to
    its latency (each stage is rounded to 1e-4 ms on the wire)."""
    assert spans
    for span in spans:
        stages = span["stages_ms"]
        assert set(stages) <= set(STAGES), span
        assert abs(sum(stages.values()) - span["latency_ms"]) \
            <= 1e-3 * len(stages), span


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("trace-fleet-state")
    with ClusterThread(workers=2, state_dir=str(state_dir),
                       obs_port=0) as cluster:
        yield cluster


class TestCrossProcessTrace:
    def test_proxied_request_merges_router_and_worker_spans(self, fleet):
        spec = DFCMSpec(64, 256)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            client.step(sid, 0x400, 7)
            trace_id = client.last_trace_id
            assert trace_id != 0
            hex_id = format_trace_id(trace_id)
            report = http_json(fleet.obs_port, f"/trace/{hex_id}")
        assert report["found"] is True
        assert report["cluster"] is True
        assert report["trace_id"] == hex_id
        sources = [s["source"] for s in report["spans"]]
        assert sources == ["router", "worker"]
        router_span, worker_span = report["spans"]
        # Same id on both sides of the proxy hop.
        assert router_span["trace_id"] == hex_id
        assert worker_span["trace_id"] == hex_id
        assert router_span["workers"] == [worker_span["worker"]]
        assert router_span["resends"] == 0
        assert {"route", "proxy", "write"} <= set(
            router_span["stages_ms"])
        assert {"queue", "fuse", "execute", "flush"} <= set(
            worker_span["stages_ms"])
        # The worker round trip is inside the client-observed latency.
        assert (router_span["stages_ms"]["proxy"]
                <= router_span["latency_ms"])

    def test_cli_renders_the_fleet_trace(self, fleet):
        spec = DFCMSpec(64, 256)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            client.step(sid, 0x404, 9)
            hex_id = format_trace_id(client.last_trace_id)
        out = io.StringIO()
        code = cli_main(["trace", hex_id, "--from",
                         str(fleet.obs_port)], out=out)
        text = out.getvalue()
        assert code == 0
        assert hex_id in text
        assert "router" in text and "worker" in text
        assert "proxy" in text and "execute" in text

    def test_cli_unknown_trace_exits_nonzero(self, fleet):
        out = io.StringIO()
        code = cli_main(["trace", "00000000000000ff", "--from",
                         str(fleet.obs_port)], out=out)
        assert code == 1
        assert "not found" in out.getvalue()

    def test_router_slow_reports_client_experienced_latency(self, fleet):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(120)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            for start in range(0, len(pcs), 30):
                client.step_block(sid, pcs[start:start + 30],
                                  values[start:start + 30])
        report = http_json(fleet.obs_port, "/slow")
        assert report["schema"] == 2
        assert report["observed"] >= 4
        assert report["worker_observed"] >= 4
        router_entries = [e for e in report["slowest"]
                          if e.get("source") == "router"]
        assert router_entries, "router sampler entries missing"
        for entry in router_entries:
            assert re.fullmatch(HEX16, entry["trace_id"])
            assert entry["latency_ms"] >= 0
        # The slowest entries join with the worker-side stage sample
        # under the same trace id.
        joined = [e for e in router_entries if e.get("worker_spans")]
        assert joined, "no slow entry joined with its worker span"
        span = joined[0]["worker_spans"][0]
        assert span["trace_id"] == joined[0]["trace_id"]
        assert span["source"] == "worker"


class TestFailoverTrace:
    def test_request_surviving_worker_death_is_one_trace(self, tmp_path):
        """SIGSTOP the owner so a STEP_BLOCK is pinned in flight, then
        SIGKILL it: the router re-homes the session and re-sends the
        frame to the surviving worker.  The client sees one answered
        request; ``/trace/<id>`` reconstructs it as one ordered
        cross-process trace spanning both workers."""
        spec = DFCMSpec(64, 256)
        pcs, values = workload(200)
        with ClusterThread(workers=2, state_dir=str(tmp_path),
                           obs_port=0,
                           router_kwargs={"auto_restart": False}) \
                as cluster:
            with ServeClient("127.0.0.1", cluster.port,
                             timeout=60.0) as client:
                sid = client.open_session(spec)
                client.step_block(sid, pcs[:100], values[:100])
                # Durability barrier: the arena the survivor adopts.
                client.snapshot(sid)
                victim = cluster.router.session_owner(sid)
                victim_pid = cluster.supervisor.handles[victim].pid
                os.kill(victim_pid, signal.SIGSTOP)
                result = {}

                def blocked_step():
                    result["hits"] = client.step_block(
                        sid, pcs[100:130], values[100:130])[1]

                thread = threading.Thread(target=blocked_step)
                thread.start()
                time.sleep(0.3)   # frame forwarded to the frozen owner
                os.kill(victim_pid, signal.SIGKILL)
                thread.join(timeout=60)
                assert not thread.is_alive(), "step never completed"
                assert "hits" in result
                trace_id = client.last_trace_id
                hex_id = format_trace_id(trace_id)
                survivor = cluster.router.session_owner(sid)
                assert survivor != victim
                report = http_json(cluster.obs_port,
                                   f"/trace/{hex_id}", timeout=30.0)
        assert report["found"] is True
        router_span = report["spans"][0]
        assert router_span["source"] == "router"
        # The hop list records the death: forwarded to the victim,
        # re-sent to the survivor.
        assert router_span["workers"] == [victim, survivor]
        assert router_span["resends"] == 1
        assert router_span["status"] == "ok"
        assert "migrate_wait" in router_span["stages_ms"]
        # The victim died before completing its span; the survivor's
        # is there, under the same id, ordered after the router's.
        worker_spans = [s for s in report["spans"]
                        if s["source"] == "worker"]
        assert [s["worker"] for s in worker_spans] == [survivor]
        assert worker_spans[0]["trace_id"] == hex_id
        assert worker_spans[0]["status"] == "ok"
        assert_partitioned(report["spans"])


class TestSpanPartition:
    """Every live span's stages add up to its latency, stamped under
    the names that say where the time went."""

    def test_server_spans_partition(self):
        pcs, values = workload(64)
        with ServerThread(obs_port=0) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                sid = client.open_session(DFCMSpec(64, 256))
                client.step_block(sid, pcs, values)
                client.step(sid, 0x400, 7)
                client.stats(0)
                with pytest.raises(ServeError):
                    client.step(sid + 99, 0x400, 7)
                client.close_session(sid)
            dump = http_json(server.obs_port, "/trace")
        assert dump["retained"] == 6
        assert_partitioned(dump["spans"])
        stats = [s for s in dump["spans"] if s["type"] == "stats"]
        assert set(stats[0]["stages_ms"]) == {"decode", "encode", "flush"}

    def test_lone_request_is_dominated_by_execute(self):
        # The observability check: a lone 64-record STEP_BLOCK reaches
        # an idle shard and runs at once, so its trace names the kernel
        # (`execute`) as the dominant stage and spends nothing waiting
        # in `fuse`.  The client idles between requests so each one is
        # alone; medians over a few keep one noisy sample from deciding.
        traces = []
        with ServerThread(obs_port=0) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                sid = client.open_session(DFCMSpec(1 << 16, 1 << 12))
                for seed in range(9):
                    client.step_block(sid, *workload(64, seed))
                    traces.append(format_trace_id(client.last_trace_id))
                    time.sleep(0.02)
            stages = [http_json(server.obs_port, f"/trace/{hex_id}")
                      ["spans"][0]["stages_ms"] for hex_id in traces]
        median = {name: float(np.median([s[name] for s in stages]))
                  for name in stages[0]}
        assert set(median) == {"decode", "queue", "fuse", "execute",
                               "encode", "flush"}, median
        assert median["fuse"] < 0.5, median
        assert max(median, key=median.get) == "execute", median

    def test_fleet_spans_partition_under_migration(self, fleet):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(64)
        with ServeClient("127.0.0.1", fleet.port) as client, \
                ServeClient("127.0.0.1", fleet.port) as stepper:
            sids = [client.open_session(spec) for _ in range(2)]
            client.stats(0)
            with pytest.raises(ServeError):
                client.step(max(sids) + 999, 0x400, 7)
            stop = threading.Event()
            errors = []

            def step_forever():
                try:
                    while not stop.is_set():
                        for sid in sids:
                            stepper.step_block(sid, pcs, values)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            thread = threading.Thread(target=step_forever)
            thread.start()
            try:
                # Migrate until a frame has waited out a migration
                # parked (bounded: each round moves both sessions).
                for _ in range(40):
                    for sid in sids:
                        owner = fleet.router.session_owner(sid)
                        fleet.call(fleet.router.migrate(sid, 1 - owner))
                    router = http_json(fleet.obs_port, "/trace")
                    if any(s["parked"] for s in router["spans"]):
                        break
            finally:
                stop.set()
                thread.join(timeout=60)
            assert not thread.is_alive() and errors == []
        router = http_json(fleet.obs_port, "/trace")
        assert any(s["parked"] for s in router["spans"])
        assert_partitioned(router["spans"])
        for handle in fleet.supervisor.handles.values():
            assert_partitioned(
                http_json(handle.obs_port, "/trace")["spans"])

    def test_router_spans_reach_an_active_run(self, fleet, tmp_path):
        run = telemetry_run_module.start_run(tmp_path, command="trace")
        try:
            with ServeClient("127.0.0.1", fleet.port) as client:
                sid = client.open_session(DFCMSpec(64, 256))
                client.step(sid, 0x400, 7)
                hex_id = format_trace_id(client.last_trace_id)
            # The router records its span once the reply has drained
            # out of its socket, which can be after the client read it.
            deadline = time.monotonic() + 10.0
            while (not fleet.router.request_log.traces.get(
                    client.last_trace_id)
                   and time.monotonic() < deadline):
                time.sleep(0.005)
        finally:
            telemetry_run_module.finish_run()
        spans = [e for e in read_events(find_run(tmp_path, run.run_id))
                 if e.get("type") == "span"
                 and e.get("name") == "serve.request"]
        mine = [s for s in spans if s["attrs"]["trace_id"] == hex_id]
        assert [s["attrs"]["source"] for s in mine] == ["router"]
        assert mine[0]["duration_s"] == pytest.approx(
            mine[0]["attrs"]["latency_ms"] / 1e3, abs=1e-6)


class TestScaleEndpoint:
    def test_scale_strict_parses_as_metric_value_list(self, fleet):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(60)
        with ServeClient("127.0.0.1", fleet.port) as client:
            sid = client.open_session(spec)
            client.step_block(sid, pcs, values)
        report = http_json(fleet.obs_port, "/scale")
        assert report["kind"] == "MetricValueList"
        assert report["apiVersion"] == "custom.metrics.k8s.io/v1beta2"
        names = {item["metric"]["name"] for item in report["items"]}
        assert names == {"repro_sessions_per_worker",
                         "repro_step_latency_p99_ms",
                         "repro_queue_depth",
                         "repro_slo_burn_rate"}
        for item in report["items"]:
            described = item["describedObject"]
            assert described["kind"] == "Service"
            assert described["name"] == "repro-serve"
            assert 1 <= item["windowSeconds"] <= 60
            assert re.fullmatch(r"-?\d+m", item["value"])
            assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                                item["timestamp"])
        signals = report["signals"]
        assert set(signals) == {"sessions_per_worker",
                                "step_latency_p99_ms", "queue_depth",
                                "slo_burn_rate"}
        assert signals["sessions_per_worker"] > 0
        assert signals["step_latency_p99_ms"] > 0
        assert report["workers_alive"] == 2
        assert report["sessions_open"] >= 1
        # The quantity encodes the signal in milli-units.
        by_name = {i["metric"]["name"]: i["value"]
                   for i in report["items"]}
        assert by_name["repro_sessions_per_worker"] == (
            f"{int(round(signals['sessions_per_worker'] * 1000))}m")


class TestSoakHarness:
    def test_short_soak_passes_its_gates(self):
        from repro.serve.cluster.soak import render_soak, run_soak
        from repro.trace.trace import ValueTrace

        pcs, values = workload(240)
        trace = ValueTrace("soak-test",
                           np.asarray(pcs, dtype=np.uint32),
                           np.asarray(values, dtype=np.uint32))
        report = run_soak(DFCMSpec(64, 256), trace, workers=2,
                          sessions=2, duration_s=2.0, block=64,
                          poll_interval_s=0.5)
        assert report["kind"] == "cluster_soak"
        assert report["passes"] >= 2
        assert report["parity_ok"] is True
        assert report["mismatched_passes"] == 0
        assert report["errors"] == []
        assert report["slo_ok"] is True
        assert report["soak_ok"] is True
        assert report["records_per_s"] > 0
        samples = [s for s in report["samples"] if "signals" in s]
        assert samples, "no telemetry samples collected"
        assert samples[-1]["workers_alive"] == 2
        assert report["peak_burn"] <= report["max_burn"]
        # The trace dump ships recent cross-process spans.
        assert report["trace_dump"]["retained"] > 0
        for span in report["trace_dump"]["spans"]:
            assert span["source"] == "router"
        text = render_soak(report)
        assert "soak: PASS" in text

    def test_soak_rejects_bad_arguments(self):
        from repro.serve.cluster.soak import run_soak
        from repro.trace.trace import ValueTrace
        pcs, values = workload(10)
        trace = ValueTrace("soak-bad",
                           np.asarray(pcs, dtype=np.uint32),
                           np.asarray(values, dtype=np.uint32))
        spec = DFCMSpec(64, 256)
        with pytest.raises(ValueError):
            run_soak(spec, trace, workers=0)
        with pytest.raises(ValueError):
            run_soak(spec, trace, duration_s=0)
        with pytest.raises(ValueError):
            run_soak(spec, trace, max_burn=0)
