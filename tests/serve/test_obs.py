"""The observability endpoint, end to end over real sockets.

Covers the acceptance paths of the live-observability work: /metrics
is valid Prometheus 0.0.4 (parsed, not pattern-matched) and /healthz
answers while loadgen traffic is in flight; every request's trace id
shows up in span events and the slow-request sample; an induced
latency breach flips /healthz to degraded through the burn-rate
monitor; and the obs listener keeps batched throughput within
tolerance of a server without it.
"""

import asyncio
import json
import re
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.spec import DFCMSpec, StrideSpec
from repro.serve.client import ServeClient
from repro.serve.cluster import ClusterThread
from repro.serve.loadgen import run_loadgen, wire_records
from repro.serve.obs import get_json
from repro.serve.server import ServerThread
from repro.serve.service import RequestLog
from repro.serve.tracing import RequestTrace, format_trace_id
from repro.telemetry import run as telemetry_run_module
from repro.telemetry.export import find_run, read_events
from repro.telemetry.slo import SLO
from repro.trace.trace import ValueTrace


def make_trace(n=300):
    pcs = np.tile(np.asarray([0x40, 0x44, 0x48], dtype=np.int64),
                  n // 3 + 1)
    values = (np.arange(n, dtype=np.int64) * 5) & 0xFFFFFFFF
    return ValueTrace("obs-test", pcs[:n], values[:n])


def http_get(port, path, timeout=5.0):
    """(status, content_type, body_text) for a GET against localhost."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return (resp.status, resp.headers.get("Content-Type", ""),
                    resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return (err.code, err.headers.get("Content-Type", ""),
                err.read().decode("utf-8"))


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})? '
    r'(?P<value>[0-9eE.+-]+|\+Inf|-Inf|NaN)$')
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Strict 0.0.4 parse: {name: {kind, samples: [(labels, value)]}}.

    Raises AssertionError on any line that is not a comment, a blank,
    or a well-formed sample -- the test's validity check *is* the
    parse.
    """
    metrics = {}
    types = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                base = name[:-len(suffix)]
        assert base in types, f"sample {name} has no # TYPE header"
        metrics.setdefault(name, []).append(
            (labels, float(match.group("value"))))
    return metrics, types


class TestEndpointSurface:
    def test_routes_and_content_types(self):
        with ServerThread(obs_port=0) as server:
            assert server.obs_port  # ephemeral port was bound
            status, ctype, body = http_get(server.obs_port, "/")
            assert status == 200 and "json" in ctype
            assert "/metrics" in json.loads(body)["endpoints"]
            status, ctype, _ = http_get(server.obs_port, "/metrics")
            assert status == 200
            assert ctype == "text/plain; version=0.0.4; charset=utf-8"
            for path in ("/healthz", "/slo", "/slow"):
                status, ctype, body = http_get(server.obs_port, path)
                assert status == 200 and "json" in ctype
                json.loads(body)

    def test_unknown_path_is_404(self):
        with ServerThread(obs_port=0) as server:
            # /scale and /cluster exist only on the cluster router.
            for path in ("/nope", "/scale", "/cluster"):
                status, _, _ = http_get(server.obs_port, path)
                assert status == 404

    def test_non_get_is_405(self):
        with ServerThread(obs_port=0) as server:
            req = urllib.request.Request(
                f"http://127.0.0.1:{server.obs_port}/metrics",
                data=b"x", method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=5)
            assert err.value.code == 405

    def test_no_obs_port_means_no_endpoint(self):
        with ServerThread() as server:
            assert server.obs_port is None

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs all of 127.0.0.0/8 on loopback")
    @pytest.mark.parametrize("make", [
        lambda: ServerThread(host="0.0.0.0", obs_port=0),
        lambda: ClusterThread(workers=1, host="0.0.0.0", obs_port=0),
    ], ids=["server", "cluster"])
    def test_obs_binds_the_data_host(self, make):
        """A wildcard data host must not leave the obs endpoint on
        loopback only: 127.0.0.2 reaches a 0.0.0.0 listener but not a
        127.0.0.1 one."""
        with make() as served:
            for port in (served.port, served.obs_port):
                socket.create_connection(("127.0.0.2", port),
                                         timeout=5).close()


class TestGetJson:
    """The one obs client: answers parse, failures raise what ``main()``
    reports as an ``error:`` line."""

    def test_answers_and_failures(self):
        with ServerThread(obs_port=0) as server:
            port = server.obs_port
            snapshot = asyncio.run(get_json(
                "127.0.0.1", port,
                "/metrics?format=json&prefix=repro_serve_table_"))
            assert "repro_serve_table_occupancy" in snapshot
            assert all(name.startswith("repro_serve_table_")
                       for name in snapshot)
            with pytest.raises(ValueError, match="404"):
                asyncio.run(get_json("127.0.0.1", port, "/nope"))
        with pytest.raises(ConnectionError):
            asyncio.run(get_json("127.0.0.1", port, "/healthz"))
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen(1)
            with pytest.raises(TimeoutError, match="within 0.2s"):
                asyncio.run(get_json("127.0.0.1", silent.getsockname()[1],
                                     "/healthz", timeout=0.2))


class TestScrapeUnderTraffic:
    def test_metrics_and_healthz_answer_during_loadgen(self):
        """The acceptance path: scrape the live endpoint *while* the
        data plane is replaying a trace."""
        scrapes = []
        errors = []
        done = threading.Event()

        def poller(port):
            while not done.is_set():
                try:
                    _, _, text = http_get(port, "/metrics")
                    _, _, health = http_get(port, "/healthz")
                    scrapes.append((text, json.loads(health)))
                except Exception as exc:  # noqa: BLE001 - fails the test
                    errors.append(exc)
                    return
                time.sleep(0.01)

        with ServerThread(obs_port=0) as server:
            thread = threading.Thread(target=poller,
                                      args=(server.obs_port,))
            thread.start()
            report = run_loadgen(DFCMSpec(256, 1024), make_trace(600),
                                 "127.0.0.1", server.port, mode="batched",
                                 block=64)
            # One scrape strictly after the traffic, before shutdown.
            _, _, final_text = http_get(server.obs_port, "/metrics")
            _, _, final_health = http_get(server.obs_port, "/healthz")
            done.set()
            thread.join(timeout=10)

        assert not errors
        assert scrapes, "poller never completed a scrape"
        assert report["modes"]["batched"]["records"] == 600

        metrics, types = parse_prometheus(final_text)
        assert types["repro_serve_requests_total"] == "counter"
        assert types["repro_serve_request_seconds"] == "histogram"
        served = sum(v for labels, v
                     in metrics["repro_serve_requests_total"]
                     if labels["type"] == "step_block")
        assert served >= 600 / 64
        # Histogram invariants: +Inf bucket present and equal to count.
        buckets = [s for s in metrics["repro_serve_request_seconds_bucket"]
                   if s[0]["type"] == "step_block"]
        assert any(labels["le"] == "+Inf" for labels, _ in buckets)
        inf = sum(v for labels, v in buckets if labels["le"] == "+Inf")
        count = sum(v for labels, v
                    in metrics["repro_serve_request_seconds_count"]
                    if labels["type"] == "step_block")
        assert inf == count >= 1

        health = json.loads(final_health)
        assert health["status"] == "ok"
        assert health["records_served"] >= 600
        assert health["queue_depth"] >= 0

    def test_slo_report_has_live_percentiles(self):
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(StrideSpec(64))
            for i in range(20):
                client.step(session, 0x40, i)
            _, _, body = http_get(server.obs_port, "/slo")
        slo = json.loads(body)
        assert slo["records_served"] == 20
        assert slo["latency"]["count"] >= 1
        assert slo["latency"]["p99_ms"] >= slo["latency"]["p50_ms"]
        names = [s["name"] for s in slo["slos"]]
        assert "step_latency_p99" in names and "queue_depth" in names

    def test_metrics_exemplars_opt_in(self):
        with ServerThread(obs_port=0) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(StrideSpec(64))
            client.step(session, 0x40, 7)
            _, _, strict = http_get(server.obs_port, "/metrics")
            _, _, annotated = http_get(server.obs_port,
                                       "/metrics?exemplars=1")
        assert "# {" not in strict
        parse_prometheus(strict)  # still strict 0.0.4
        assert re.search(r'# \{trace_id="[0-9a-f]{16}"\}', annotated)


class TestTraceVisibility:
    def test_trace_id_reaches_spans_and_slow_sample(self, tmp_path):
        run = telemetry_run_module.start_run(tmp_path, command="obs-test")
        try:
            with ServerThread(obs_port=0) as server:
                with ServeClient(port=server.port) as client:
                    session = client.open_session(StrideSpec(64))
                    client.step(session, 0x40, 7)
                    step_trace = format_trace_id(client.last_trace_id)
                    assert client.last_trace_id != 0
            final = server.final_stats
        finally:
            telemetry_run_module.finish_run()

        # The slow sample (here: everything, k >> requests) has it.
        slow_ids = [e["trace_id"]
                    for e in final["slow_requests"]["slowest"]]
        assert step_trace in slow_ids
        # Every sampled request carries a nonzero trace id.
        assert all(re.fullmatch(r"[0-9a-f]{16}", t) and int(t, 16)
                   for t in slow_ids)

        spans = [e for e in read_events(find_run(tmp_path, run.run_id))
                 if e.get("type") == "span"
                 and e.get("name") == "serve.request"]
        assert spans, "no serve.request span events were emitted"
        by_trace = {s["attrs"]["trace_id"]: s for s in spans}
        assert step_trace in by_trace
        span = by_trace[step_trace]
        assert span["attrs"]["type"] == "step"
        assert span["attrs"]["status"] == "ok"
        assert "stages_ms" in span["attrs"]
        # Stage stamps were actually taken on the data path.
        assert {"queue", "fuse", "execute", "flush"} <= set(
            span["attrs"]["stages_ms"])

    def test_slow_endpoint_matches_final_sample(self):
        with ServerThread(obs_port=0) as server:
            with ServeClient(port=server.port) as client:
                session = client.open_session(StrideSpec(64))
                for i in range(10):
                    client.step(session, 0x40, i)
                _, _, body = http_get(server.obs_port, "/slow")
        live = json.loads(body)
        assert live["observed"] >= 10
        for entry in live["slowest"]:
            assert entry["latency_ms"] >= 0
            assert re.fullmatch(r"[0-9a-f]{16}", entry["trace_id"])

    def test_trace_endpoint_serves_stored_spans(self):
        with ServerThread(obs_port=0) as server:
            with ServeClient(port=server.port) as client:
                session = client.open_session(StrideSpec(64))
                client.step(session, 0x40, 7)
                step_trace = format_trace_id(client.last_trace_id)
                status, _, body = http_get(
                    server.obs_port, f"/trace/{step_trace}")
                assert status == 200
                lookup = json.loads(body)
                assert lookup["found"] is True
                assert lookup["trace_id"] == step_trace
                (span,) = lookup["spans"]
                assert span["source"] == "worker"
                assert span["type"] == "step"
                assert {"queue", "fuse", "execute", "flush"} <= set(
                    span["stages_ms"])
                # The dump lists recent spans; ?limit bounds it.
                _, _, body = http_get(server.obs_port, "/trace?limit=1")
                dump = json.loads(body)
                assert dump["retained"] == 1
                assert dump["stored"] >= 2  # open_session + step

    def test_trace_endpoint_unknown_id_and_bad_id(self):
        with ServerThread(obs_port=0) as server:
            status, _, body = http_get(
                server.obs_port, "/trace/00000000000000ff")
            assert status == 200
            assert json.loads(body)["found"] is False
            status, _, _ = http_get(server.obs_port, "/trace/nope!")
            assert status == 400


class TestBurnRateDegrade:
    def test_latency_breach_flips_healthz_degraded(self):
        # A 0-second latency bound every data request must violate,
        # against a 50% objective: burn = 1/0.5 = 2 >= BURN_RATE in
        # both windows as soon as requests flow.
        slo = SLO(name="latency_breach", kind="latency", threshold=0.0,
                  objective=0.5)
        with ServerThread(obs_port=0, slos=[slo]) as server:
            with ServeClient(port=server.port) as client:
                session = client.open_session(StrideSpec(64))
                for i in range(10):
                    client.step(session, 0x40, i)
                health = self._poll_until_degraded(server.obs_port)
                assert health["status"] == "degraded"
                assert health["alerts"] == ["latency_breach"]
                _, _, slo_body = http_get(server.obs_port, "/slo")
                _, _, metrics_text = http_get(server.obs_port, "/metrics")
        final = server.final_stats
        report = json.loads(slo_body)
        assert report["healthy"] is False
        (status,) = report["slos"]
        assert status["alerting"] is True
        assert status["fast_burn"] >= 1.0
        metrics, _ = parse_prometheus(metrics_text)
        assert metrics["repro_serve_healthy"][0][1] == 0.0
        alerts = [v for labels, v
                  in metrics["repro_serve_slo_alerts_total"]
                  if labels["slo"] == "latency_breach"]
        assert alerts == [1.0]
        assert final["alerts"] == ["latency_breach"]

    @staticmethod
    def _poll_until_degraded(port, deadline_s=10.0):
        deadline = time.monotonic() + deadline_s
        while True:
            _, _, body = http_get(port, "/healthz")
            health = json.loads(body)
            if health["status"] == "degraded" \
                    or time.monotonic() >= deadline:
                return health
            time.sleep(0.02)

    def test_healthy_server_stays_ok(self):
        # Generous bounds: nothing should fire on a quiet local replay.
        with ServerThread(obs_port=0) as server:
            with ServeClient(port=server.port) as client:
                session = client.open_session(StrideSpec(64))
                for i in range(10):
                    client.step(session, 0x40, i)
                _, _, body = http_get(server.obs_port, "/healthz")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["alerts"] == []

    def test_empty_slo_list_disables_monitor(self):
        with ServerThread(obs_port=0, slos=[]) as server:
            _, _, body = http_get(server.obs_port, "/slo")
            report = json.loads(body)
            assert report["slos"] == []
            assert report["healthy"] is True


class _NullHistogram:
    def observe(self, *args, **kwargs):
        pass


class TestLatencyWindow:
    def test_window_reports_the_span_it_covers(self):
        # 5,000 data-path requests 1 ms apart: the window keeps the
        # last 4,096, which cover about 4.1 s, not the nominal 60 s.
        log = RequestLog(_NullHistogram())
        assert log.window_summary()["window_s"] == 0.0
        now = time.monotonic()
        for i in range(5000):
            t_done = now - (4999 - i) * 1e-3
            trace = RequestTrace(trace_id=i + 1, frame_type="step",
                                 t_recv=t_done - 1e-4)
            trace.finish("flush", t_done)
            log.record(trace)
        summary = log.window_summary()
        elapsed = time.monotonic() - now
        assert summary["count"] == 4096
        # The oldest span kept ended 4.095 s before ``now``, and the
        # summary was read at most ``elapsed`` after it (+1 ms for the
        # rounding of window_s), however long the loop took.
        assert 4.095 <= summary["window_s"] <= 4.095 + elapsed + 1e-3


class TestOverheadGuard:
    def test_observability_keeps_batched_throughput(self):
        """The obs listener (``obs_port``) must cost < 5% of batched
        throughput.  Tracing and the SLO feed run in every server, so
        both sides carry them: this guard times the listener.

        Both servers stay up side by side, one client and one session
        each.  Every 512-record STEP_BLOCK of a 48,000-record trace goes
        to both, alternating which goes first, so each pair of round
        trips shares the host's state of the moment; the guard reads
        the median of the per-block throughput ratios.
        """
        spec = DFCMSpec(256, 1024)
        pcs, values = wire_records(make_trace(48_000))
        block = 512
        ratios = []
        with ServerThread() as base, ServerThread(obs_port=0) as observed, \
                ServeClient(port=base.port) as base_client, \
                ServeClient(port=observed.port) as observed_client:
            sides = [(client, client.open_session(spec))
                     for client in (base_client, observed_client)]
            for n, start in enumerate(range(0, len(pcs), block)):
                seconds, hits = {}, {}
                for client, session in (sides if n % 2 else sides[::-1]):
                    started = time.perf_counter()
                    _, hits[client] = client.step_block(
                        session, pcs[start:start + block],
                        values[start:start + block])
                    seconds[client] = time.perf_counter() - started
                assert hits[base_client] == hits[observed_client]
                ratios.append(seconds[base_client]
                              / seconds[observed_client])
        ratio = statistics.median(ratios)
        assert ratio >= 0.95, (
            f"observability overhead too high: the obs server's batched "
            f"throughput is {ratio:.3f}x the plain server's (median of "
            f"{len(ratios)} paired blocks)")
