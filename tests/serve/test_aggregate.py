"""The router's fleet aggregates: ``/metrics`` and ``/scale``.

``Router.metrics_snapshot`` merges each live worker's registry snapshot
(what a worker's ``/metrics?format=json`` serves) into the router's
own, labelling every worker sample ``worker="i"``, and the obs route
renders the result as one exposition.  It is only trustworthy if the
merge survives the awkward snapshots real workers send: samples that
already carry labels, label values containing escapes, and several
processes declaring one family with drifting HELP text.
``scale_report`` derives the autoscaling signals from the aggregated
``/healthz`` and ``/slo``.  Everything here runs against canned worker
answers: no fleet, no sockets.
"""

import asyncio
import json
import types
from urllib.parse import parse_qs

from repro.serve.cluster.router import Router
from repro.serve.obs import ObservabilityServer
from repro.telemetry.registry import MetricsRegistry, registry
from tests.serve.test_obs import parse_prometheus


def make_router(monkeypatch, *workers):
    """A router over no fleet whose scrape of worker *i* answers
    ``workers[i]`` (``None``: that worker's scrape failed); the paths
    it scraped land in ``router.paths``."""
    router = Router(types.SimpleNamespace(worker_kwargs={}))
    router.paths = []

    async def scrape(path):
        router.paths.append(path)
        return list(enumerate(workers))

    monkeypatch.setattr(router, "_scrape_workers", scrape)
    return router


def worker_snapshot(record):
    """A worker registry's snapshot after ``record(registry)``, as it
    crosses the wire (JSON)."""
    reg = MetricsRegistry()
    record(reg)
    return json.loads(json.dumps(reg.snapshot(), sort_keys=True))


def get(router, query=""):
    """(content type, body) of the router's ``/metrics``, through the
    obs route."""
    status, content_type, body = asyncio.run(
        ObservabilityServer(router)._route("/metrics", parse_qs(query)))
    assert status == "200 OK"
    return content_type, body.decode("utf-8")


def scrape_lines(router, query=""):
    return get(router, query)[1].splitlines()


class TestInjectLabels:
    def test_bare_sample_gains_a_label_block(self, monkeypatch):
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.gauge("agg_bare_up").set(1)))
        assert 'agg_bare_up{worker="0"} 1' in scrape_lines(router)

    def test_spliced_into_existing_labels(self, monkeypatch):
        router = make_router(monkeypatch, None, None, worker_snapshot(
            lambda reg: reg.counter("agg_splice_total", labels=("type",))
            .inc(5, type="step")))
        assert 'agg_splice_total{worker="2",type="step"} 5' in \
            scrape_lines(router)

    def test_multiple_labels_in_order(self, monkeypatch):
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.counter("agg_multi_total", labels=("a", "b"))
            .inc(a="1", b="2")))
        assert 'agg_multi_total{worker="0",a="1",b="2"} 1' in \
            scrape_lines(router)

    def test_no_labels_is_identity(self, monkeypatch):
        # The router's own samples keep exactly their own labels.
        registry().gauge("agg_own_depth", labels=("kind",)).set(
            2, kind="parked")
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.gauge("agg_other_up").set(1)))
        assert 'agg_own_depth{kind="parked"} 2' in scrape_lines(router)

    def test_non_sample_line_passes_through(self, monkeypatch):
        # A family only the workers declare keeps its HELP and TYPE.
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.counter("agg_wonly_total",
                                    "Worker-only family.").inc()))
        lines = scrape_lines(router)
        assert "# HELP agg_wonly_total Worker-only family." in lines
        assert "# TYPE agg_wonly_total counter" in lines

    def test_escaped_label_values_survive(self, monkeypatch):
        # A label value holding a quote and a literal { keeps both,
        # escaped, behind the injected label.
        router = make_router(monkeypatch, None, worker_snapshot(
            lambda reg: reg.counter("agg_errors_total", labels=("msg",))
            .inc(3, msg='bad "id{" seen')))
        assert 'agg_errors_total{worker="1",msg="bad \\"id{\\" seen"} 3' \
            in scrape_lines(router)

    def test_exemplar_suffix_untouched(self, monkeypatch):
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.histogram("agg_lat_seconds", buckets=(0.1,))
            .observe(0.07, exemplar="00ab")))
        assert "trace_id" not in get(router)[1]
        assert ('agg_lat_seconds_bucket{worker="0",le="0.1"} 1 '
                '# {trace_id="00ab"} 0.07') in \
            scrape_lines(router, "exemplars=1")


class TestMergePrometheusTexts:
    def test_injects_worker_label_into_prelabeled_samples(self,
                                                          monkeypatch):
        snapshot = worker_snapshot(
            lambda reg: reg.counter("agg_req_total", "requests",
                                    labels=("type",)).inc(5, type="step"))
        lines = scrape_lines(make_router(monkeypatch, snapshot, snapshot))
        assert 'agg_req_total{worker="0",type="step"} 5' in lines
        assert 'agg_req_total{worker="1",type="step"} 5' in lines

    def test_help_and_type_deduped_under_conflict(self, monkeypatch):
        registry().gauge("agg_conflict_up", "liveness")  # router first
        old = worker_snapshot(lambda reg: reg.gauge(
            "agg_conflict_up", "liveness (v2 wording)").set(1))
        first = worker_snapshot(lambda reg: reg.gauge(
            "agg_conflict_ready", "readiness").set(1))
        second = worker_snapshot(lambda reg: reg.gauge(
            "agg_conflict_ready", "readiness (v2 wording)").set(1))
        _, text = get(make_router(monkeypatch, old, first, second))
        # The first declaration's metadata wins, exactly once.
        assert text.count("# HELP agg_conflict_up ") == 1
        assert text.count("# TYPE agg_conflict_up ") == 1
        assert "# HELP agg_conflict_up liveness\n" in text
        assert text.count("# HELP agg_conflict_ready ") == 1
        assert text.count("# TYPE agg_conflict_ready ") == 1
        assert "# HELP agg_conflict_ready readiness\n" in text
        assert "(v2 wording)" not in text

    def test_histogram_children_group_under_base_family(self,
                                                        monkeypatch):
        snapshot = worker_snapshot(
            lambda reg: reg.histogram("agg_hist_seconds", "seconds",
                                      buckets=(0.1,)).observe(0.05))
        _, text = get(make_router(monkeypatch, snapshot, snapshot))
        lines = text.splitlines()
        head = lines.index("# TYPE agg_hist_seconds histogram")
        family = [line for line in lines
                  if line.startswith("agg_hist_seconds_")]
        # One header, then both workers' buckets, sum and count.
        assert text.count("# TYPE agg_hist_seconds ") == 1
        assert lines[head + 1:head + 1 + len(family)] == family
        assert len(family) == 8
        for worker in ("0", "1"):
            assert (f'agg_hist_seconds_bucket{{worker="{worker}",'
                    f'le="+Inf"}} 1') in family
            assert f'agg_hist_seconds_count{{worker="{worker}"}} 1' in family
        metrics, types_ = parse_prometheus(text)  # strict parse
        assert types_["agg_hist_seconds"] == "histogram"
        assert len(metrics["agg_hist_seconds_sum"]) == 2

    def test_plain_counter_ending_in_count_stays_itself(self, monkeypatch):
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.counter("agg_beans_count", "beans").inc(7)))
        lines = scrape_lines(router)
        assert "# TYPE agg_beans_count counter" in lines
        assert 'agg_beans_count{worker="0"} 7' in lines

    def test_unlabelled_part_passes_through_verbatim(self, monkeypatch):
        # The router's registry can hold a worker family already (the
        # supervisor folds drained workers in, unlabelled): its own
        # sample stays as it is and the live workers' join it.
        registry().gauge("agg_shared_frames").set(12)
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.gauge("agg_shared_frames").set(5)))
        _, text = get(router)
        lines = text.splitlines()
        assert "agg_shared_frames 12" in lines
        assert 'agg_shared_frames{worker="0"} 5' in lines
        assert text.count("# TYPE agg_shared_frames ") == 1

    def test_family_order_is_sorted(self, monkeypatch):
        registry().gauge("agg_order_beta").set(1)  # the router's: first
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.gauge("agg_order_alpha").set(1)))
        _, text = get(router)
        assert text.index("agg_order_alpha") < text.index("agg_order_beta")

    def test_empty_input(self, monkeypatch):
        assert get(make_router(monkeypatch),
                   "prefix=agg_no_such_family_")[1] == ""

    def test_failed_worker_scrape_is_skipped(self, monkeypatch):
        router = make_router(monkeypatch, None, worker_snapshot(
            lambda reg: reg.gauge("agg_survivor_up").set(1)))
        _, text = get(router)
        assert 'agg_survivor_up{worker="1"} 1' in text.splitlines()
        assert 'worker="0"' not in text

    def test_prefix_filters_worker_samples_too(self, monkeypatch):
        registry().gauge("agg_pfx_router_up").set(1)
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.gauge("agg_pfx_worker_up").set(1)))
        _, text = get(router, "prefix=agg_pfx_")
        # The workers filter their own snapshot by the same prefix.
        assert router.paths == ["/metrics?format=json&prefix=agg_pfx_"]
        assert text.splitlines() == [
            "# TYPE agg_pfx_router_up gauge", "agg_pfx_router_up 1",
            "# TYPE agg_pfx_worker_up gauge",
            'agg_pfx_worker_up{worker="0"} 1']

    def test_json_format_serves_the_merged_snapshot(self, monkeypatch):
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.gauge("agg_json_up").set(1)))
        content_type, body = get(router, "format=json&prefix=agg_json_")
        assert content_type == "application/json"
        assert json.loads(body)["agg_json_up"]["samples"] == [
            {"labels": {"worker": "0"}, "value": 1}]
        assert router.paths == ["/metrics?format=json&prefix=agg_json_"]


class TestJsonRoundTrip:
    def test_merged_snapshot_merges_into_a_registry(self, monkeypatch):
        # The router holds a drained worker's fold of a family the live
        # workers also send: the merged family declares ``worker``
        # first, and the fold carries ``worker=""``.
        registry().counter("agg_fold_total", "folded",
                           labels=("type",)).inc(3, type="step")
        router = make_router(monkeypatch, worker_snapshot(
            lambda reg: reg.counter("agg_fold_total", "folded",
                                    labels=("type",)).inc(5, type="step")))
        snapshot = json.loads(get(router, "format=json&prefix=agg_fold_")[1])
        assert snapshot["agg_fold_total"]["label_names"] == ["worker", "type"]
        merged = MetricsRegistry()
        merged.merge_snapshot(snapshot)
        assert merged.snapshot() == snapshot
        # An empty label value is an absent one: the text is unchanged.
        assert scrape_lines(router, "prefix=agg_fold_") == [
            "# HELP agg_fold_total folded",
            "# TYPE agg_fold_total counter",
            'agg_fold_total{type="step"} 3',
            'agg_fold_total{worker="0",type="step"} 5']


class TestScaleReport:
    def test_signals_come_from_healthz_and_slo(self, monkeypatch):
        router = make_router(monkeypatch)

        async def healthz():
            return {"workers": [{"worker": 0, "queue_depth": 3},
                                {"worker": 1, "queue_depth": 7},
                                {"worker": 2, "queue_depth": 0}]}

        async def slo_report():
            return {
                "slos": [
                    {"name": "w0:lat", "fast_burn": 9.0, "slow_burn": 1.5,
                     "alerting": False},
                    {"name": "w1:lat", "fast_burn": 3.0, "slow_burn": 2.0,
                     "alerting": True},
                    {"name": "w0:queue", "fast_burn": 2.5,
                     "slow_burn": 2.25, "alerting": True}],
                "alerts": ["w1:lat", "w0:queue"],
                "latency": {"p99_ms": 4.5, "window_s": 12.2}}

        monkeypatch.setattr(router, "healthz", healthz)
        monkeypatch.setattr(router, "slo_report", slo_report)
        report = asyncio.run(router.scale_report())
        assert report["signals"] == {
            "sessions_per_worker": 0.0, "step_latency_p99_ms": 4.5,
            "queue_depth": 7,
            # The worst *sustained* burn: min of the two windows.
            "slo_burn_rate": 2.25}
        assert report["alerts"] == ["w0:queue", "w1:lat"]
        assert {item["windowSeconds"] for item in report["items"]} == {13}
