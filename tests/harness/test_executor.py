"""The parallel sweep executor: resolution, determinism, telemetry.

Process-pool tests use real worker processes (fork on Linux); traces
are kept tiny so the whole module stays fast.
"""

import json

import pytest

from repro.core.spec import DFCMSpec, StrideSpec
from repro.harness.executor import (EXECUTOR_NAMES, executor_default,
                                    resolve_executor, run_cells)
from repro.harness.simulate import measure_suite
from repro.harness.sweep import sweep
from tests.conftest import repeating_trace, stride_trace

SPEC = DFCMSpec(256, 64)


@pytest.fixture(autouse=True)
def clean_telemetry_state():
    """Close stray runs and zero the registry around every test."""
    from repro.telemetry import run as run_module
    from repro.telemetry import spans as spans_module
    from repro.telemetry.registry import registry
    registry().reset()
    run_module.finish_run()
    spans_module._STACK.clear()
    yield
    run_module.finish_run()
    spans_module._STACK.clear()
    registry().reset()


def small_suite():
    return [stride_trace("a", 0x1000, 0, 3, 600),
            repeating_trace("b", 0x2000, [5, 9, 2], 200),
            stride_trace("c", 0x3000, 7, -1, 600)]


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert resolve_executor() == ("serial", 1)

    def test_jobs_above_one_implies_process(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_executor(jobs=4) == ("process", 4)

    def test_serial_forces_one_job(self):
        assert resolve_executor("serial", jobs=8) == ("serial", 1)

    def test_process_without_count_takes_cpu_count(self):
        name, jobs = resolve_executor("process")
        assert name == "process" and jobs >= 1

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            resolve_executor(jobs=0)

    def test_unknown_executor(self):
        with pytest.raises(ValueError):
            resolve_executor("threads")
        assert "threads" not in EXECUTOR_NAMES

    def test_environment_is_ignored(self, monkeypatch):
        # jobs= and executor_default (the CLI's --jobs) set the count.
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_executor() == ("serial", 1)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_executor("serial") == ("serial", 1)


class TestEnvJobsValidation:
    def test_empty_env_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        assert resolve_executor() == ("serial", 1)

    def test_explicit_jobs_skip_env_validation(self, monkeypatch):
        # A bad env var must not poison an explicitly-configured run.
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert resolve_executor("serial", jobs=1) == ("serial", 1)


class TestJobsClamping:
    def _clamp_count(self):
        from repro.telemetry.registry import registry
        snapshot = registry().snapshot().get("repro_jobs_clamped_total")
        if not snapshot:
            return 0
        return sum(s["value"] for s in snapshot["samples"])

    def test_oversubscription_clamps_to_cores(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert resolve_executor(jobs=16) == ("process", 2)
        assert self._clamp_count() == 1

    def test_within_budget_untouched(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_executor(jobs=8) == ("process", 8)
        assert self._clamp_count() == 0

    def test_clamp_emits_warning_event_under_telemetry(self, monkeypatch,
                                                       tmp_path):
        from repro.telemetry.run import finish_run, start_run
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        run = start_run(tmp_path / "telemetry", command="test")
        run_dir = run.dir
        resolve_executor(jobs=5)
        finish_run()
        events = [json.loads(line) for line
                  in (run_dir / "events.jsonl").read_text().splitlines()]
        warnings = [e for e in events if e.get("what") == "jobs_clamped"]
        assert len(warnings) == 1
        assert warnings[0]["requested"] == 5
        assert warnings[0]["cpu_count"] == 2


class TestExecutorDefault:
    def test_installs_and_restores(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        with executor_default(jobs=4):
            assert resolve_executor() == ("process", 4)
        assert resolve_executor() == ("serial", 1)

    def test_explicit_argument_wins(self):
        with executor_default(jobs=4):
            assert resolve_executor("serial") == ("serial", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            with executor_default(jobs=0):
                pass


class TestProcessDeterminism:
    def test_measure_suite_matches_serial(self):
        traces = small_suite()
        serial = measure_suite(SPEC, traces, executor="serial")
        parallel = measure_suite(SPEC, traces, executor="process", jobs=3)
        assert parallel.per_trace.keys() == serial.per_trace.keys()
        for name in serial.per_trace:
            assert parallel.per_trace[name] == serial.per_trace[name]
        assert parallel.accuracy == serial.accuracy

    def test_sweep_matches_serial(self):
        traces = small_suite()
        factories = [StrideSpec(64), SPEC]
        serial = sweep(factories, traces, executor="serial")
        parallel = sweep(factories, traces, executor="process", jobs=2)
        assert parallel == serial

    def test_run_cells_preserves_submission_order(self):
        traces = small_suite()
        cells = [(SPEC, trace) for trace in traces]
        outcomes = run_cells(cells, jobs=2)
        assert [o.trace_name for o in outcomes] == [t.name for t in traces]

    def test_opaque_factory_stays_serial(self):
        # Closures don't pickle; the suite must fall back silently and
        # still produce the same numbers.
        from repro.core.dfcm import DFCMPredictor
        traces = small_suite()
        opaque = measure_suite(lambda: DFCMPredictor(256, 64), traces,
                               executor="process", jobs=3)
        assert opaque.accuracy == measure_suite(SPEC, traces).accuracy


class TestWorkerTelemetry:
    def _run_events(self, tmp_path):
        from repro.telemetry.run import finish_run, start_run
        from repro.telemetry.spans import span
        run = start_run(tmp_path / "telemetry", command="test")
        run_dir = run.dir
        with span("experiment", experiment="x"):
            measure_suite(SPEC, small_suite(), executor="process",
                          jobs=2)
        finish_run()
        lines = (run_dir / "events.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    def test_worker_spans_forwarded_and_reparented(self, tmp_path):
        events = self._run_events(tmp_path)
        spans = {e["span_id"]: e for e in events if e["type"] == "span"}
        worker = [e for e in spans.values()
                  if e["span_id"].startswith("w")]
        assert worker, "no worker spans forwarded"
        cells = {e["attrs"]["cell"] for e in worker}
        assert cells == {0, 1, 2}
        experiment = next(e for e in spans.values()
                          if e["name"] == "experiment")
        for event in worker:
            prefix = event["span_id"].split(":")[0]
            if event["parent_id"] is None or \
                    not event["parent_id"].startswith(prefix + ":"):
                # Worker root spans hang off the parent's open span.
                assert event["parent_id"] == experiment["span_id"]
            assert event["depth"] >= 1
            assert "ts" in event  # re-stamped on the parent clock

    def test_worker_trace_spans_carry_engine(self, tmp_path):
        events = self._run_events(tmp_path)
        predictor_spans = [e for e in events if e["type"] == "span"
                           and e["name"] == "predictor"
                           and e["span_id"].startswith("w")]
        assert predictor_spans
        for event in predictor_spans:
            assert event["attrs"]["engine"] in ("batch", "scalar")

    def test_worker_metrics_merged(self, tmp_path):
        from repro.telemetry.registry import registry
        from repro.telemetry.run import finish_run, start_run
        from repro.telemetry.spans import span
        run = start_run(tmp_path / "telemetry", command="test")
        with span("experiment"):
            suite = measure_suite(SPEC, small_suite(), executor="process",
                                  jobs=2)
        snapshot = registry().snapshot()
        finish_run()
        totals = snapshot["repro_predictions_total"]
        assert sum(s["value"] for s in totals["samples"]) == suite.total

    def test_probe_events_tagged_with_cell(self, tmp_path):
        events = self._run_events(tmp_path)
        probes = [e for e in events if e["type"] == "probe"]
        assert probes
        assert all("cell" in e for e in probes)


class TestSweepSpans:
    def test_sweep_points_labelled_with_engine_and_jobs(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        from repro.telemetry.run import finish_run, start_run
        run = start_run(tmp_path / "telemetry", command="test")
        run_dir = run.dir
        sweep([StrideSpec(64), SPEC], small_suite(),
              executor="process", jobs=2)
        finish_run()
        events = [json.loads(line) for line
                  in (run_dir / "events.jsonl").read_text().splitlines()]
        points = [e for e in events if e["type"] == "span"
                  and e["name"] == "sweep_point"]
        assert len(points) == 2
        for event in points:
            assert event["attrs"]["jobs"] == 2
            assert event["attrs"]["engine"] == "batch"
