"""The engine throughput benchmark (repro.harness.bench)."""

import json

import pytest

from repro.harness import bench as bench_module
from repro.harness.bench import (MIN_SPEEDUP, bench_specs, render_bench,
                                 run_bench, write_report)
from tests.conftest import repeating_trace, stride_trace


@pytest.fixture(scope="module")
def report():
    traces = [stride_trace("a", 0x1000, 0, 3, 2000),
              repeating_trace("b", 0x2000, [5, 9, 2, 7], 500)]
    return run_bench(traces=traces, fast=True)


class TestBenchSpecs:
    def test_grid_covers_batch_families(self):
        families = [family for family, _ in bench_specs()]
        assert families == ["lvp", "stride", "stride2d", "fcm", "dfcm",
                            "hybrid"]

    def test_specs_are_picklable_specs(self):
        import pickle
        for _, spec in bench_specs():
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestMinSpeedup:
    def test_default(self, report):
        assert report["guard"]["min_speedup"] == MIN_SPEEDUP == 5.0

    def test_environment_is_ignored(self, monkeypatch):
        # The threshold is a constant: no variable sets it.
        monkeypatch.setenv("REPRO_BENCH_MIN_SPEEDUP", "banana")
        traces = [stride_trace("t", 0x1000, 0, 3, 1500)]
        report = run_bench(traces=traces, fast=True)
        assert report["guard"]["min_speedup"] == 5.0

    def test_threshold_recorded_in_report(self, monkeypatch):
        monkeypatch.setattr(bench_module, "MIN_SPEEDUP", 0.01)
        traces = [stride_trace("t", 0x1000, 0, 3, 1500)]
        report = run_bench(traces=traces, fast=True)
        assert report["guard"]["min_speedup"] == 0.01
        assert "0.01x" in render_bench(report)


class TestRunBench:
    def test_schema(self, report):
        assert report["schema"] == 1
        assert report["schema_version"] == 1
        assert report["mode"] == "fast"
        assert report["anchor"] == {"benchmark": "a", "records": 2000}
        assert report["suite_traces"] == ["a", "b"]
        assert len(report["families"]) == len(bench_specs())
        for entry in report["families"]:
            assert entry["scalar_seconds"] > 0
            assert entry["batch_seconds"] > 0
            assert entry["speedup"] == pytest.approx(
                entry["scalar_seconds"] / entry["batch_seconds"], rel=1e-2)

    def test_engines_agree_on_counts(self, report):
        # run_bench raises if they don't; the recorded count is real.
        for entry in report["families"]:
            assert 0 <= entry["correct"] <= entry["records"]

    def test_fast_mode_records_but_never_fails_guard(self, report):
        guard = report["guard"]
        assert guard["min_speedup"] == MIN_SPEEDUP
        assert guard["enforced"] is False
        assert guard["passed"] is True

    def test_needs_a_trace(self):
        with pytest.raises(ValueError):
            run_bench(traces=[])


class TestRendering:
    def test_render_mentions_guard_and_families(self, report):
        text = render_bench(report)
        assert "guard" in text
        assert "dfcm" in text and "hybrid" in text
        assert "recorded only" in text

    def test_write_report_round_trips(self, report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == report
