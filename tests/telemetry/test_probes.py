"""Domain probes: predictor table/confidence samples, VM profiles."""

import json

from repro.core.dfcm import DFCMPredictor
from repro.core.stride import StridePredictor
from repro.telemetry.probes import (SAMPLE_LIMIT, probe_confidence,
                                    probe_context_tables, record_accuracy,
                                    record_vm_profile)
from repro.telemetry.registry import registry
from repro.telemetry.run import finish_run
from repro.vm.profile import VMProfile
from tests.conftest import repeating_trace, stride_trace


def dfcm_factory():
    return DFCMPredictor(1 << 6, 1 << 6)


def closed_events(run):
    finish_run()
    return [json.loads(line)
            for line in (run.dir / "events.jsonl").read_text().splitlines()]


class TestDisabledProbesAreNoops:
    def test_probes_do_nothing_without_a_run(self):
        trace = stride_trace("s", 0x1000, 0, 4, 50)
        probe_context_tables(dfcm_factory, trace)
        probe_confidence(dfcm_factory, trace)
        record_vm_profile(VMProfile(), "bench")
        assert registry().get("repro_l2_stride_entries_used") is None \
            or not registry().get("repro_l2_stride_entries_used").samples()

    def test_sample_limit_default_and_env(self, active_run, monkeypatch):
        # The bound is a constant: the environment does not move it.
        assert SAMPLE_LIMIT == 8192
        monkeypatch.setenv("REPRO_TELEMETRY_SAMPLE", "100")
        trace = repeating_trace("ctx", 0x1000, list(range(7)), 40)
        probe_confidence(dfcm_factory, trace)
        [event] = [e for e in closed_events(active_run)
                   if e.get("probe") == "confidence"]
        assert event["sampled_records"] == len(trace) == 280


class TestContextTableProbe:
    def test_records_occupancy_and_aliasing(self, active_run):
        # Stride content is what the occupancy counter tracks: an
        # access only counts when the reference stride predictor gets
        # the value right (paper Figures 6/9).
        trace = stride_trace("ctx", 0x1000, 0, 4, 200)
        probe_context_tables(dfcm_factory, trace)
        events = closed_events(active_run)
        probes = {e["probe"]: e for e in events if e["type"] == "probe"}
        assert "l2_occupancy" in probes and "aliasing" in probes
        occupancy = probes["l2_occupancy"]
        assert occupancy["l2_entries"] == 64
        assert 0 < occupancy["entries_used"] <= 64
        assert 0 < occupancy["occupancy_ratio"] <= 1
        fractions = probes["aliasing"]["fractions"]
        assert abs(sum(fractions.values()) - 1.0) < 1e-6
        gauge = registry().get("repro_l2_stride_occupancy_ratio")
        [(labels, value)] = gauge.samples()
        assert labels["trace"] == "ctx"
        assert value == occupancy["occupancy_ratio"]

    def test_non_context_predictors_skipped(self, active_run):
        trace = stride_trace("s", 0x1000, 0, 4, 50)
        probe_context_tables(lambda: StridePredictor(1 << 6), trace)
        events = closed_events(active_run)
        assert not [e for e in events if e["type"] == "probe"]

    def test_deduplicated_within_a_run(self, active_run):
        trace = repeating_trace("ctx", 0x1000, [1, 2, 3], 30)
        probe_context_tables(dfcm_factory, trace)
        probe_context_tables(dfcm_factory, trace)
        events = closed_events(active_run)
        occupancy = [e for e in events if e.get("probe") == "l2_occupancy"]
        assert len(occupancy) == 1


class TestConfidenceProbe:
    def test_wraps_and_measures(self, active_run):
        trace = repeating_trace("ctx", 0x1000, list(range(7)), 40)
        probe_confidence(dfcm_factory, trace)
        events = closed_events(active_run)
        [event] = [e for e in events if e.get("probe") == "confidence"]
        assert event["sampled_records"] == len(trace)
        assert 0 <= event["coverage"] <= 1
        assert 0 <= event["accuracy_when_confident"] <= 1
        coverage = registry().get("repro_confidence_coverage")
        [(labels, value)] = coverage.samples()
        assert labels["trace"] == "ctx"
        assert value == event["coverage"]


class TestAccuracyAndVMProbes:
    def test_record_accuracy_counters(self, active_run):
        predictor = dfcm_factory()
        record_accuracy(predictor, "tr", correct=30, total=100, seconds=0.02)
        assert registry().get("repro_predictions_total").value(
            predictor=predictor.name, trace="tr") == 100
        assert registry().get("repro_prediction_hits_total").value(
            predictor=predictor.name, trace="tr") == 30
        histogram = registry().get("repro_measure_seconds")
        assert histogram.count(predictor=predictor.name) == 1

    def test_record_vm_profile(self, active_run):
        profile = VMProfile(sample_interval=10)
        profile.record_sample(0x1000, "addi")
        profile.record_sample(0x1000, "addi")
        profile.record_sample(0x2000, "lw")
        profile.record_syscall(3)
        profile.retired = 30
        record_vm_profile(profile, "bench")
        assert registry().get("repro_vm_instructions_total").value(
            benchmark="bench") == 30
        assert registry().get("repro_vm_syscalls_total").value(
            benchmark="bench", code="3") == 1
        events = closed_events(active_run)
        [event] = [e for e in events if e.get("probe") == "vm_profile"]
        assert event["opcode_mix"] == {"addi": 2, "lw": 1}
        assert event["hot_pcs"][0] == ["0x00001000", 2]
