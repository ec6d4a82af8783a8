"""Scalar-vs-batch table-usage parity: same reports, same events.

The auditor's two replays feed one shared vectorised accumulator, so
their reports -- and the ``table_usage`` probe events built from them
-- must be equal field for field across every audited family.  The
carried per-entry state additionally makes chunk boundaries
invisible: a warm-started (chunked) audit equals a one-shot audit bit
for bit.

The auditor picks its replay from the spec; these tests reach the
scalar one for a spec the kernels support by patching
:meth:`BatchEngine.supports` (:func:`scalar_replay`).
"""

import contextlib
import json
from unittest import mock

import pytest

from repro.core.engines.batch import BatchEngine
from repro.core.spec import (DFCMSpec, FCMSpec, LastValueSpec,
                             OracleHybridSpec, StrideSpec,
                             TwoDeltaStrideSpec)
from repro.harness.simulate import measure_accuracy, measure_suite
from repro.telemetry import run as telemetry_run_module
from repro.telemetry.probes import probe_table_usage
from repro.telemetry.tables import TableUsageAuditor
from tests.conftest import interleaved, repeating_trace, stride_trace

SPECS = [
    FCMSpec(256, 64),
    DFCMSpec(256, 64),
    StrideSpec(128),
    TwoDeltaStrideSpec(128),
    LastValueSpec(128),
    OracleHybridSpec((StrideSpec(64), DFCMSpec(128, 64))),
]


def mixed_trace(n_each=120):
    """Stride and context patterns interleaved, with pc collisions on
    the small audited tables (so the alias counters exercise too)."""
    return interleaved(
        stride_trace("s", 0x1000, 0, 4, n_each),
        repeating_trace("ctx", 0x1004, [3, 8, 1, 9, 4, 7], n_each // 6),
        stride_trace("t", 0x2008, 17, 9, n_each),
    )


def scalar_replay():
    """While active, no spec has batch kernels: the auditor (and
    ``run_spec``) take the scalar path."""
    return mock.patch.object(BatchEngine, "supports", return_value=False)


def replay(engine):
    return scalar_replay() if engine == "scalar" else contextlib.nullcontext()


def audit(spec, trace, engine, chunk=None):
    with replay(engine):
        auditor = TableUsageAuditor(spec)
    assert auditor.engine == engine
    pcs, values = trace.pcs, trace.values
    if chunk is None:
        auditor.update(pcs, values)
    else:
        for start in range(0, len(pcs), chunk):
            auditor.update(pcs[start:start + chunk],
                           values[start:start + chunk])
    return auditor


class TestReportParity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_batch_equals_scalar(self, spec):
        trace = mixed_trace()
        batch = audit(spec, trace, "batch")
        scalar = audit(spec, trace, "scalar")
        assert batch.report() == scalar.report()

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_chunked_equals_one_shot(self, spec):
        # Chunk size 37 never divides the trace: every boundary lands
        # mid-pattern, which is exactly what the carried state hides.
        trace = mixed_trace()
        for engine in ("batch", "scalar"):
            one_shot = audit(spec, trace, engine).report()
            chunked = audit(spec, trace, engine, chunk=37).report()
            assert chunked == one_shot, f"{engine} audit is chunk-sensitive"

    def test_batch_falls_back_for_unsupported_specs(self):
        from repro.core.spec import HashSpec
        spec = FCMSpec(64, 256, hash=HashSpec(8, "xor", 4))
        assert not BatchEngine.supports(spec)
        auditor = TableUsageAuditor(spec)
        assert auditor.engine == "scalar"


def table_usage_events(run):
    telemetry_run_module.finish_run()
    events = [json.loads(line) for line
              in (run.dir / "events.jsonl").read_text().splitlines()]
    return [e for e in events if e.get("probe") == "table_usage"]


class TestEventParity:
    """Measuring a spec publishes one ``table_usage`` sample per
    (spec, trace) pair, identical whichever replay audits it."""

    def test_batch_run_and_scalar_probe_emit_equal_payloads(self, tmp_path):
        spec = DFCMSpec(256, 64)
        trace = mixed_trace()

        run = telemetry_run_module.start_run(tmp_path / "batch",
                                             command="parity")
        assert measure_accuracy(spec, trace).total == len(trace)
        [from_batch] = table_usage_events(run)

        run = telemetry_run_module.start_run(tmp_path / "scalar",
                                             command="parity")
        with scalar_replay():
            measure_accuracy(spec, trace)
        [from_scalar] = table_usage_events(run)

        from_batch.pop("ts")
        from_scalar.pop("ts")
        assert from_batch == from_scalar
        assert from_batch["probe"] == "table_usage"
        assert from_batch["predictor"] == spec.name
        assert from_batch["trace"] == trace.name

    def test_shared_once_key_deduplicates_across_paths(self, tmp_path):
        spec = FCMSpec(256, 64)
        trace = mixed_trace()
        run = telemetry_run_module.start_run(tmp_path, command="parity")
        measure_accuracy(spec, trace)
        with scalar_replay():
            measure_accuracy(spec, trace)  # same (spec, trace): no-op
        probe_table_usage(spec, trace)
        assert len(table_usage_events(run)) == 1

    def test_every_measured_pair_logs_one_event(self, tmp_path):
        # One site for every caller: a spec measured on the pinned
        # scalar engine is audited too, and a suite logs one event per
        # (spec, trace) cell.
        spec = DFCMSpec(256, 64)
        run = telemetry_run_module.start_run(tmp_path / "pinned",
                                             command="parity")
        measure_accuracy(spec, mixed_trace(), engine="scalar")
        assert len(table_usage_events(run)) == 1

        traces = [mixed_trace(), stride_trace("u", 0x3000, 5, 7, 200)]
        run = telemetry_run_module.start_run(tmp_path / "suite",
                                             command="parity")
        measure_suite(spec, traces)
        assert sorted(e["trace"] for e in table_usage_events(run)) == \
            sorted(t.name for t in traces)

    def test_sample_limit_bounds_both_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_SAMPLE", "100")
        spec = DFCMSpec(256, 64)
        trace = mixed_trace()
        assert len(trace) > 100
        for engine in ("batch", "scalar"):
            run = telemetry_run_module.start_run(tmp_path / engine,
                                                 command="parity")
            with replay(engine):
                measure_accuracy(spec, trace)
            [event] = table_usage_events(run)
            assert event["sampled_records"] == 100

    def test_sample_limit_zero_disables_batch_probe(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_SAMPLE", "0")
        run = telemetry_run_module.start_run(tmp_path, command="parity")
        measure_accuracy(DFCMSpec(256, 64), mixed_trace())
        assert table_usage_events(run) == []
