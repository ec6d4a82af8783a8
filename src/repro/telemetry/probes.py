"""Domain probes: predictor and VM instrumentation behind the registry.

Probes translate the repo's existing measurement machinery -- the
table-usage accounting of :mod:`repro.telemetry.tables`
(:func:`~repro.telemetry.tables.stride_occupancy`, the
:class:`~repro.telemetry.tables.AliasingAnalyzer`, the
:class:`~repro.telemetry.tables.TableUsageAuditor`), the confidence
estimators of :mod:`repro.core.estimator`, the VM's sampling profile --
into registry metrics plus one ``probe`` event per sample in the run's
JSONL log.

Every probe is a no-op unless a telemetry run is active, and the
heavyweight ones (occupancy, aliasing, table usage, confidence replay
a *fresh* predictor over the trace) are bounded to a prefix of
:func:`probe_sample_limit` records so enabling telemetry scales the
run's cost by a constant factor, not by the sweep size squared.

The ``table_usage`` event is emitted once per (spec, trace) pair, by
:func:`probe_table_usage` from the one place a spec's accuracy is
measured (:func:`repro.harness.simulate.measure_accuracy`).  The
auditor replays through the batch kernels when the spec has them and
through the scalar predictor otherwise; by the parity suite both
replays publish the exact same payload.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.telemetry import run as _run
from repro.telemetry.registry import registry

__all__ = [
    "probe_sample_limit", "record_accuracy", "probe_context_tables",
    "probe_table_usage", "probe_confidence", "record_vm_profile",
]

_DEFAULT_SAMPLE_LIMIT = 8192


def probe_sample_limit() -> int:
    """Records replayed by table/alias/confidence probes
    (``REPRO_TELEMETRY_SAMPLE``, default 8192; 0 disables the
    heavyweight probes entirely)."""
    env = os.environ.get("REPRO_TELEMETRY_SAMPLE")
    if env:
        limit = int(env)
        if limit < 0:
            raise ValueError(
                f"REPRO_TELEMETRY_SAMPLE must be >= 0, got {limit}")
        return limit
    return _DEFAULT_SAMPLE_LIMIT


# ------------------------------------------------------------- accuracy

def record_accuracy(predictor, trace_name: str, correct: int, total: int,
                    seconds: float) -> None:
    """Counters for one ``measure_accuracy`` call (telemetry enabled)."""
    reg = registry()
    labels = dict(predictor=predictor.name, trace=trace_name)
    reg.counter("repro_predictions_total",
                "Predictions issued by the measurement harness",
                labels=("predictor", "trace")).inc(total, **labels)
    reg.counter("repro_prediction_hits_total",
                "Correct predictions", labels=("predictor", "trace")
                ).inc(correct, **labels)
    reg.gauge("repro_predictor_storage_kbit",
              "Modelled predictor state (paper's Kbit axis)",
              labels=("predictor",)).set(predictor.storage_kbit(),
                                         predictor=predictor.name)
    reg.histogram("repro_measure_seconds",
                  "Wall time of one measure_accuracy call",
                  buckets=(.01, .05, .25, 1, 5, 30),
                  labels=("predictor",)).observe(seconds,
                                                 predictor=predictor.name)


# -------------------------------------------------- context-table probes

def probe_context_tables(predictor_factory: Callable, trace) -> None:
    """Occupancy + aliasing sample for a context predictor on *trace*.

    Replays a bounded prefix through fresh instances using the
    table-usage machinery of :mod:`~repro.telemetry.tables`; records
    registry gauges and one ``probe`` event each.  Non-context
    predictors (no level-2 table) are skipped silently.
    """
    run = _run.active_run()
    if run is None:
        return
    limit = probe_sample_limit()
    if limit == 0:
        return
    from repro.core.spec import PredictorSpec
    if (isinstance(predictor_factory, PredictorSpec)
            and predictor_factory.family not in ("fcm", "dfcm")):
        return  # spec says non-context: skip without building an instance
    from repro.core.dfcm import DFCMPredictor
    from repro.core.fcm import FCMPredictor
    from repro.telemetry.tables import (ALIAS_CATEGORIES, AliasingAnalyzer,
                                        stride_occupancy)
    probe = predictor_factory()
    if not isinstance(probe, (FCMPredictor, DFCMPredictor)):
        return
    if not run.once(("context_tables", probe.name, trace.name)):
        return
    records = trace.records()[:limit]
    if not records:
        return
    reg = registry()
    labels = dict(predictor=probe.name, trace=trace.name)

    occ = stride_occupancy(predictor_factory(), records)
    entries_used = occ.entries_with_at_least(1)
    occupancy_ratio = entries_used / occ.l2_entries
    top16 = occ.top_share(16)
    reg.gauge("repro_l2_stride_entries_used",
              "Level-2 entries taking at least one stride access "
              "(sampled prefix)", labels=("predictor", "trace")
              ).set(entries_used, **labels)
    reg.gauge("repro_l2_stride_occupancy_ratio",
              "Fraction of the level-2 table touched by stride accesses "
              "(sampled prefix)", labels=("predictor", "trace")
              ).set(occupancy_ratio, **labels)
    reg.gauge("repro_l2_stride_top16_share",
              "Share of stride accesses on the 16 hottest level-2 "
              "entries (sampled prefix)", labels=("predictor", "trace")
              ).set(top16, **labels)
    run.emit({
        "type": "probe", "probe": "l2_occupancy",
        "predictor": probe.name, "trace": trace.name,
        "sampled_records": len(records),
        "l2_entries": occ.l2_entries,
        "stride_accesses": occ.stride_accesses,
        "entries_used": entries_used,
        "occupancy_ratio": round(occupancy_ratio, 6),
        "top16_share": round(top16, 6),
    })

    report = AliasingAnalyzer(predictor_factory()).run(records)
    alias_gauge = reg.gauge(
        "repro_alias_fraction",
        "Share of sampled predictions per alias category",
        labels=("predictor", "trace", "category"))
    fractions = {}
    for category in ALIAS_CATEGORIES:
        fraction = report.fraction_of_predictions(category)
        fractions[category] = round(fraction, 6)
        alias_gauge.set(fraction, category=category, **labels)
    run.emit({
        "type": "probe", "probe": "aliasing",
        "predictor": probe.name, "trace": trace.name,
        "sampled_records": len(records),
        "fractions": fractions,
        "accuracy": round(report.overall_accuracy(), 6),
    })


def probe_table_usage(spec, trace) -> None:
    """Table-usage sample: audit a bounded prefix of *trace* under
    *spec* and emit one ``table_usage`` event per (spec, trace) pair.

    Families outside :data:`~repro.telemetry.tables.AUDITED_FAMILIES`
    are skipped silently.
    """
    run = _run.active_run()
    if run is None:
        return
    limit = probe_sample_limit()
    if limit == 0:
        return
    from repro.telemetry.tables import (AUDITED_FAMILIES, TableUsageAuditor,
                                        emit_table_usage)
    if spec.family not in AUDITED_FAMILIES:
        return
    if not run.once(("table_usage", spec.name, trace.name)):
        return
    pcs = trace.pcs[:limit]
    values = trace.values[:limit]
    if not len(pcs):
        return
    auditor = TableUsageAuditor(spec)
    auditor.update(pcs, values)
    emit_table_usage(run, auditor.report(), trace.name)


def probe_confidence(predictor_factory: Callable, trace) -> None:
    """Confidence-outcome sample: wrap a fresh predictor in the paper's
    saturating-counter estimator and replay a bounded prefix."""
    run = _run.active_run()
    if run is None:
        return
    limit = probe_sample_limit()
    if limit == 0:
        return
    from repro.core.estimator import (ConfidentPredictor,
                                      CounterConfidencePredictor,
                                      measure_confidence)
    probe = predictor_factory()
    if not isinstance(probe, ConfidentPredictor):
        probe = CounterConfidencePredictor(probe, 1 << 12)
    if not run.once(("confidence", probe.name, trace.name)):
        return
    sample = trace if len(trace) <= limit else trace.head(limit)
    if not len(sample):
        return
    outcome = measure_confidence(probe, sample)
    coverage = outcome.confident / outcome.total if outcome.total else 0.0
    confident_accuracy = (outcome.confident_correct / outcome.confident
                          if outcome.confident else 0.0)
    reg = registry()
    labels = dict(predictor=probe.name, trace=trace.name)
    reg.gauge("repro_confidence_coverage",
              "Fraction of sampled predictions deemed confident",
              labels=("predictor", "trace")).set(coverage, **labels)
    reg.gauge("repro_confidence_accuracy",
              "Accuracy within the confident subset (sampled prefix)",
              labels=("predictor", "trace")).set(confident_accuracy,
                                                 **labels)
    run.emit({
        "type": "probe", "probe": "confidence",
        "predictor": probe.name, "trace": trace.name,
        "sampled_records": outcome.total,
        "coverage": round(coverage, 6),
        "accuracy_when_confident": round(confident_accuracy, 6),
    })


# ------------------------------------------------------------ VM profile

def record_vm_profile(profile, benchmark: str) -> None:
    """Registry metrics + one ``probe`` event for a finished VM profile
    (see :class:`repro.vm.profile.VMProfile`)."""
    run = _run.active_run()
    if run is None:
        return
    reg = registry()
    reg.counter("repro_vm_instructions_total",
                "Instructions retired by the VM during capture",
                labels=("benchmark",)).inc(profile.retired,
                                           benchmark=benchmark)
    syscall_counter = reg.counter("repro_vm_syscalls_total",
                                  "Syscalls executed during capture",
                                  labels=("benchmark", "code"))
    for code, count in sorted(profile.syscall_counts.items()):
        syscall_counter.inc(count, benchmark=benchmark, code=code)
    op_counter = reg.counter("repro_vm_opcode_samples_total",
                             "Sampled opcode mix during capture",
                             labels=("benchmark", "mnemonic"))
    for mnemonic, count in sorted(profile.op_counts.items()):
        op_counter.inc(count, benchmark=benchmark, mnemonic=mnemonic)
    run.emit({
        "type": "probe", "probe": "vm_profile",
        "benchmark": benchmark,
        "retired_instructions": profile.retired,
        "sample_interval": profile.sample_interval,
        "samples": profile.samples,
        "opcode_mix": dict(sorted(profile.op_counts.items())),
        "syscall_counts": {str(k): v for k, v
                           in sorted(profile.syscall_counts.items())},
        "hot_pcs": [[f"{pc:#010x}", count]
                    for pc, count in profile.top_pcs(10)],
    })
