"""Accuracy measurement, reproducing the paper's metric.

The paper reports, per configuration, "the arithmetic mean over all
SPECint benchmarks, weighted by the number of predicted instructions" --
equivalently, pooled correct predictions over pooled predictions.  Each
benchmark gets a *fresh* predictor (the paper simulates each benchmark
separately).

Measurement goes through the engine layer
(:mod:`repro.core.engines`): configurations described by a
:class:`~repro.core.spec.PredictorSpec` -- passed directly, or
discovered on a factory-built predictor's ``.spec`` attribute -- are
replayed by :func:`~repro.core.engines.run_spec` (the vectorised batch
kernels where the spec has them, bit-identical to the scalar loop;
``engine="scalar"`` pins the loop); everything else runs the
classic per-record scalar loop on the instance itself.

Telemetry: when a run is active (:func:`repro.telemetry.enabled`),
:func:`measure_accuracy` wraps the replay in a ``predictor`` span
(labelled with the engine that actually ran), records prediction
counters and, for a spec, the sampled ``table_usage`` audit;
:func:`measure_cell` adds a per-``trace`` span plus the heavyweight
table probes (level-2 occupancy, aliasing, confidence) through
:mod:`repro.telemetry.probes`, each bounded to a prefix of
:data:`~repro.telemetry.probes.SAMPLE_LIMIT` records.  When no run is
active the guard is a single boolean check per *call* -- the record
loop itself is identical to the uninstrumented code, which is the
overhead guarantee ``tests/telemetry/test_overhead.py`` enforces.

:func:`measure_suite` fans its per-trace cells over the process pool
when the resolved executor (see :mod:`repro.harness.executor`) is
``'process'`` and the configuration is spec-described (specs are
picklable; closures are not); results merge in trace order, so serial
and parallel runs are identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Union

from repro.core.base import ValuePredictor
from repro.core.engines import count_correct, run_spec
from repro.core.spec import PredictorSpec, spec_of
from repro.telemetry import run as _telemetry_run
from repro.telemetry.spans import span
from repro.trace.trace import ValueTrace

__all__ = ["AccuracyResult", "SuiteResult", "measure_accuracy",
           "measure_cell", "measure_suite", "factory_spec"]

#: A measurement configuration: a declarative spec, or the historical
#: zero-argument predictor factory (specs are callable, so they pass).
PredictorLike = Union[PredictorSpec, Callable[[], ValuePredictor]]


@dataclass(frozen=True)
class AccuracyResult:
    """Outcome of one predictor on one trace."""

    predictor_name: str
    trace_name: str
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions (0.0 on an empty trace)."""
        return self.correct / self.total if self.total else 0.0


@dataclass
class SuiteResult:
    """Outcomes of one predictor configuration across a benchmark suite.

    ``storage_kbit`` records the modelled size of the measured
    instances (every trace gets a fresh but identically-configured
    predictor), so sweep code can label points without instantiating a
    throwaway probe predictor.
    """

    predictor_name: str
    per_trace: Dict[str, AccuracyResult] = field(default_factory=dict)
    storage_kbit: float = 0.0

    @property
    def correct(self) -> int:
        return sum(r.correct for r in self.per_trace.values())

    @property
    def total(self) -> int:
        return sum(r.total for r in self.per_trace.values())

    @property
    def accuracy(self) -> float:
        """The paper's metric: mean weighted by predicted instructions."""
        total = self.total
        return self.correct / total if total else 0.0

    def accuracy_of(self, trace_name: str) -> float:
        return self.per_trace[trace_name].accuracy


def factory_spec(predictor_factory: PredictorLike) -> Optional[PredictorSpec]:
    """The spec behind a factory, or ``None`` for opaque closures.

    A :class:`PredictorSpec` is its own answer; otherwise one probe
    instance is built and its declarative twin (``predictor.spec``,
    via the exact-type-checked :func:`~repro.core.spec.spec_of`) is
    trusted.  Factories are assumed pure -- the measurement loop and
    the probes already call them repeatedly.
    """
    if isinstance(predictor_factory, PredictorSpec):
        return predictor_factory
    return spec_of(predictor_factory())


def _measure_spec(spec: PredictorSpec, trace: ValueTrace,
                  engine: Optional[str] = None) -> AccuracyResult:
    """Replay *spec* over *trace* (``engine`` as for ``run_spec``)."""
    if not _telemetry_run.enabled():
        outcome = run_spec(spec, trace, engine)
    else:
        with span("predictor", predictor=spec.name, trace=trace.name) as sp:
            started = time.perf_counter()
            outcome = run_spec(spec, trace, engine)
            elapsed = time.perf_counter() - started
            sp.set("engine", outcome.engine)
            sp.set("predictions", outcome.total)
            sp.set("correct", outcome.correct)
            sp.set("accuracy", round(outcome.accuracy, 6))
        from repro.telemetry.probes import probe_table_usage, record_accuracy
        record_accuracy(spec, trace.name, outcome.correct, outcome.total,
                        elapsed)
        probe_table_usage(spec, trace)
    return AccuracyResult(
        predictor_name=spec.name,
        trace_name=trace.name,
        correct=outcome.correct,
        total=outcome.total,
    )


def measure_accuracy(predictor, trace: ValueTrace,
                     engine: Optional[str] = None) -> AccuracyResult:
    """Run *trace* through *predictor*; returns correct/total counts.

    *predictor* is either a stateful :class:`ValuePredictor` instance
    -- measured by the scalar loop and trained as a side effect (pass
    a fresh instance for an independent measurement) -- or a
    :class:`~repro.core.spec.PredictorSpec`, replayed by the engine
    layer without any instance escaping (*engine* as for
    :func:`~repro.core.engines.run_spec`).  Under an active telemetry
    run a spec also gets its sampled ``table_usage`` audit, once per
    (spec, trace).
    """
    if isinstance(predictor, PredictorSpec):
        return _measure_spec(predictor, trace, engine)
    records = trace.records()
    if not _telemetry_run.enabled():
        correct = count_correct(predictor, records)
    else:
        with span("predictor", predictor=predictor.name,
                  trace=trace.name, engine="scalar") as sp:
            started = time.perf_counter()
            correct = count_correct(predictor, records)
            elapsed = time.perf_counter() - started
            sp.set("predictions", len(records))
            sp.set("correct", correct)
            sp.set("accuracy",
                   round(correct / len(records), 6) if records else 0.0)
        from repro.telemetry.probes import record_accuracy
        record_accuracy(predictor, trace.name, correct, len(records),
                        elapsed)
    return AccuracyResult(
        predictor_name=predictor.name,
        trace_name=trace.name,
        correct=correct,
        total=len(records),
    )


def measure_cell(predictor_factory: PredictorLike, trace: ValueTrace,
                 engine: Optional[str] = None) -> AccuracyResult:
    """One (configuration, trace) measurement cell.

    The shared body of serial and parallel suite measurement: an
    instrumented cell wraps the replay in a ``trace`` span and runs
    the heavyweight table/confidence probes; an uninstrumented cell is
    just the measurement.
    """
    spec = (predictor_factory
            if isinstance(predictor_factory, PredictorSpec) else None)
    if not _telemetry_run.enabled():
        if spec is not None:
            return _measure_spec(spec, trace, engine)
        return measure_accuracy(predictor_factory(), trace)
    predictor = spec if spec is not None else predictor_factory()
    with span("trace", benchmark=trace.name, predictor=predictor.name):
        outcome = measure_accuracy(predictor, trace, engine)
        from repro.telemetry.probes import (probe_confidence,
                                            probe_context_tables)
        probe_context_tables(predictor_factory, trace)
        probe_confidence(predictor_factory, trace)
    return outcome


def measure_suite(
    predictor_factory: PredictorLike,
    traces: Sequence[ValueTrace],
    engine: Optional[str] = None,
    executor: Optional[str] = None,
    jobs: Optional[int] = None,
) -> SuiteResult:
    """Measure one configuration over a suite, fresh state per trace.

    *predictor_factory* is a zero-argument callable returning a fresh
    predictor (the historical interface) or a
    :class:`~repro.core.spec.PredictorSpec`.  Spec-described
    configurations route through the engine layer (and, when the
    resolved executor is ``'process'``, across the worker pool);
    opaque factories run the scalar loop serially, exactly as before.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("measure_suite needs at least one trace")
    spec = factory_spec(predictor_factory)
    if spec is not None:
        name, storage_kbit = spec.name, spec.storage_kbit()
        runner: PredictorLike = spec
    else:
        probe = predictor_factory()
        name, storage_kbit = probe.name, probe.storage_kbit()
        runner = predictor_factory
    from repro.harness.executor import resolve_executor, run_cells
    executor_name, n_jobs = resolve_executor(executor, jobs)
    if executor_name == "process" and spec is not None and len(traces) > 1:
        outcomes = run_cells([(spec, trace) for trace in traces],
                             engine=engine, jobs=n_jobs)
    else:
        outcomes = [measure_cell(runner, trace, engine) for trace in traces]
    result = SuiteResult(predictor_name=name, storage_kbit=storage_kbit)
    for outcome in outcomes:
        result.per_trace[outcome.trace_name] = outcome
    return result
