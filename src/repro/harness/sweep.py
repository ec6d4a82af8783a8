"""Configuration sweeps and Pareto fronts (Figures 3 and 11)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.harness.executor import resolve_executor, run_cells
from repro.harness.simulate import (PredictorLike, SuiteResult, factory_spec,
                                    measure_suite)
from repro.telemetry.spans import span
from repro.trace.trace import ValueTrace

__all__ = ["SweepPoint", "sweep", "pareto_front"]


@dataclass(frozen=True)
class SweepPoint:
    """One measured predictor configuration."""

    label: str
    size_kbit: float
    accuracy: float
    params: tuple = field(default_factory=tuple)  # sorted (key, value) pairs

    def param(self, key: str):
        return dict(self.params)[key]


def _point(result: SuiteResult, meta: dict) -> SweepPoint:
    return SweepPoint(
        label=result.predictor_name,
        size_kbit=result.storage_kbit,
        accuracy=result.accuracy,
        params=tuple(sorted(meta.items())),
    )


def sweep(factories: Iterable[PredictorLike],
          traces: Sequence[ValueTrace],
          params: Sequence[dict] = (),
          engine: Optional[str] = None,
          executor: Optional[str] = None,
          jobs: Optional[int] = None) -> List[SweepPoint]:
    """Measure every configuration over the suite; one point each.

    ``params`` optionally supplies a metadata dict per configuration
    (same order) recorded on the points for later grouping.  When the
    resolved executor is ``'process'`` and every configuration is
    spec-described, the full (configuration, trace) grid is flattened
    onto the worker pool; results merge in submission order, so the
    points are identical to a serial sweep.
    """
    factories = list(factories)
    metadata: Sequence[dict] = list(params) or [{} for _ in factories]
    if len(metadata) != len(factories):
        raise ValueError("params must match factories in length")
    traces = list(traces)
    executor_name, n_jobs = resolve_executor(executor, jobs)
    engine_name = engine or "batch"
    specs = [factory_spec(factory) for factory in factories]
    parallel = (executor_name == "process"
                and all(spec is not None for spec in specs)
                and len(factories) * len(traces) > 1)
    points = []
    if parallel:
        cells = [(spec, trace) for spec in specs for trace in traces]
        outcomes = run_cells(cells, engine=engine, jobs=n_jobs)
        for index, (spec, meta) in enumerate(zip(specs, metadata)):
            with span("sweep_point", index=index, engine=engine_name,
                      jobs=n_jobs) as sp:
                result = SuiteResult(predictor_name=spec.name,
                                     storage_kbit=spec.storage_kbit())
                for offset in range(len(traces)):
                    outcome = outcomes[index * len(traces) + offset]
                    result.per_trace[outcome.trace_name] = outcome
                sp.set("predictor", result.predictor_name)
                sp.set("size_kbit", result.storage_kbit)
                sp.set("accuracy", round(result.accuracy, 6))
            points.append(_point(result, meta))
        return points
    for index, (factory, meta) in enumerate(zip(factories, metadata)):
        # Label and size come from the measured configuration's own
        # metadata (recorded by measure_suite) -- no throwaway probe
        # predictor.
        with span("sweep_point", index=index, engine=engine_name,
                  jobs=n_jobs) as sp:
            result = measure_suite(factory, traces, engine=engine,
                                   executor=executor_name, jobs=n_jobs)
            sp.set("predictor", result.predictor_name)
            sp.set("size_kbit", result.storage_kbit)
            sp.set("accuracy", round(result.accuracy, 6))
        points.append(_point(result, meta))
    return points


def pareto_front(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Points with higher accuracy than every same-or-smaller point.

    This is the paper's Pareto-graph construction (Figure 11(b)): keep
    a configuration only if no configuration of the same or smaller
    size reaches at least its accuracy.
    """
    ordered = sorted(points, key=lambda p: (p.size_kbit, -p.accuracy))
    front: List[SweepPoint] = []
    best = float("-inf")
    for point in ordered:
        if point.accuracy > best:
            front.append(point)
            best = point.accuracy
    return front
