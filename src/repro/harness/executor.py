"""Parallel execution of (predictor spec, trace) measurement cells.

``repro run --jobs N`` and ``sweep(..., executor="process")`` fan the
independent cells of a suite or sweep -- one (configuration, trace)
pair each -- across a :class:`~concurrent.futures.ProcessPoolExecutor`.
Cells must be described by a picklable
:class:`~repro.core.spec.PredictorSpec`; traces travel as their raw
``(name, pcs, values)`` arrays so a worker never unpickles the parent's
cached record list.

Determinism: results come back in submission order (``pool.map``), so
a parallel suite/sweep produces byte-identical figure output to the
serial one.

Telemetry: each worker first detaches the fork-inherited parent run
(:func:`repro.telemetry.run.detach_run` -- closing it would double-
flush the parent's buffered event file), zeroes its fork-copied
metrics registry, and installs an in-memory
:class:`~repro.telemetry.run.CollectorRun`.  The events and the
registry snapshot it collects travel back with the cell result; the
parent stitches them into its own file-backed run -- span ids are
namespaced ``w<cell>:``, root spans re-parent under the parent's
innermost open span, every event is tagged with its cell index, and
worker metrics fold into the parent registry via
:meth:`~repro.telemetry.registry.MetricsRegistry.merge_snapshot`.

Resolution: the job count is the explicit ``jobs=`` argument, else
the default :func:`executor_default` installed (the CLI's ``--jobs``),
else 1.  More than one job selects the process executor; an explicit
``executor="serial"`` pins serial, which always reports one job, and
an explicit ``executor="process"`` without a count takes every core.  A
job count above ``os.cpu_count()`` is clamped to the core count
(recorded via the ``repro_jobs_clamped_total`` counter and, under an
active telemetry run, a ``jobs_clamped`` warning event).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

__all__ = ["EXECUTOR_NAMES", "executor_default", "resolve_executor",
           "run_cells"]

EXECUTOR_NAMES = ("serial", "process")

_DEFAULT = {"jobs": None}


@contextmanager
def executor_default(jobs: Optional[int] = None):
    """Install a process-wide default job count (the CLI's ``--jobs``
    flag); restores the previous default on exit."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    previous = _DEFAULT["jobs"]
    _DEFAULT["jobs"] = jobs
    try:
        yield
    finally:
        _DEFAULT["jobs"] = previous


def _clamp_jobs(n: int) -> int:
    """Cap a requested worker count at the machine's cores.

    More workers than cores only adds fork and scheduling overhead; the
    clamp is recorded (counter always, event when a telemetry run is
    active) so a CI log shows why fewer workers ran than were asked
    for.
    """
    cores = os.cpu_count() or 1
    if n <= cores:
        return n
    from repro.telemetry.registry import registry
    registry().counter(
        "repro_jobs_clamped_total",
        "Requested job counts clamped to the machine's cpu count.").inc()
    from repro.telemetry import run as _telemetry_run
    run = _telemetry_run.active_run()
    if run is not None:
        run.emit({"type": "warning", "what": "jobs_clamped",
                  "requested": n, "cpu_count": cores})
    return cores


def resolve_executor(executor: Optional[str] = None,
                     jobs: Optional[int] = None) -> Tuple[str, int]:
    """Resolve the two knobs to a concrete ``(name, jobs)`` pair."""
    n = jobs if jobs is not None else _DEFAULT["jobs"]
    if n is not None and n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    name = executor or ("process" if (n or 1) > 1 else "serial")
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}")
    if name == "serial":
        return "serial", 1
    return "process", _clamp_jobs(n) if n is not None else (os.cpu_count() or 2)


def _run_cell(payload):
    """Worker body: measure one cell under a collector run.

    Module-level so it pickles; receives everything it needs and
    returns ``(index, outcome, events, metrics_snapshot)``.
    """
    index, spec, trace_name, pcs, values, engine, collect = payload
    from repro.harness.simulate import measure_cell
    from repro.telemetry.registry import registry
    from repro.telemetry.run import collecting_run, detach_run
    from repro.trace.trace import ValueTrace
    detach_run()
    trace = ValueTrace(trace_name, pcs, values)
    if not collect:
        return index, measure_cell(spec, trace, engine), [], None
    registry().reset()
    with collecting_run(f"cell-{index}") as collector:
        outcome = measure_cell(spec, trace, engine)
    return index, outcome, collector.events, registry().snapshot()


def _forward_events(cell_index: int, events: List[dict]) -> None:
    """Merge one worker's event buffer into the parent's active run."""
    from repro.telemetry import run as _run
    from repro.telemetry.spans import current_span
    run = _run.active_run()
    if run is None or not events:
        return
    prefix = f"w{cell_index}:"
    parent = current_span()
    parent_id = parent.span_id if parent is not None else None
    base_depth = parent.depth + 1 if parent is not None else 0
    for event in events:
        event = dict(event)
        event.pop("ts", None)  # re-stamped on the parent's clock
        if event.get("type") == "span":
            if event.get("span_id"):
                event["span_id"] = prefix + event["span_id"]
            if event.get("parent_id"):
                event["parent_id"] = prefix + event["parent_id"]
            else:
                event["parent_id"] = parent_id
            event["depth"] = event.get("depth", 0) + base_depth
            attrs = dict(event.get("attrs") or {})
            attrs["cell"] = cell_index
            event["attrs"] = attrs
        else:
            event.setdefault("cell", cell_index)
        run.emit(event)


def forward_worker_events(worker_index: int,
                          events: List[dict]) -> None:
    """Merge a worker process's collected telemetry events into the
    parent's active run (span ids re-namespaced, depths re-based).

    The public face of the sweep executor's stitching machinery:
    :mod:`repro.serve.cluster` feeds each serve worker's event buffer
    through it at drain time, so one telemetry run sees spans from the
    whole fleet exactly as it sees spans from sweep cells.
    """
    _forward_events(worker_index, events)


def run_cells(cells: Sequence[tuple], engine: Optional[str] = None,
              jobs: Optional[int] = None) -> List:
    """Measure ``(spec, trace)`` cells on a process pool.

    Returns one :class:`~repro.harness.simulate.AccuracyResult` per
    cell, in submission order.  When the parent has an active
    telemetry run, worker events and metrics are merged into it as
    each cell's result arrives (also in submission order).
    """
    from repro.telemetry import run as _run
    from repro.telemetry.registry import registry
    cells = list(cells)
    if not cells:
        return []
    collect = _run.enabled()
    payloads = [
        (index, spec, trace.name, trace.pcs, trace.values, engine, collect)
        for index, (spec, trace) in enumerate(cells)
    ]
    n_jobs = max(1, min(jobs or (os.cpu_count() or 2), len(payloads)))
    results: List = [None] * len(payloads)
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        for index, outcome, events, metrics in pool.map(_run_cell, payloads):
            results[index] = outcome
            if collect:
                _forward_events(index, events)
                if metrics:
                    registry().merge_snapshot(metrics)
    return results
