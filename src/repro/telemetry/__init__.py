"""Unified observability: metrics registry, tracing spans, run sinks.

The repo's single observability surface.  Three layers:

1. **Registry** (:mod:`repro.telemetry.registry`) -- process-wide
   counters, gauges and fixed-bucket histograms with labels.  Always
   live; recording is plain dict arithmetic.
2. **Runs and spans** (:mod:`repro.telemetry.run`,
   :mod:`repro.telemetry.spans`) -- a run scopes a unit of work to a
   directory (manifest + JSONL event sink + metrics dump); spans are
   nested wall-time scopes emitted into that sink.  With no active run
   every span is the shared no-op singleton and every probe returns
   immediately: the measurement hot loops are byte-for-byte the
   uninstrumented code.
3. **Probes and export** (:mod:`repro.telemetry.probes`,
   :mod:`repro.telemetry.export`) -- domain instrumentation (predictor
   table occupancy, aliasing, confidence, VM profiles) and the read
   side (``repro telemetry summary|export|tail``, Prometheus text
   format).
4. **Live serving surfaces** (:mod:`repro.telemetry.live`,
   :mod:`repro.telemetry.slo`) -- scraping the in-process registry
   while it is still being written (the serve ``/metrics`` endpoint)
   and multi-window burn-rate evaluation of service-level objectives
   (the serve ``/healthz``/``/slo`` endpoints and ``repro top``).

Typical producer::

    from repro import telemetry

    with telemetry.telemetry_run("telemetry/", command="sweep"):
        with telemetry.span("experiment", experiment="fig10"):
            ...  # instrumented code records metrics and child spans

Typical consumer::

    repro telemetry summary --dir telemetry/
    repro telemetry export --format prom --dir telemetry/
"""

from repro.telemetry.live import live_snapshot
from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricError, MetricsRegistry,
                                      registry)
from repro.telemetry.run import (CollectorRun, TelemetryRun, active_run,
                                 collecting_run, detach_run, enabled,
                                 finish_run, start_run, telemetry_run)
from repro.telemetry.slo import SLO, SLOMonitor, default_serve_slos
from repro.telemetry.spans import NOOP_SPAN, NoopSpan, Span, current_span, span

__all__ = [
    "registry", "MetricsRegistry", "MetricError",
    "Counter", "Gauge", "Histogram",
    "TelemetryRun", "CollectorRun", "start_run", "finish_run",
    "active_run", "enabled", "telemetry_run", "detach_run",
    "collecting_run",
    "span", "current_span", "Span", "NoopSpan", "NOOP_SPAN",
    "live_snapshot",
    "SLO", "SLOMonitor", "default_serve_slos",
]
