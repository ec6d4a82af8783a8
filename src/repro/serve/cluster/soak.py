"""Sustained-load soak harness with an SLO-burn gate.

Where the scaling load generator (:mod:`repro.serve.cluster.loadgen`)
measures throughput at several fleet sizes, the soak harness holds
*one* fleet size under sustained concurrency for a wall-clock
duration and watches the autoscaling telemetry the whole time: a
poller thread samples the router's ``/scale`` signals (sessions per
worker, p99 step latency, deepest queue, worst sustained SLO burn)
and ``/slo`` alert state every few seconds while S session threads
replay the trace in a loop (:func:`repro.serve.loadgen.replay_threads`),
each pass through a *fresh* session.  After every pass the hit count
the session reports at close must equal the client's, and the
client's must equal the offline engine's (the same bit-for-bit parity
gate the scaling runs use).

The verdict is the multi-window burn-rate rule, not a point-in-time
spike test: the run fails only when some sample's *sustained* burn --
``min(fast_window, slow_window)``, exactly what the alerting rule and
the ``/scale`` adapter emit -- reaches ``max_burn``, or when parity
breaks, or a session thread errors out (a session whose reported hits
differ from its client's count is such an error).  That makes the
harness a CI-grade pass/fail for "would the autoscaler have had to
bail us out", cheap enough to run for a couple of minutes per push.

The report (``kind: cluster_soak``) carries every telemetry sample,
pass counts, pooled latency percentiles and a bounded dump of the
router's trace store (the cross-process spans of the most recent
requests) so a failed run ships its own forensics.  The report
gates itself; nothing files it in ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional

from repro.core.spec import PredictorSpec
from repro.serve.cluster.router import ClusterThread
from repro.serve.loadgen import (offline_replay, replay_threads,
                                 report_head, wire_records)
from repro.serve.tracing import latency_summary

__all__ = ["run_soak", "render_soak"]

SOAK_SCHEMA = 1

#: Seconds between the poller's telemetry samples.
_POLL_INTERVAL_S = 2.0

#: Most recent router spans the report's trace dump keeps.
_TRACE_DUMP_LIMIT = 256


def _poll_telemetry(cluster: ClusterThread, stop: threading.Event,
                    samples: List[dict]) -> None:
    """Sample the router's /scale signals until told to stop."""
    while not stop.is_set():
        try:
            report = cluster.call(cluster.router.scale_report())
            samples.append({
                "t_s": round(time.monotonic(), 3),
                "signals": report["signals"],
                "alerts": report["alerts"],
                "workers_alive": report["workers_alive"],
            })
        except Exception as exc:  # noqa: BLE001 - soak keeps running
            samples.append({"t_s": round(time.monotonic(), 3),
                            "error": f"{type(exc).__name__}: {exc}"})
        stop.wait(_POLL_INTERVAL_S)


def run_soak(spec: PredictorSpec, trace, workers: int = 2,
             sessions: int = 4, duration_s: float = 60.0,
             window: int = 0, block: int = 256,
             state_dir: Optional[str] = None, max_burn: float = 2.0,
             **worker_kwargs) -> dict:
    """Hold a *workers*-worker cluster under *sessions* concurrent
    replay loops for *duration_s* seconds; see the module docstring
    for the report shape and the pass/fail rule."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if max_burn <= 0:
        raise ValueError(f"max_burn must be > 0, got {max_burn}")
    pcs, values = wire_records(trace)
    _, offline_hits = offline_replay(spec, trace, window)

    samples: List[dict] = []
    with ClusterThread(workers=workers, state_dir=state_dir,
                       **worker_kwargs) as cluster:
        stop_poll = threading.Event()
        poller = threading.Thread(
            target=_poll_telemetry,
            args=(cluster, stop_poll, samples),
            daemon=True)
        poller.start()
        seen = replay_threads("127.0.0.1", cluster.port, spec, window,
                              pcs, values, block, sessions,
                              time.monotonic() + duration_s)
        stop_poll.set()
        poller.join(timeout=_POLL_INTERVAL_S + 10.0)
        # Final forensics while the fleet is still up: one last
        # telemetry sample and the router's recent trace spans.
        try:
            final = cluster.call(cluster.router.scale_report())
            samples.append({"t_s": round(time.monotonic(), 3),
                            "signals": final["signals"],
                            "alerts": final["alerts"],
                            "workers_alive": final["workers_alive"],
                            "final": True})
        except Exception as exc:  # noqa: BLE001
            samples.append({"t_s": round(time.monotonic(), 3),
                            "error": f"{type(exc).__name__}: {exc}"})
        trace_dump = cluster.router.trace_dump(_TRACE_DUMP_LIMIT)
        cluster_stats = cluster.router.cluster_report()

    errors = seen["errors"]
    elapsed = seen["seconds"]
    passes = len(seen["passes"])
    mismatches = sum(hits != offline_hits for _, hits in seen["passes"])
    burns = [s["signals"]["slo_burn_rate"] for s in samples
             if "signals" in s]
    peak_burn = max(burns) if burns else 0.0
    burn_breaches = sum(1 for b in burns if b >= max_burn)
    alerts = sorted({alert for s in samples
                     for alert in s.get("alerts", [])})
    parity_ok = mismatches == 0 and passes > 0
    slo_ok = burn_breaches == 0
    report = {
        "schema": SOAK_SCHEMA,
        "kind": "cluster_soak",
        **report_head(spec, trace, window, block),
        "workers": workers,
        "sessions": sessions,
        "duration_s": round(duration_s, 3),
        "seconds": round(elapsed, 3),
        "cpu_count": os.cpu_count(),
        "passes": passes,
        "records_total": passes * len(pcs),
        "records_per_s": (round(passes * len(pcs) / elapsed, 1)
                          if elapsed else 0.0),
        "offline_hits": offline_hits,
        "mismatched_passes": mismatches,
        "parity_ok": parity_ok,
        "reconnects": seen["reconnects"],
        "latency": latency_summary(seen["latencies"]),
        "max_burn": max_burn,
        "peak_burn": round(peak_burn, 4),
        "burn_breaches": burn_breaches,
        "slo_ok": slo_ok,
        "alerts": alerts,
        "samples": samples,
        "errors": errors,
        "migrations_total": cluster_stats["migrations_total"],
        "sessions_lost_total": cluster_stats["sessions_lost_total"],
        "trace_dump": trace_dump,
        "soak_ok": parity_ok and slo_ok and not errors,
    }
    return report


def render_soak(report: dict) -> str:
    """Human-readable soak verdict."""
    lines = [
        (f"cluster soak: {report['spec']} on {report['trace']} -- "
         f"{report['workers']} workers x{report['sessions']} sessions, "
         f"{report['seconds']:.1f}s"),
        (f"  passes: {report['passes']} "
         f"({report['records_total']:,} records, "
         f"{report['records_per_s']:,.1f} rec/s), "
         f"reconnects: {report['reconnects']}"),
        (f"  latency: p50 {report['latency']['p50_ms']:.3f} ms, "
         f"p99 {report['latency']['p99_ms']:.3f} ms"),
        (f"  parity: "
         f"{'ok' if report['parity_ok'] else 'MISMATCH'} "
         f"({report['mismatched_passes']} mismatched passes)"),
        (f"  slo burn: peak {report['peak_burn']:g} "
         f"(gate < {report['max_burn']:g}: "
         f"{'PASS' if report['slo_ok'] else 'FAIL'}, "
         f"{report['burn_breaches']} breaching samples)"),
    ]
    if report["alerts"]:
        lines.append(f"  alerts seen: {', '.join(report['alerts'])}")
    for error in report["errors"]:
        lines.append(f"  error: {error}")
    lines.append(f"soak: {'PASS' if report['soak_ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
