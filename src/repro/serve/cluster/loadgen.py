"""Multi-worker scaling load generator.

Extends the single-server load generator
(:mod:`repro.serve.loadgen`) to the cluster tier: for each worker
count in *workers*, start a fresh :class:`~repro.serve.cluster.router
.ClusterThread` and replay the trace through S concurrent sessions
(:func:`repro.serve.loadgen.replay_threads`: one client connection
and one session per thread, STEP_BLOCK frames of *block* records,
one pass each).  Every session replays the same records in
order, so each one's served hit count must equal the offline
engine's -- bit-for-bit, per session, at every fleet size.  That is
the cluster parity gate: affinity, request-id rewriting and response
routing cannot silently corrupt a stream without tripping it.

The report (``schema`` 1, ``kind: cluster_scaling``) carries one
point per worker count -- aggregate records/s, pooled latency
percentiles, per-session parity -- plus the aggregate speedup of the
largest fleet over the single-worker point.  ``min_scaling`` gates
the speedup (``scaling_ok``) and so needs at least two fleet sizes;
leave it None on machines whose core
count cannot possibly show scaling (the report records
``cpu_count`` so a reader can tell why a local run stays flat).
The report gates itself; nothing files it in ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.core.spec import PredictorSpec
from repro.serve.cluster.router import ClusterThread
from repro.serve.loadgen import (offline_replay, replay_threads,
                                 report_head, wire_records)
from repro.serve.tracing import latency_summary

__all__ = ["run_scaling_loadgen", "render_scaling"]

SCALING_SCHEMA = 1


def _run_point(n_workers: int, spec: PredictorSpec, window: int,
               pcs, values, block: int, sessions: int,
               state_dir: Optional[str], **worker_kwargs) -> dict:
    with ClusterThread(workers=n_workers, state_dir=state_dir,
                       **worker_kwargs) as cluster:
        seen = replay_threads("127.0.0.1", cluster.port, spec, window,
                              pcs, values, block, sessions, None)
        report = cluster.router.cluster_report()
    if seen["errors"]:
        raise RuntimeError("; ".join(seen["errors"]))
    elapsed = seen["seconds"]
    total_records = len(pcs) * sessions
    return {
        "workers": n_workers,
        "sessions": sessions,
        "records": total_records,
        "seconds": round(elapsed, 6),
        "records_per_s": round(total_records / elapsed, 1)
        if elapsed else 0.0,
        "latency": latency_summary(seen["latencies"]),
        "session_hits": {str(session): hits
                         for session, hits in seen["passes"]},
        "reconnects": seen["reconnects"],
        "migrations_total": report["migrations_total"],
        "sessions_lost_total": report["sessions_lost_total"],
    }


def run_scaling_loadgen(spec: PredictorSpec, trace,
                        workers: Sequence[int] = (1, 2, 3),
                        sessions: int = 4, window: int = 0,
                        block: int = 256,
                        state_dir: Optional[str] = None,
                        min_scaling: Optional[float] = None,
                        **worker_kwargs) -> dict:
    """Replay *trace* through *sessions* concurrent sessions at each
    fleet size in *workers*; see the module docstring for the report
    shape and gates."""
    counts = sorted(set(int(n) for n in workers))
    if not counts or counts[0] < 1:
        raise ValueError(f"workers must be >= 1, got {list(workers)}")
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if min_scaling is not None and len(counts) < 2:
        raise ValueError(
            f"a scaling gate compares fleet sizes, so it needs at least "
            f"two, got workers={counts}")
    pcs, values = wire_records(trace)
    _, offline_hits = offline_replay(spec, trace, window)

    points = []
    parity_ok = True
    for n_workers in counts:
        point = _run_point(n_workers, spec, window, pcs, values, block,
                           sessions, state_dir, **worker_kwargs)
        point["offline_hits"] = offline_hits
        point["parity_ok"] = all(
            hits == offline_hits
            for hits in point["session_hits"].values())
        parity_ok = parity_ok and point["parity_ok"]
        points.append(point)

    report = {
        "schema": SCALING_SCHEMA,
        "kind": "cluster_scaling",
        **report_head(spec, trace, window, block),
        "sessions": sessions,
        "cpu_count": os.cpu_count(),
        "points": points,
        "parity_ok": parity_ok,
    }
    if len(points) > 1:
        base_rate = points[0]["records_per_s"]
        best = max(points[1:], key=lambda p: p["records_per_s"])
        speedup = (best["records_per_s"] / base_rate) if base_rate else 0.0
        report["speedup"] = round(speedup, 2)
        report["speedup_workers"] = best["workers"]
        report["min_scaling"] = min_scaling
        if min_scaling is not None:
            report["scaling_ok"] = speedup >= min_scaling
    return report


def render_scaling(report: dict) -> str:
    """Human-readable scaling table."""
    from repro.harness.report import format_table
    rows = [[f"{p['workers']}", f"{p['records']:,}",
             f"{p['records_per_s']:,.1f}",
             f"{p['latency']['p50_ms']:.3f}",
             f"{p['latency']['p99_ms']:.3f}",
             "ok" if p["parity_ok"] else "MISMATCH"]
            for p in report["points"]]
    lines = [format_table(
        ["workers", "records", "rec/s", "p50 ms", "p99 ms", "parity"],
        rows,
        title=(f"cluster scaling: {report['spec']} on "
               f"{report['trace']} x{report['sessions']} sessions"))]
    if "speedup" in report:
        gate = ""
        if report.get("min_scaling") is not None:
            verdict = "PASS" if report.get("scaling_ok") else "FAIL"
            gate = (f" (gate >= {report['min_scaling']:g}x: {verdict})")
        lines.append(
            f"speedup: {report['speedup']:g}x at "
            f"{report['speedup_workers']} workers vs 1{gate}")
    return "\n".join(lines) + "\n"
