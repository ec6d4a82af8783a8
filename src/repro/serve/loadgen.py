"""Trace-replay load generator for the prediction service.

Replays a :class:`~repro.trace.trace.ValueTrace` against a running
server and reports throughput and latency percentiles, in one or both
of two shapes:

``naive``
    one STEP frame per record, one round trip each -- the un-batched
    baseline any RPC-per-record client would see.
``batched``
    STEP_BLOCK frames of ``block`` records per round trip -- the shape
    that actually exercises the micro-batched kernel path.

Both modes drive a fresh session over the same records in order, so
their hit counts must agree with each other *and* with the offline
engines: every run replays the equivalent spec (see
:func:`offline_replay`) and checks the served hit counts bit-for-bit
(the report's ``verify`` block).

This module is the client side of every served replay, the cluster
tier's scaling load generator and soak harness included.
:func:`replay_session` opens a session, steps it through the records
and closes it, and raises when the hit count the session reports at
close differs from the client's own count; :func:`replay_threads`
runs S client threads of it, once each or in a loop until a deadline,
and pools what they saw.  :func:`wire_records`, :func:`offline_replay`
and :func:`report_head` make every replay mask, check parity and head
its report the same way.

The report is a JSON-able dict (``schema`` 1).  When *min_speedup* is
given (it needs both modes), ``speedup_ok`` records whether batched
throughput beat naive by at least that factor -- the CI smoke job's
regression guard.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from repro.core.spec import DelayedSpec, PredictorSpec
from repro.serve.client import ServeClient
from repro.serve.tracing import latency_summary

__all__ = ["run_loadgen", "render_loadgen", "replay_session",
           "replay_threads", "report_head", "wire_records",
           "offline_replay"]

LOADGEN_SCHEMA = 1

_MASK32 = 0xFFFFFFFF


def wire_records(trace) -> Tuple[List[int], List[int]]:
    """The trace's pcs and values as the u32 words the wire carries."""
    return ([int(pc) & _MASK32 for pc in trace.pcs],
            [int(v) & _MASK32 for v in trace.values])


def offline_replay(spec: PredictorSpec, trace,
                   window: int) -> Tuple[PredictorSpec, int]:
    """The offline equivalent of a session served with *window* (the
    spec wrapped in :class:`~repro.core.spec.DelayedSpec` when
    windowed) and its hit count on *trace* -- the parity reference
    every served replay is checked against."""
    from repro.harness.simulate import measure_accuracy
    offline_spec = DelayedSpec(spec, window) if window else spec
    return offline_spec, measure_accuracy(offline_spec, trace).correct


def report_head(spec: PredictorSpec, trace, window: int,
                block: int) -> dict:
    """The fields every replay report starts with."""
    return {"trace": trace.name, "records": len(trace), "spec": spec.name,
            "spec_config": spec.to_config(), "window": window,
            "block": block}


def replay_session(client: ServeClient, spec: PredictorSpec, window: int,
                   pcs, values, block: int,
                   mode: str) -> Tuple[int, int, List[float], float]:
    """Open a session, step it through the records (``naive``: one STEP
    frame per record, else STEP_BLOCK frames of *block*) and close it.
    Returns the session id, the client's hit count, each frame's
    round-trip seconds and the seconds the steps took.  Raises
    ``RuntimeError`` naming the session when the hit count the session
    reports at close differs from the client's."""
    session = client.open_session(spec, window)
    if mode == "naive":
        frames = ((client.step, pc, value)
                  for pc, value in zip(pcs, values))
    else:
        frames = ((client.step_block, pcs[start:start + block],
                   values[start:start + block])
                  for start in range(0, len(pcs), block))
    latencies = []
    hits = 0
    started = time.perf_counter()
    for step, frame_pcs, frame_values in frames:
        sent = time.perf_counter()
        _, frame_hits = step(session, frame_pcs, frame_values)
        latencies.append(time.perf_counter() - sent)
        hits += frame_hits
    seconds = time.perf_counter() - started
    reported = client.close_session(session)["hits"]
    if reported != hits:
        raise RuntimeError(
            f"session {session}: client counted {hits} hits, session "
            f"reported {reported}")
    return session, hits, latencies, seconds


def replay_threads(host: str, port: int, spec: PredictorSpec, window: int,
                   pcs, values, block: int, sessions: int,
                   deadline: Optional[float]) -> dict:
    """Run *sessions* client threads of :func:`replay_session` (batched)
    against ``host:port``, each on its own connection: one pass each
    when *deadline* is None, else passes until ``time.monotonic()``
    reaches *deadline*.  Returns what they saw, pooled: a ``(session,
    hits)`` pair per finished pass, every frame's latency, the
    reconnects, the wall-clock seconds, and one error line per thread
    that raised (a thread stops at its error)."""
    seen = [{"passes": [], "latencies": [], "reconnects": 0}
            for _ in range(sessions)]

    def client_thread(mine: dict) -> None:
        try:
            with ServeClient(host, port, reconnect=5) as client:
                while True:
                    session, hits, latencies, _ = replay_session(
                        client, spec, window, pcs, values, block,
                        "batched")
                    mine["passes"].append((session, hits))
                    mine["latencies"].extend(latencies)
                    mine["reconnects"] = client.reconnects
                    if deadline is None or time.monotonic() >= deadline:
                        break
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            mine["error"] = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=client_thread, args=(mine,))
               for mine in seen]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "seconds": time.perf_counter() - started,
        "passes": [done for mine in seen for done in mine["passes"]],
        "latencies": [lat for mine in seen for lat in mine["latencies"]],
        "reconnects": sum(mine["reconnects"] for mine in seen),
        "errors": [f"session thread {key}: {mine['error']}"
                   for key, mine in enumerate(seen) if "error" in mine],
    }


def _run_mode(host: str, port: int, spec: PredictorSpec, window: int,
              mode: str, pcs, values, block: int) -> dict:
    with ServeClient(host, port) as client:
        _, hits, latencies, elapsed = replay_session(
            client, spec, window, pcs, values, block, mode)
    records = len(pcs)
    return {
        "mode": mode,
        "records": records,
        "requests": len(latencies),
        "seconds": round(elapsed, 6),
        "records_per_s": round(records / elapsed, 1) if elapsed else 0.0,
        "latency": latency_summary(latencies),
        "hits": hits,
        "accuracy": round(hits / records, 6) if records else 0.0,
    }


def run_loadgen(spec: PredictorSpec, trace, host: str, port: int,
                window: int = 0, mode: str = "both", block: int = 256,
                min_speedup: Optional[float] = None) -> dict:
    """Replay *trace* against the server at ``host:port``; see module
    docstring for the report shape."""
    if mode not in ("naive", "batched", "both"):
        raise ValueError(f"unknown loadgen mode {mode!r}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if min_speedup is not None and mode != "both":
        raise ValueError(
            f"a speedup gate compares batched with naive, so it needs "
            f"mode 'both', got {mode!r}")
    pcs, values = wire_records(trace)
    report = {"schema": LOADGEN_SCHEMA,
              **report_head(spec, trace, window, block), "modes": {}}
    modes = ("naive", "batched") if mode == "both" else (mode,)
    for name in modes:
        report["modes"][name] = _run_mode(host, port, spec, window, name,
                                          pcs, values, block)
    if mode == "both":
        naive_rate = report["modes"]["naive"]["records_per_s"]
        batched_rate = report["modes"]["batched"]["records_per_s"]
        speedup = batched_rate / naive_rate if naive_rate else 0.0
        report["speedup"] = round(speedup, 2)
        report["min_speedup"] = min_speedup
        if min_speedup is not None:
            report["speedup_ok"] = speedup >= min_speedup
    report["verify"] = _verify(spec, trace, window, report["modes"])
    return report


def _verify(spec: PredictorSpec, trace, window: int, modes: dict) -> dict:
    offline_spec, offline_hits = offline_replay(spec, trace, window)
    served = {name: stats["hits"] for name, stats in modes.items()}
    return {
        "offline_spec": offline_spec.name,
        "offline_hits": offline_hits,
        "served_hits": served,
        "matched": all(hits == offline_hits for hits in served.values()),
    }


def render_loadgen(report: dict) -> str:
    """Human-readable loadgen summary: one line per mode, the speedup
    and the offline parity verdict."""
    lines = [f"{report['spec']} on {report['trace']} "
             f"({report['records']} records, window {report['window']})"]
    for name, stats in report["modes"].items():
        latency = stats["latency"]
        lines.append(
            f"  {name:8s} {stats['records_per_s']:>12,.0f} rec/s  "
            f"p50 {latency['p50_ms']:.3f}ms  "
            f"p99 {latency['p99_ms']:.3f}ms  "
            f"accuracy {stats['accuracy']:.4f}")
    if "speedup" in report:
        lines.append(f"  speedup: batched {report['speedup']:.1f}x naive")
    state = "match" if report["verify"]["matched"] else "MISMATCH"
    lines.append(f"  offline parity: {state} "
                 f"({report['verify']['offline_hits']} hits)")
    return "\n".join(lines) + "\n"
