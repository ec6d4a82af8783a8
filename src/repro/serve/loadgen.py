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

:func:`wire_records`, :func:`replay_batched` and :func:`offline_replay`
are shared with the cluster tier's scaling load generator and soak
harness, so every served replay masks, batches and checks parity the
same way.

The report is a JSON-able dict (``schema`` 1).  When *min_speedup* is
given and both modes ran, ``speedup_ok`` records whether batched
throughput beat naive by at least that factor -- the CI smoke job's
regression guard.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.core.spec import DelayedSpec, PredictorSpec
from repro.serve.client import ServeClient
from repro.serve.tracing import latency_summary

__all__ = ["run_loadgen", "wire_records", "replay_batched",
           "offline_replay"]

LOADGEN_SCHEMA = 1

_MASK32 = 0xFFFFFFFF


def wire_records(trace) -> Tuple[List[int], List[int]]:
    """The trace's pcs and values as the u32 words the wire carries."""
    return ([int(pc) & _MASK32 for pc in trace.pcs],
            [int(v) & _MASK32 for v in trace.values])


def _replay_naive(client: ServeClient, session: int, pcs, values):
    latencies = []
    hits = 0
    for pc, value in zip(pcs, values):
        started = time.perf_counter()
        _, hit = client.step(session, pc, value)
        latencies.append(time.perf_counter() - started)
        hits += hit
    return hits, latencies


def replay_batched(client: ServeClient, session: int, pcs, values,
                   block: int) -> Tuple[int, List[float]]:
    """Step *session* through the records in STEP_BLOCK frames of
    *block* records; returns the hits and each frame's round-trip
    seconds."""
    latencies = []
    hits = 0
    for start in range(0, len(pcs), block):
        chunk_pcs = pcs[start:start + block]
        chunk_values = values[start:start + block]
        started = time.perf_counter()
        _, chunk_hits = client.step_block(session, chunk_pcs, chunk_values)
        latencies.append(time.perf_counter() - started)
        hits += chunk_hits
    return hits, latencies


def offline_replay(spec: PredictorSpec, trace,
                   window: int) -> Tuple[PredictorSpec, int]:
    """The offline equivalent of a session served with *window* (the
    spec wrapped in :class:`~repro.core.spec.DelayedSpec` when
    windowed) and its hit count on *trace* -- the parity reference
    every served replay is checked against."""
    from repro.harness.simulate import measure_accuracy
    offline_spec = DelayedSpec(spec, window) if window else spec
    return offline_spec, measure_accuracy(offline_spec, trace).correct


def _run_mode(host: str, port: int, spec: PredictorSpec, window: int,
              mode: str, pcs, values, block: int) -> dict:
    with ServeClient(host, port) as client:
        session = client.open_session(spec, window)
        started = time.perf_counter()
        if mode == "naive":
            hits, latencies = _replay_naive(client, session, pcs, values)
        else:
            hits, latencies = replay_batched(client, session, pcs, values,
                                             block)
        elapsed = time.perf_counter() - started
        stats = client.close_session(session)
    records = len(pcs)
    result = {
        "mode": mode,
        "records": records,
        "requests": len(latencies),
        "seconds": round(elapsed, 6),
        "records_per_s": round(records / elapsed, 1) if elapsed else 0.0,
        "latency": latency_summary(latencies),
        "hits": hits,
        "accuracy": round(hits / records, 6) if records else 0.0,
    }
    if stats["hits"] != hits:
        raise RuntimeError(
            f"{mode}: client counted {hits} hits, session reported "
            f"{stats['hits']}")
    return result


def run_loadgen(spec: PredictorSpec, trace, host: str, port: int,
                window: int = 0, mode: str = "both", block: int = 256,
                min_speedup: Optional[float] = None) -> dict:
    """Replay *trace* against the server at ``host:port``; see module
    docstring for the report shape."""
    if mode not in ("naive", "batched", "both"):
        raise ValueError(f"unknown loadgen mode {mode!r}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    pcs, values = wire_records(trace)
    report = {
        "schema": LOADGEN_SCHEMA,
        "trace": trace.name,
        "records": len(pcs),
        "spec": spec.name,
        "spec_config": spec.to_config(),
        "window": window,
        "block": block,
        "modes": {},
    }
    modes = ("naive", "batched") if mode == "both" else (mode,)
    for name in modes:
        report["modes"][name] = _run_mode(host, port, spec, window, name,
                                          pcs, values, block)
    if "naive" in report["modes"] and "batched" in report["modes"]:
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
