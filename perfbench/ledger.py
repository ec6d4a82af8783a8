"""The traced run: per-layer metrics, the solo-64 attribution, overhead.

``--trace 1`` runs this ledger instead of the plain workload.  It first
runs the named workload untraced on the budget of its ledger section,
then replays every workload's seeded input with a span around each call
the benchmark makes into a layer:

* paper-sweep's grid once, in its own process: ``trace.capture`` per
  trace, ``harness.measure_suite`` per cell with ``engines.run_spec``
  as the child span;
* the warm kernels (``engines.step_block``) over li blocks of 16 to
  4096 records;
* solo-64's block stream through ``Session.step_block`` with the
  kernel's ``step_block`` as the child span, for a plain and a windowed
  DFCM session;
* fleet-churn's schedule through in-process sessions under the
  server's LRU policy, with ``state.spill`` (``Session.snapshot`` +
  ``ArenaStore.save``) and ``state.reload`` (``ArenaStore.load`` +
  ``Session.restore``) spans;
* both streams through the protocol encode and decode functions;
* solo-64's stream against ``repro serve``, client calls traced down to
  the protocol functions and the wait for the reply;
* fleet-churn and fleet-closed through the cluster, with a span per
  frame encode and per request, then solo-64's stream alternately
  routed and sent straight to the worker.

It reads the counters the program already exports (server STATS, the
router's worker list) and adds none.  Tracing overhead is the named
workload's traced section minus its untraced run, both summarised the
same way.  The spans are written to
``.perfbench_work/spans-<workload>-<seed>.jsonl``.

:data:`MOVES` records which end-to-end metric each per-layer metric
should move, and on which workload.
"""

from __future__ import annotations

import shutil
from typing import Dict, List

import numpy as np

from perfbench import fleet, gen, procs, run_workload, solo, stats, sweep
from perfbench.parity import ParityGate, check_session
from perfbench.spans import Tracer

#: Budgets of the traced sections, and of the untraced run they are
#: compared with for the tracing overhead.
SWEEP_SECONDS = sweep.SECONDS_PER_REPETITION
SOLO_SECONDS = 5.0
FLEET_SECONDS = 6.0
HOP_REQUESTS = 300
#: Resident sessions in the in-process state replay: few enough that
#: every family spills and reloads within the short replay.
STATE_RESIDENT = 16
#: Blocks timed per warm-kernel / session / protocol measurement.
SMALL_BLOCKS = 400
LARGE_BLOCKS = 40

_SWEEP = "records_per_s on paper-sweep"
_SOLO = "latency_p50_ms on solo-64"
_FLEET_TAIL = "latency_p99_ms on fleet-churn"
_FLEET = "latency_p50_ms on fleet-churn and fleet-closed"
#: per-layer metric -> the end-to-end metric it should move, on which
#: workload.  Units and direction are in BENCHMARK.json.
MOVES: Dict[str, str] = {
    "trace.capture_ns_per_record": "setup_s on paper-sweep",
    "harness.overhead_ms": _SWEEP,
    "engines.cold_ns_per_record.fcm": _SWEEP,
    "engines.cold_ns_per_record.dfcm": _SWEEP,
    "engines.cold_ns_per_record.stride_dfcm": _SWEEP,
    "engines.cold_ns_per_record.dfcm_l2_20": _SWEEP,
    "engines.warm_us_per_block.dfcm.b16": _SOLO,
    "engines.warm_us_per_block.dfcm.b64": _SOLO,
    "engines.warm_us_per_block.dfcm.b256": _SOLO,
    "engines.warm_us_per_block.dfcm.b4096": _FLEET_TAIL,
    "engines.warm_us_per_block.stride.b64": _FLEET,
    "engines.warm_us_per_block.stride.b4096": _FLEET_TAIL,
    "session.us_per_block.dfcm.b64": _SOLO,
    "session.us_per_block.dfcm_w4.b64": _FLEET_TAIL,
    "protocol.encode_us.b64": _SOLO,
    "protocol.encode_us.b4096": _FLEET_TAIL,
    "protocol.decode_us.b64": _SOLO,
    "protocol.decode_us.b4096": _FLEET_TAIL,
    "client.us_per_request.b64": _SOLO,
    "server.residual_us.b64": _SOLO,
    "batcher.items_per_batch": _FLEET_TAIL,
    "batcher.fused_records": _FLEET_TAIL,
    "router.hop_us.b64": _FLEET,
    "state.spill_ms.dfcm": _FLEET_TAIL,
    "state.spill_ms.stride": _FLEET_TAIL,
    "state.reload_ms.dfcm": _FLEET,
    "state.reload_ms.stride": _FLEET,
    "state.reload_share": _FLEET,
    "state.evictions": "peak_rss_mb on fleet-churn and fleet-closed",
}


def _median_us(spans) -> float:
    return stats.median([s.duration for s in spans]) * 1e6


# -------------------------------------------------------------- sections

def sweep_section(seed: int, tracer: Tracer, metrics: dict,
                  gate: ParityGate) -> dict:
    """Traced Figure 16 pass: capture, harness self time, cold kernels."""
    ref = sweep.reference()
    measured = sweep.measure(seed, sweep.repetitions(SWEEP_SECONDS),
                             trace=True, setups=1)
    gate.merge(sweep.check(measured, ref))
    spans = tracer.adopt(measured["spans"])
    capture = [s for s in spans if s.name == "trace.capture"]
    records = sum(measured["ready"]["records"].values())
    metrics["trace.capture_ns_per_record"] = (
        sum(s.duration for s in capture) / records * 1e9)
    cells = [s for s in spans if s.name == "harness.measure_suite"]
    selves = tracer.self_times()
    metrics["harness.overhead_ms"] = sum(selves[s.span_id]
                                         for s in cells) * 1e3
    kids = tracer.children()
    kernel: Dict[str, List[float]] = {}
    for cell in cells:
        kernel.setdefault(sweep.cell_label(cell.request), []).append(
            sum(k.duration for k in kids.get(cell.span_id, ())))
    per_trace = procs.TRACE_LEN
    for name, key in (("fcm", "fcm_l2_12"), ("dfcm", "dfcm_l2_12"),
                      ("stride_dfcm", "stride_dfcm_l2_12"),
                      ("dfcm_l2_20", "dfcm_l2_20")):
        metrics[f"engines.cold_ns_per_record.{name}"] = (
            sum(kernel[key]) / (per_trace * len(kernel[key])) * 1e9)
    return {"records_per_s": sweep.figures(measured)["records_per_s"],
            "cells": len(measured["cells"])}


def warm_section(stream: solo.SoloStream, tracer: Tracer,
                 metrics: dict) -> None:
    """Warm ``step_block`` per family and block size over li."""
    from repro.core.engines import initial_state, step_block
    from repro.core.spec import StrideSpec
    for family, spec, sizes in (
            ("dfcm", solo.flagship_spec(), (16, 64, 256, 4096)),
            ("stride", StrideSpec(1 << 16), (64, 4096))):
        state = initial_state(spec)
        cursor = stream.offset
        warm = gen.ring(len(stream.pcs), cursor, 4096)
        _, state = step_block(spec, state, stream.pcs[warm],
                              stream.values[warm])
        cursor += 4096
        for size in sizes:
            blocks = SMALL_BLOCKS if size <= 256 else LARGE_BLOCKS
            spans = []
            for i in range(blocks):
                idx = gen.ring(len(stream.pcs), cursor, size)
                cursor += size
                pcs, values = stream.pcs[idx], stream.values[idx]
                with tracer.span("engines.step_block", family=family,
                                 block=size) as span:
                    _, state = step_block(spec, state, pcs, values)
                spans.append(span)
            metrics[f"engines.warm_us_per_block.{family}.b{size}"] = (
                _median_us(spans))


def session_section(stream: solo.SoloStream, tracer: Tracer,
                    metrics: dict) -> dict:
    """solo-64's stream through ``Session.step_block``; returns spans
    and predictions for the protocol replay."""
    from repro.serve import session as session_mod
    out = {}
    for label, window in (("dfcm", 0), ("dfcm_w4", gen.FLEET_WINDOW)):
        live = session_mod.Session(1, solo.flagship_spec(), window=window)
        spans, predicted = [], []
        with tracer.shim(session_mod, "step_block", "engines.step_block"):
            for i in range(SMALL_BLOCKS):
                pcs, values = stream.block_at(i)
                with tracer.span("session.step_block", request=i,
                                 session=label) as span:
                    got, _ = live.step_block(pcs, values)
                spans.append(span)
                predicted.append(got)
        metrics[f"session.us_per_block.{label}.b64"] = _median_us(spans)
        out[label] = {"spans": spans, "predicted": predicted}
    return out


def state_section(plan: "fleet.Plan", tracer: Tracer,
                  metrics: dict) -> List[np.ndarray]:
    """fleet-churn's schedule through in-process sessions, spilling and
    reloading like the server's LRU (:data:`STATE_RESIDENT` resident)."""
    from repro.core.spec import spec_from_config
    from repro.core.state import ArenaStore
    from repro.serve.session import Session
    directory = fleet.state_dir("ledger")
    store = ArenaStore(directory)
    resident: Dict[int, Session] = {}
    spilled = set()
    last_used: Dict[int, int] = {}
    predicted = []
    try:
        for index, request in enumerate(plan.requests):
            sid = request.session + 1
            session_info = plan.sessions[request.session]
            family = session_info.family
            if sid in spilled:
                spilled.discard(sid)
                with tracer.span("state.reload", request=index,
                                 family=family):
                    arena = store.load(sid)
                    resident[sid] = Session.restore(
                        sid, spec_from_config(arena.spec_config),
                        arena.state(), arena.meta)
            elif sid not in resident:
                resident[sid] = Session(sid, plan.specs[request.session],
                                        window=session_info.window)
            last_used[sid] = index
            pcs, values = plan.records(index)
            with tracer.span("session.step_block", request=index,
                             family=family, block=request.size):
                got, _ = resident[sid].step_block(pcs, values)
            predicted.append(np.asarray(got, dtype=np.int64))
            while len(resident) > STATE_RESIDENT:
                spillable = [s for s in resident if resident[s].spillable]
                if not spillable:
                    break
                coldest = min(spillable, key=last_used.__getitem__)
                victim = resident.pop(coldest)
                with tracer.span("state.spill", request=index,
                                 family=victim.spec.family):
                    arrays, meta = victim.snapshot()
                    store.save(coldest, victim.spec.to_config(), arrays,
                               meta)
                spilled.add(coldest)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for kind in ("spill", "reload"):
        for family in ("dfcm", "stride"):
            spans = [s for s in tracer.named(f"state.{kind}")
                     if s.attrs.get("family") == family]
            if not spans:
                raise procs.BenchError(f"no state.{kind} for {family}")
            metrics[f"state.{kind}_ms.{family}"] = (
                stats.median([s.duration for s in spans]) * 1e3)
    return predicted


def protocol_section(blocks, tracer: Tracer, label: str) -> tuple:
    """Encode/decode of request and response frames, as both ends do."""
    from repro.serve import protocol
    step = protocol.FrameType.STEP_BLOCK
    encode, decode = [], []
    for rid, (pcs, values, predicted) in enumerate(blocks, 1):
        with tracer.span("protocol.encode", block=label) as span:
            request = protocol.encode_frame(
                step, rid, protocol.encode_step_block(7, pcs, values))
            response = protocol.encode_block_result_frame(
                step | protocol.RESPONSE_BIT, rid, predicted, 0)
        encode.append(span)
        with tracer.span("protocol.decode", block=label) as span:
            frame = protocol.decode_frame(memoryview(request)[4:])
            protocol.decode_step_block_arrays(frame.body)
            frame = protocol.decode_frame(memoryview(response)[4:])
            protocol.decode_block_result(frame.body)
        decode.append(span)
    return _median_us(encode), _median_us(decode)


class _TracedReader:
    """Stands in for a client's frame reader: times the wait for a reply."""

    def __init__(self, reader, tracer: Tracer):
        self._reader = reader
        self._tracer = tracer

    def read_frame(self, copy: bool = False):
        with self._tracer.span("server.wait"):
            return self._reader.read_frame(copy)


def solo_section(stream: solo.SoloStream, tracer: Tracer,
                 gate: ParityGate) -> dict:
    """solo-64 against ``repro serve``, traced down to the protocol."""
    from repro.serve import protocol
    spec = solo.flagship_spec()
    served, client, session = solo.launch(spec)
    reader = client._reader
    steal = procs.StealMeter()
    try:
        client._reader = _TracedReader(reader, tracer)
        with tracer.shim(protocol, "encode_step_block", "protocol.encode"), \
                tracer.shim(protocol, "encode_frame", "protocol.encode"), \
                tracer.shim(protocol, "decode_frame", "protocol.decode"), \
                tracer.shim(protocol, "decode_block_result",
                            "protocol.decode"):
            loop = solo.closed_loop(client, session, stream, SOLO_SECONDS,
                                    tracer=tracer)
        client._reader = reader
        counters = client.stats(session)
    finally:
        steal.stop()
        client.close()
        served.stop()
    solo.check(gate, "traced solo session", spec, stream, loop, counters)
    loop["figures"] = solo.figures(loop, steal)
    return loop


def cluster_section(seed: int, tracer: Tracer, gate: ParityGate,
                    metrics: dict) -> Dict[str, dict]:
    """fleet-churn and fleet-closed through the cluster, traced; the
    batcher and state counters come from fleet-churn's worker STATS."""
    out = {}
    for name in ("fleet-churn", "fleet-closed"):
        out[name] = run_workload(name, seed, FLEET_SECONDS, setups=1,
                                 tracer=tracer)
        gate.merge(out[name]["gate"])
    busy = out["fleet-churn"]["workers"][0]["stats"]
    metrics["batcher.items_per_batch"] = (busy["requests_batched"]
                                          / busy["batches"])
    metrics["batcher.fused_records"] = busy["fused_records"]
    metrics["state.reload_share"] = (busy["reloads_total"]
                                     / out["fleet-churn"]["attempted"])
    metrics["state.evictions"] = busy["evictions_total"]
    return out


def hop_section(stream: solo.SoloStream, tracer: Tracer, gate: ParityGate,
                metrics: dict) -> None:
    """solo-64's stream, alternately routed and sent straight to the
    worker of a one-worker cluster."""
    from repro.serve.client import ServeClient
    spec = solo.flagship_spec()
    served = procs.Served(["cluster", "serve", "--workers", "1"])
    try:
        worker_port = int(fleet.worker_stats(served.port)[0]["port"])
        with ServeClient(port=served.port, reconnect=0) as routed, \
                ServeClient(port=worker_port, reconnect=0) as direct:
            paths = {"routed": (routed, routed.open_session(spec)),
                     "direct": (direct, direct.open_session(spec))}
            spans = {name: [] for name in paths}
            hits = {name: 0 for name in paths}
            for i in range(HOP_REQUESTS):
                pcs, values = stream.block_at(i)
                for name, (client, sid) in paths.items():
                    with tracer.span(f"router.{name}", request=i) as span:
                        _, got = client.step_block(sid, pcs, values)
                    spans[name].append(span)
                    hits[name] += got
            counters = {name: client.stats(sid)
                        for name, (client, sid) in paths.items()}
    finally:
        served.stop()
    pcs, values = stream.records(list(range(HOP_REQUESTS)))
    for name in paths:
        check_session(gate, f"{name} hop session", counters[name], spec, 0,
                      "li", pcs, values, hits[name])
    metrics["router.hop_us.b64"] = (_median_us(spans["routed"])
                                    - _median_us(spans["direct"]))


# ------------------------------------------------------------------ run

#: The figures compared for the tracing overhead, per workload.
OVERHEAD = {
    "paper-sweep": ("records_per_s",),
    "solo-64": ("latency_p50_ms",),
    "fleet-churn": ("latency_p50_ms", "latency_p99_ms"),
    "fleet-closed": ("latency_p50_ms", "records_per_s"),
}


def run(workload: str, seed: int) -> dict:
    """The ledger: a fixed amount of work, whatever ``--seconds`` says."""
    tracer = Tracer()
    metrics: Dict[str, float] = {}
    gate = ParityGate()
    baseline = run_workload(workload, seed, {
        "paper-sweep": SWEEP_SECONDS, "solo-64": SOLO_SECONDS}.get(
            workload, FLEET_SECONDS), setups=1)
    gate.merge(baseline["gate"])

    sweep_out = sweep_section(seed, tracer, metrics, gate)
    stream = solo.SoloStream(seed, procs.load_traces(["li"])["li"])
    warm_section(stream, tracer, metrics)
    sessions = session_section(stream, tracer, metrics)
    plan = fleet.Plan(seed, FLEET_SECONDS)
    fleet_predicted = state_section(plan, tracer, metrics)

    small = [(*stream.block_at(i), sessions["dfcm"]["predicted"][i])
             for i in range(SMALL_BLOCKS)]
    large = [(*plan.records(i), fleet_predicted[i])
             for i, r in enumerate(plan.requests) if r.size == 4096]
    (metrics["protocol.encode_us.b64"],
     metrics["protocol.decode_us.b64"]) = protocol_section(
        small, tracer, "b64")
    (metrics["protocol.encode_us.b4096"],
     metrics["protocol.decode_us.b4096"]) = protocol_section(
        large, tracer, "b4096")

    solo_loop = solo_section(stream, tracer, gate)
    selves = tracer.self_times()
    rounds = tracer.named("client.step_block")
    round_p50 = stats.median([s.duration for s in rounds]) * 1e6
    metrics["client.us_per_request.b64"] = stats.median(
        [selves[s.span_id] for s in rounds]) * 1e6
    metrics["server.residual_us.b64"] = (
        round_p50 - metrics["session.us_per_block.dfcm.b64"]
        - metrics["protocol.encode_us.b64"]
        - metrics["protocol.decode_us.b64"]
        - metrics["client.us_per_request.b64"])

    fleets = cluster_section(seed, tracer, gate, metrics)
    hop_section(stream, tracer, gate, metrics)

    procs.WORK.mkdir(parents=True, exist_ok=True)
    spans_path = procs.WORK / f"spans-{workload}-{seed}.jsonl"
    tracer.dump(spans_path)

    session_spans = sessions["dfcm"]["spans"]
    kids = tracer.children()
    kernel_us = stats.median([
        sum(k.duration for k in kids.get(s.span_id, ()))
        for s in session_spans]) * 1e6
    solo_figures = solo_loop["figures"]
    traced = dict(fleets, **{
        "paper-sweep": {"metrics": {
            "records_per_s": sweep_out["records_per_s"]}},
        "solo-64": {"metrics": {
            "latency_p50_ms": solo_figures["p50"] * 1e3}},
    })[workload]["metrics"]
    overhead = ", ".join(
        f"{name} {traced[name]:.6g} traced vs "
        f"{baseline['metrics'][name]:.6g} untraced "
        f"({(traced[name] / baseline['metrics'][name] - 1) * 100:+.1f}%)"
        for name in OVERHEAD[workload])
    protocol_us = (metrics["protocol.encode_us.b64"]
                   + metrics["protocol.decode_us.b64"])
    report = [
        f"traced ledger ({workload}, seed {seed}): {len(tracer.spans)} "
        f"spans -> {spans_path.relative_to(procs.ROOT)}",
        f"solo-64 p50 attribution: of {round_p50 / 1e3:.3f} ms, "
        f"{metrics['session.us_per_block.dfcm.b64'] / 1e3:.3f} ms session "
        f"(of which {kernel_us / 1e3:.3f} ms step_block), "
        f"{protocol_us / 1e3:.3f} ms protocol, "
        f"{metrics['client.us_per_request.b64'] / 1e3:.3f} ms client, "
        f"{metrics['server.residual_us.b64'] / 1e3:.3f} ms server residual "
        f"({len(solo_loop['latencies'])} requests)",
    ]
    for name, result in fleets.items():
        figures = result["figures"]
        report.append(
            f"{name} traced section: p50 {figures['p50'] * 1e3:.2f} ms, "
            f"p{figures['tail_pct']} {figures['tail'] * 1e3:.2f} ms over "
            f"{figures['count']} requests; worker STATS batches "
            f"{result['workers'][0]['stats']['batches']}, reloads "
            f"{result['workers'][0]['stats']['reloads_total']}")
    report += [f"tracing overhead ({workload}): {overhead}",
               "  " + gate.summary()]
    attempted = (baseline["attempted"] + sweep_out["cells"]
                 + len(solo_loop["latencies"]) + 2 * HOP_REQUESTS
                 + sum(result["attempted"] for result in fleets.values()))
    failed = (baseline["failed"] + solo_loop["failed"]
              + sum(result["failed"] for result in fleets.values()))
    return {
        "gate": gate,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in MOVES},
        "moves": {name: f"-> {moves}" for name, moves in MOVES.items()},
        "report": report,
    }
