"""fleet-churn and fleet-closed: many independent simulators sharing a fleet.

``repro cluster serve --workers 1 --max-resident 16`` with a state
directory hosts 48 sessions: DFCM, FCM, stride and LVP, plus one in
eight windowed DFCM sessions (window 4, the scalar ``Session`` path).
Each session replays its own SPEC-mini trace from a seeded offset.
Requests pick their session by Zipf-skewed popularity and carry 16 to
4096 records (see :mod:`perfbench.gen`).  Every request goes through
the router, and with 16 of 48 sessions resident many of them reload a
spilled session from its arena first.  Load comes from one asyncio
thread over at most ``nproc`` (and at most two) connections; a session
always uses the same connection.

* fleet-churn is an open loop: requests are due as a Poisson process
  at :data:`RATE` per second, sent on schedule without waiting for
  replies, and timed from the moment they were due -- so a stall also
  charges the requests queued behind it.  The generator's own lateness
  is reported.
* fleet-closed is a closed loop: each connection sends its next
  request only after the previous reply, and each request is timed
  from its send.  A stall delays the one request in flight per
  connection, not the whole queue behind it, so its figures hold still
  enough on a shared host to be gated on.

Set-up (launch to the opened fleet, the median of the launches after
a warm-up) and the timed phase are reported net of host steal
(``stats.net_figures``).  The state directory lives in the checkout's
work directory: the benchmark writes nowhere else.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import socket
import struct
import time
from typing import List, Optional

import numpy as np

from perfbench import gen, procs, stats
from perfbench.parity import ParityGate, check_session

#: Requests per second of the open loop: about half of what the parent
#: sustains.
RATE = 60.0
#: The closed loop's schedule is generated for this many requests per
#: second, far more than it can send, so it never runs out.
CLOSED_PLAN_RATE = 2000.0
#: Launches per run: a warm-up, then the ones whose median is set-up.
SETUPS = 4
MAX_RESIDENT = 16
#: Per-request deadline of the closed loop; after the last send of the
#: open loop, unanswered requests get this long to complete.
REQUEST_TIMEOUT_S = 30.0
#: Seconds between the end of set-up and the first due time.
LEAD_S = 0.05

_RESULT_HEAD = struct.Struct("!II")


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


#: Level-1 / level-2 entries of every fleet session's tables.
L1_ENTRIES = 1 << 16
L2_ENTRIES = 1 << 12


def fleet_spec(family: str):
    from repro.core.spec import DFCMSpec, FCMSpec, LastValueSpec, StrideSpec
    return {
        "dfcm": lambda: DFCMSpec(L1_ENTRIES, L2_ENTRIES),
        "fcm": lambda: FCMSpec(L1_ENTRIES, L2_ENTRIES),
        "stride": lambda: StrideSpec(L1_ENTRIES),
        "lvp": lambda: LastValueSpec(L1_ENTRIES),
    }[family]()


class Plan:
    """The seeded fleet: sessions, schedule, and every request's records."""

    def __init__(self, seed: int, seconds: float, rate: float = RATE):
        from repro.workloads.registry import SPEC_NAMES
        self.seed = seed
        self.traces = procs.load_traces(SPEC_NAMES)
        self.sessions, self.requests = gen.fleet_plan(
            seed, seconds, rate, SPEC_NAMES, procs.TRACE_LEN, connections())
        self.specs = [fleet_spec(s.family) for s in self.sessions]
        self.session_of = np.asarray([r.session for r in self.requests])
        self.conn_of = np.asarray([self.sessions[s].conn
                                   for s in self.session_of.tolist()])
        self.sizes = np.asarray([r.size for r in self.requests])

    def records(self, index: int):
        request = self.requests[index]
        trace = self.traces[self.sessions[request.session].trace]
        idx = gen.ring(len(trace), request.start, request.size)
        return (trace.pcs[idx].astype(np.int64),
                trace.values[idx].astype(np.int64))

    def records_of(self, indices):
        """Concatenated records of the given requests, in order."""
        parts = [self.records(i) for i in indices]
        if not parts:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return (np.concatenate([p for p, _ in parts]),
                np.concatenate([v for _, v in parts]))

    def frame(self, index: int, session_ids: List[int], request_id: int,
              tracer=None) -> bytes:
        """Request *index* as a complete STEP_BLOCK frame."""
        from repro.serve import protocol
        request = self.requests[index]
        pcs, values = self.records(index)
        started = time.perf_counter()
        frame = protocol.encode_frame(
            protocol.FrameType.STEP_BLOCK, request_id,
            protocol.encode_step_block(session_ids[request.session],
                                       pcs, values),
            trace_id=(self.seed & 0xFFFFFFFF) << 32 | (index + 1))
        if tracer is not None:
            tracer.record("protocol.encode", started, time.perf_counter(),
                          request=index, records=request.size)
        return frame

    def frames(self, session_ids: List[int], tracer=None) -> List[bytes]:
        """Every request as a frame, built up front (the open loop)."""
        out = []
        per_conn = [0] * connections()
        for index in range(len(self.requests)):
            conn = int(self.conn_of[index])
            per_conn[conn] += 1
            out.append(self.frame(index, session_ids, per_conn[conn],
                                  tracer))
        return out


def launch(plan: Plan, state_dir):
    """Start the cluster and open the fleet; returns (served, ids)."""
    from repro.serve.client import ServeClient
    served = procs.Served(["cluster", "serve", "--workers", "1",
                           "--state-dir", str(state_dir),
                           "--max-resident", str(MAX_RESIDENT)])
    try:
        with ServeClient(port=served.port, reconnect=0) as client:
            ids = [client.open_session(spec, window=session.window)
                   for spec, session in zip(plan.specs, plan.sessions)]
    except BaseException:
        served.stop()
        raise
    return served, ids


# ------------------------------------------------------------ the loops

def _outcome(n: int) -> dict:
    """Per-request timestamps and results of one loop."""
    return {"send": np.full(n, np.nan), "recv": np.full(n, np.nan),
            "hits": np.zeros(n, dtype=np.int64),
            "ok": np.zeros(n, dtype=bool),
            "refused": np.zeros(n, dtype=bool)}


async def _connect(port: int) -> list:
    links = []
    for _ in range(connections()):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        links.append((reader, writer))
    return links


async def _close(links) -> None:
    for _, writer in links:
        writer.close()
    for _, writer in links:
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _read_reply(reader):
    from repro.serve import protocol
    head = await reader.readexactly(4)
    payload = await reader.readexactly(protocol.read_length(head))
    return time.perf_counter(), protocol.decode_frame(payload)


def _accept(plan: Plan, out: dict, index: int, now: float, frame) -> None:
    """Record the reply to request *index*."""
    from repro.serve import protocol
    out["recv"][index] = now
    if frame.type == protocol.FrameType.ERROR:
        out["refused"][index] = True
        return
    count, hits = _RESULT_HEAD.unpack_from(frame.body)
    if count != plan.requests[index].size:
        raise procs.BenchError(f"request {index}: {count} predictions for "
                               f"{plan.requests[index].size} records")
    out["hits"][index] = hits
    out["ok"][index] = True


async def _open_loop(port: int, plan: Plan, frames: List[bytes]) -> dict:
    out = _outcome(len(plan.requests))
    pending = [0]
    done = asyncio.Event()
    sent_all = asyncio.Event()
    links = [(reader, writer, []) for reader, writer in await _connect(port)]

    async def receive(reader, fifo):
        while True:
            try:
                now, frame = await _read_reply(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            _accept(plan, out, fifo.pop(0), now, frame)
            pending[0] -= 1
            if pending[0] == 0 and sent_all.is_set():
                done.set()

    readers = [asyncio.create_task(receive(r, fifo)) for r, _, fifo in links]
    start = time.perf_counter() + LEAD_S
    for index, request in enumerate(plan.requests):
        delay = start + request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        _, writer, fifo = links[plan.conn_of[index]]
        fifo.append(index)
        pending[0] += 1
        writer.write(frames[index])
        out["send"][index] = time.perf_counter()
    sent_all.set()
    if pending[0] == 0:
        done.set()
    try:
        await asyncio.wait_for(done.wait(), REQUEST_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    for task in readers:
        try:
            await task
        except asyncio.CancelledError:
            pass
    await _close([(r, w) for r, w, _ in links])
    out["start"] = start
    out["end"] = time.perf_counter()
    out["due"] = start + np.asarray([r.due for r in plan.requests])
    return out


async def _closed_loop(port: int, plan: Plan, session_ids: List[int],
                       seconds: float, tracer=None) -> dict:
    out = _outcome(len(plan.requests))
    links = await _connect(port)
    start = time.perf_counter()
    deadline = start + seconds

    async def drive(conn, reader, writer):
        for rid, index in enumerate(
                np.flatnonzero(plan.conn_of == conn).tolist(), 1):
            if time.perf_counter() >= deadline:
                return
            frame = plan.frame(index, session_ids, rid, tracer)
            out["send"][index] = time.perf_counter()
            writer.write(frame)
            try:
                now, reply = await asyncio.wait_for(_read_reply(reader),
                                                    REQUEST_TIMEOUT_S)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return  # the connection is lost; its request stays a miss
            _accept(plan, out, index, now, reply)
        raise procs.BenchError("the closed loop ran out of schedule")

    try:
        await asyncio.gather(*(drive(conn, reader, writer)
                               for conn, (reader, writer)
                               in enumerate(links)))
    finally:
        await _close(links)
    out["start"] = start
    out["end"] = time.perf_counter()
    return out


def open_loop(port: int, plan: Plan, frames: List[bytes]) -> dict:
    return asyncio.run(_open_loop(port, plan, frames))


def closed_loop(port: int, plan: Plan, session_ids: List[int],
                seconds: float, tracer=None) -> dict:
    return asyncio.run(_closed_loop(port, plan, session_ids, seconds,
                                    tracer))


# -------------------------------------------------------------- results

def sent(loop: dict) -> np.ndarray:
    return ~np.isnan(loop["send"])


def parity(plan: Plan, loop: dict, counters: List[dict]) -> ParityGate:
    """Each session's counters against the replay of what it was sent."""
    gate = ParityGate()
    applied = sent(loop) & ~loop["refused"]
    for index, session in enumerate(plan.sessions):
        mine = np.flatnonzero(applied & (plan.session_of == index))
        pcs, values = plan.records_of(mine.tolist())
        check_session(
            gate, f"session rank {session.rank} ({session.family} "
                  f"w{session.window} on {session.trace})",
            counters[index], plan.specs[index], session.window,
            session.trace, pcs, values,
            int(loop["hits"][mine].sum()) if loop["ok"][mine].all()
            else None)
    return gate


def session_counters(port: int, session_ids: List[int]) -> List[dict]:
    """Every session's own STATS, read through the router."""
    from repro.serve.client import ServeClient
    with ServeClient(port=port, reconnect=0) as client:
        return [client.stats(sid) for sid in session_ids]


def worker_stats(port: int) -> List[dict]:
    """The router's worker rows (pid, port), each with its own STATS."""
    from repro.serve.client import ServeClient
    with ServeClient(port=port, reconnect=0) as client:
        workers = client.stats(0)["workers"]
    for worker in workers:
        with ServeClient(port=int(worker["port"]), reconnect=0) as client:
            worker["stats"] = client.stats(0)
    return workers


def open_figures(plan: Plan, loop: dict, steal: procs.StealMeter) -> dict:
    """The open loop's figures, net of host steal: latency from each
    request's due time, throughput from the first due time to the last
    reply."""
    answered = loop["ok"]
    latency = np.where(answered, loop["recv"] - loop["due"], np.inf)
    end = loop["recv"][answered].max() if answered.any() else loop["end"]
    return stats.net_figures(int(plan.sizes[answered].sum()),
                             end - loop["start"],
                             steal.net(loop["start"], end),
                             latency.tolist(), REQUEST_TIMEOUT_S)


def closed_figures(plan: Plan, loop: dict, steal: procs.StealMeter) -> dict:
    """The closed loop's figures, net of host steal: latency from each
    request's send."""
    mine = sent(loop)
    answered = loop["ok"][mine]
    latency = np.where(answered, (loop["recv"] - loop["send"])[mine],
                       np.inf)
    return stats.net_figures(int(plan.sizes[mine][answered].sum()),
                             loop["end"] - loop["start"],
                             steal.net(loop["start"], loop["end"]),
                             latency.tolist(), REQUEST_TIMEOUT_S)


def _record_spans(tracer, loop: dict, closed: bool) -> None:
    """Per-request spans from the loop's timestamps: the request (from
    its due time, or its send in the closed loop), the generator's
    lateness and the wait for the reply."""
    for index in np.flatnonzero(loop["ok"]).tolist():
        send, recv = loop["send"][index], loop["recv"][index]
        begin = send if closed else loop["due"][index]
        root = tracer.record("fleet.request", begin, recv, request=index)
        if not closed:
            tracer.record("generator.late", begin, send, root.span_id,
                          index)
        tracer.record("server.wait", send, recv, root.span_id, index)


def state_dir(tag: str):
    path = procs.WORK / "state" / f"{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def run(seed: int, seconds: float, setups: int = SETUPS,
        closed: bool = False, tracer=None) -> dict:
    """fleet-churn, or fleet-closed when *closed*; *tracer* records the
    frame encodes and per-request spans (the traced ledger)."""
    name = "fleet-closed" if closed else "fleet-churn"
    plan = Plan(seed, seconds, CLOSED_PLAN_RATE if closed else RATE)
    setup = []
    served: Optional[procs.Served] = None
    dirs = []
    steal = procs.StealMeter()
    try:
        for attempt in range(setups):
            dirs.append(state_dir(str(attempt)))
            started = time.perf_counter()
            served, ids = launch(plan, dirs[-1])
            setup.append(steal.net(started, time.perf_counter()))
            if attempt < setups - 1:
                served.stop()
                served = None
        frames = None if closed else plan.frames(ids, tracer)
        if closed:
            loop = closed_loop(served.port, plan, ids, seconds, tracer)
        else:
            loop = open_loop(served.port, plan, frames)
        workers = worker_stats(served.port)
        peak_kb = served.peak_rss_kb([int(w["pid"]) for w in workers])
        counters = session_counters(served.port, ids)
    finally:
        steal.stop()
        if served is not None:
            served.stop()
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)
    if tracer is not None:
        _record_spans(tracer, loop, closed)
    gate = parity(plan, loop, counters)
    attempted = int(sent(loop).sum())
    figures = (closed_figures(plan, loop, steal) if closed
               else open_figures(plan, loop, steal))
    busy = workers[0]["stats"]
    report = [
        f"{name}: {attempted} requests to {len(plan.sessions)} sessions "
        f"over {connections()} connection(s), "
        + ("closed loop" if closed else f"due at {RATE:g}/s")
        + f", {int(plan.sizes[loop['ok']].sum()):,} records answered; "
        f"worker: {busy['reloads_total']} reloads "
        f"({busy['reloads_total'] / attempted:.0%} of requests), "
        f"{busy['evictions_total']} evictions",
        "  setup samples (s, net of host steal, first is a warm-up): "
        + ", ".join(f"{s:.3f}" for s in setup),
        ("  latency from send: " if closed else "  latency from due time: ")
        + stats.describe(figures),
    ]
    if not closed:
        late = stats.summarize((loop["send"] - loop["due"]).tolist())
        report.append(f"  generator lateness: p50 {late['p50'] * 1e3:.3f} "
                      f"ms, p{late['tail_pct']} {late['tail'] * 1e3:.3f} ms")
    report += ["  " + steal.describe(loop["start"], loop["end"]),
               "  " + gate.summary()]
    return {
        "gate": gate,
        "attempted": attempted,
        "failed": int((sent(loop) & ~loop["ok"]).sum()),
        "metrics": {
            "setup_s": procs.setup_figure(setup),
            "records_per_s": figures["records_per_s"],
            "latency_p50_ms": figures["p50"] * 1e3,
            "latency_p99_ms": figures["tail"] * 1e3,
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "workers": workers,
        "figures": figures,
        "report": report,
    }
