"""solo-64: one closed-loop client, one flagship DFCM session.

A single blocking ``ServeClient`` sends 64-record STEP_BLOCK requests
over the li trace (starting at a seeded offset) to ``repro serve`` with
default flags, each request only after the previous reply.  This is the
lone-simulator case: the batcher's fixed wait and the per-block table
copies dominate it, no router or arena is involved.  Set-up (launch to
the opened session, the median of the launches after a warm-up) and the
timed phase are reported net of host steal (``stats.net_figures``).
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import List

import numpy as np

from perfbench import gen, procs, stats
from perfbench.parity import ParityGate, check_session

#: Launches per run: a warm-up, then the ones whose median is set-up.
SETUPS = 8
#: Per-request deadline; a request still unanswered then is a failure.
REQUEST_TIMEOUT_S = 10.0


def flagship_spec():
    from repro.core.spec import DFCMSpec
    return DFCMSpec(1 << 16, 1 << 12)


class SoloStream:
    """The seeded 64-record block stream over the li trace."""

    def __init__(self, seed: int, trace, block: int = gen.SOLO_BLOCK):
        self.trace = trace
        self.block = block
        self.pcs = trace.pcs.astype(np.int64)
        self.values = trace.values.astype(np.int64)
        self.offset = gen.solo_offset(seed, len(trace))

    def block_at(self, index: int):
        idx = gen.ring(len(self.pcs), self.offset + index * self.block,
                       self.block)
        return self.pcs[idx], self.values[idx]

    def records(self, blocks: List[int]):
        """Concatenated records of the given block indices."""
        if not blocks:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        parts = [self.block_at(i) for i in blocks]
        return (np.concatenate([p for p, _ in parts]),
                np.concatenate([v for _, v in parts]))


def launch(spec):
    """Start ``repro serve``, connect and open the session.

    Returns ``(served, client, session_id)``; set-up runs from process
    launch to the opened session.
    """
    from repro.serve.client import ServeClient
    served = procs.Served(["serve"])
    try:
        client = ServeClient(port=served.port, timeout=REQUEST_TIMEOUT_S,
                             reconnect=0)
        session = client.open_session(spec)
    except BaseException:
        served.stop()
        raise
    return served, client, session


def closed_loop(client, session, stream: SoloStream, seconds: float,
                tracer=None, reconnect=None) -> dict:
    """Drive the stream for *seconds*, one request in flight.

    Failed requests stay in the latency sample as ``inf``.  ``refused``
    lists the requests the server answered with an ERROR frame; a
    request that timed out or was cut off may still have been applied.
    After such a failure *reconnect*, if given, replaces the client.
    """
    from repro.serve.client import ServeError
    from repro.serve.protocol import ProtocolError
    latencies: List[float] = []
    refused: List[int] = []
    hits = failed = 0
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    while time.perf_counter() < deadline:
        pcs, values = stream.block_at(index)
        request_started = time.perf_counter()
        try:
            with (tracer.span("client.step_block", request=index)
                  if tracer else contextlib.nullcontext()):
                predicted, block_hits = client.step_block(session, pcs,
                                                          values)
        except (ServeError, ProtocolError, OSError) as exc:
            latencies.append(float("inf"))
            failed += 1
            if isinstance(exc, ServeError):
                refused.append(index)
            elif reconnect is not None:
                client.close()
                client = reconnect()
        else:
            latencies.append(time.perf_counter() - request_started)
            if len(predicted) != len(pcs):
                raise procs.BenchError(
                    f"block {index}: {len(predicted)} predictions for "
                    f"{len(pcs)} records")
            hits += block_hits
        index += 1
    ended = time.perf_counter()
    return {"latencies": latencies, "refused": refused,
            "hits": hits, "failed": failed, "started": started,
            "ended": ended, "wall": ended - started, "client": client,
            "block": stream.block}


def figures(loop: dict, steal: procs.StealMeter) -> dict:
    """The loop's figures, net of host steal (``stats.net_figures``)."""
    records = sum(loop["block"] for latency in loop["latencies"]
                  if not math.isinf(latency))
    return stats.net_figures(records, loop["wall"],
                             steal.net(loop["started"], loop["ended"]),
                             loop["latencies"], REQUEST_TIMEOUT_S)


def check(gate: ParityGate, label: str, spec, stream: SoloStream,
          loop: dict, counters: dict) -> None:
    """The session's counters against the replay of every block sent."""
    refused = set(loop["refused"])
    pcs, values = stream.records([i for i in range(len(loop["latencies"]))
                                  if i not in refused])
    check_session(gate, label, counters, spec, 0, "li", pcs, values,
                  None if loop["failed"] else loop["hits"])


def run(seed: int, seconds: float, setups: int = SETUPS) -> dict:
    from repro.serve.client import ServeClient
    spec = flagship_spec()
    stream = SoloStream(seed, procs.load_traces(["li"])["li"])
    setup = []
    served = client = None
    steal = procs.StealMeter()
    try:
        for attempt in range(setups):
            started = time.perf_counter()
            served, client, session = launch(spec)
            setup.append(steal.net(started, time.perf_counter()))
            if attempt < setups - 1:
                client.close()
                served.stop()
                served = client = None

        def reconnect():
            return ServeClient(port=served.port, timeout=REQUEST_TIMEOUT_S,
                               reconnect=0)

        loop = closed_loop(client, session, stream, seconds,
                           reconnect=reconnect)
        client = loop["client"]
        peak_kb = served.peak_rss_kb()
        counters = client.stats(session)
    finally:
        steal.stop()
        if client is not None:
            client.close()
        if served is not None:
            served.stop()
    gate = ParityGate()
    check(gate, "solo session", spec, stream, loop, counters)
    run_figures = figures(loop, steal)
    return {
        "gate": gate,
        "attempted": len(loop["latencies"]),
        "failed": loop["failed"],
        "metrics": {
            "setup_s": procs.setup_figure(setup),
            "records_per_s": run_figures["records_per_s"],
            "latency_p50_ms": run_figures["p50"] * 1e3,
            "latency_p99_ms": run_figures["tail"] * 1e3,
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "report": [
            f"solo-64: {len(loop['latencies'])} requests of "
            f"{stream.block} records from li offset {stream.offset}, "
            f"{loop['wall']:.1f}s closed loop",
            "  setup samples (s, net of host steal, first is a warm-up): "
            + ", ".join(f"{s:.3f}" for s in setup),
            "  latency: " + stats.describe(run_figures),
            "  " + steal.describe(loop["started"], loop["ended"]),
            "  " + gate.summary(),
        ],
    }
