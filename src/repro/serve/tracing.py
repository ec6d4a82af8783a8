"""Wire-level request tracing for the serving data path.

Every request a worker or the cluster router accepts gets one
:class:`RequestTrace` span: the 64-bit trace id from the frame header
(the client chooses it; a frame carrying 0 gets a process-assigned
one) plus an ordered list of stage marks.  A stage runs from the
previous mark (or from accept) to its own mark, so a completed span's
stages add up to its latency.  The stage names, :data:`STAGES`, each
mean one interval::

    router:  accept -> route -> [park -> unpark] -> [migrate_wait]
             -> proxy -> write
    worker:  recv -> decode -> queue -> fuse -> execute -> encode -> flush

``route``        accept to the first hand-off: forward, park, or the
                 router's own answer;
``park``         parked while the session migrates or fails over;
``unpark``       unparked to forwarded;
``migrate_wait`` a forward a dead worker swallowed to the re-send;
``proxy``        last forward to the worker's reply (the worker
                 round trip);
``write``        reply to client-socket drain;
``decode``       frame body decode and dispatch, to the response slot;
``queue``        waiting in the worker's bounded queue;
``fuse``         out of the queue, waiting behind earlier runs of
                 the same micro-batch;
``execute``      the (possibly fused) kernel call;
``encode``       the writer taking up the result and building its
                 response frame (ERROR answers have none);
``flush``        frame write + socket drain.

Traces are cheap (one small object and a few marks per request) so
they are **always on** -- no run needs to be active.  Completed spans
go through :class:`~repro.serve.service.RequestLog`: the latency
histogram (bucket exemplars), the :class:`SlowRequestSampler` (top-K
by latency, served at ``/slow`` and dumped on SIGTERM), the bounded
per-process :class:`TraceStore` (served at ``/trace/<id>``), and --
when a telemetry run is active -- one ``serve.request`` span event.

The router and the worker stamp the *same* u64 trace id, so ``GET
/trace/<id>`` on the router merges the router span with the worker
span(s) -- including a request whose worker died mid-flight and whose
frame was re-sent to a second worker -- into one ordered
cross-process timeline.

:func:`latency_summary` is the one p50/p90/p99 digest every serve-tier
report uses: the ``/slo`` and ``/scale`` windows, the load generators
and the soak harness.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["new_trace_id", "format_trace_id", "parse_trace_id", "STAGES",
           "RequestTrace", "SlowRequestSampler", "TraceStore",
           "render_trace_report", "percentile", "latency_summary"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Per-process upper half of generated trace ids; the lower half is a
#: sequence number, so ids stay unique within a process and collide
#: across processes only with ~2^-32 probability.
_PROCESS_NONCE = (random.getrandbits(24) ^ os.getpid()) & 0xFFFFFFFF
_SEQUENCE = itertools.count(1)


def new_trace_id() -> int:
    """A fresh nonzero 64-bit trace id (0 means "unassigned")."""
    return ((_PROCESS_NONCE << 32) | (next(_SEQUENCE) & 0xFFFFFFFF)) or 1


def format_trace_id(trace_id: int) -> str:
    """Canonical textual form: 16 lowercase hex digits."""
    return f"{trace_id & _MASK64:016x}"


def parse_trace_id(text: str) -> int:
    """Inverse of :func:`format_trace_id`; accepts any hex spelling
    (with or without leading zeros / ``0x``)."""
    try:
        value = int(str(text).strip().lower(), 16)
    except (TypeError, ValueError):
        raise ValueError(f"bad trace id {text!r} (expected up to 16 "
                         f"hex digits)") from None
    if not 0 <= value <= _MASK64:
        raise ValueError(f"trace id {text!r} does not fit in 64 bits")
    return value


#: Every stage a span can carry, in pipeline order: router, then worker.
STAGES = ("route", "park", "unpark", "migrate_wait", "proxy", "write",
          "decode", "queue", "fuse", "execute", "encode", "flush")


@dataclass
class RequestTrace:
    """One request's span through a worker (``source="worker"``) or
    the cluster router (``source="router"``): ``(stage, time)`` marks
    after ``t_recv``, the last one set by :meth:`finish`.  A stage
    marked twice (a frame re-sent twice) sums, so :meth:`stages` add up
    to :meth:`latency_s`.  Workers fill ``batch_size`` and ``fused``;
    the router fills ``workers``, the hop list.
    """

    trace_id: int
    frame_type: str
    source: str = "worker"
    request_id: int = 0
    session_id: int = 0
    records: int = 0
    t_recv: float = 0.0
    t_done: Optional[float] = None
    marks: List[Tuple[str, float]] = field(default_factory=list)
    status: str = "ok"
    error: Optional[str] = None
    batch_size: int = 0
    fused: bool = False
    workers: List[int] = field(default_factory=list)

    def mark(self, stage: str, now: float) -> None:
        """End *stage* at *now* (it began at the previous mark)."""
        self.marks.append((stage, now))

    def finish(self, stage: str, now: float) -> None:
        """Mark the last stage: the response is written."""
        self.mark(stage, now)
        self.t_done = now

    def fail(self, message: Optional[str] = None,
             timeout: bool = False) -> None:
        """Record that the request was answered with an ERROR."""
        self.status = "timeout" if timeout else "error"
        self.error = message

    @property
    def parked(self) -> bool:
        return any(stage == "park" for stage, _ in self.marks)

    @property
    def resends(self) -> int:
        return max(0, len(self.workers) - 1)

    def latency_s(self) -> float:
        """recv -> response-written wall time (0.0 while incomplete)."""
        if self.t_done is None:
            return 0.0
        return self.t_done - self.t_recv

    def stages(self) -> Dict[str, float]:
        """Per-stage durations (seconds) in the order first marked;
        stages never entered are absent."""
        out: Dict[str, float] = {}
        start = self.t_recv
        for stage, at in self.marks:
            out[stage] = out.get(stage, 0.0) + (at - start)
            start = at
        return out

    def to_dict(self) -> dict:
        """JSON-able span record (``/trace`` and ``/slow`` entries)."""
        out = {
            "source": self.source,
            "trace_id": format_trace_id(self.trace_id),
            "type": self.frame_type,
            "request_id": self.request_id,
            "session": self.session_id,
            "records": self.records,
            "batch_size": self.batch_size,
            "fused": self.fused,
            "workers": list(self.workers),
            "parked": self.parked,
            "resends": self.resends,
            "status": self.status,
            "latency_ms": round(self.latency_s() * 1e3, 4),
            "stages_ms": {stage: round(seconds * 1e3, 4)
                          for stage, seconds in self.stages().items()},
        }
        if self.error:
            out["error"] = self.error
        return out


class TraceStore:
    """Bounded in-memory store of completed trace spans per process.

    One request can legitimately leave more than one span in a single
    process (a client re-sending the same trace id over a fresh
    connection after a reconnect), so the store maps trace id -> list
    of span dicts, appended in completion order.  Capacity bounds the
    *total span count*; the oldest spans are evicted first, so steady
    state memory is O(capacity) regardless of traffic.  Thread-safe:
    the event loop appends while CLI/obs threads read.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"trace store capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self.stored = 0
        self._order: deque = deque()       # (trace_id, span) FIFO
        self._spans: Dict[int, List[dict]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._order)

    def put(self, trace_id: int, span: dict) -> None:
        with self._lock:
            self.stored += 1
            self._order.append((trace_id, span))
            self._spans.setdefault(trace_id, []).append(span)
            while len(self._order) > self.capacity:
                old_id, old_span = self._order.popleft()
                spans = self._spans.get(old_id)
                if spans is not None:
                    try:
                        spans.remove(old_span)
                    except ValueError:
                        pass
                    if not spans:
                        del self._spans[old_id]

    def get(self, trace_id: int) -> List[dict]:
        """All stored spans for *trace_id*, oldest first."""
        with self._lock:
            return [dict(span)
                    for span in self._spans.get(trace_id, [])]

    def lookup(self, trace_id: int) -> dict:
        """The ``/trace/<id>`` body shape."""
        spans = self.get(trace_id)
        return {"schema": 1, "trace_id": format_trace_id(trace_id),
                "found": bool(spans), "spans": spans}

    def dump(self, limit: Optional[int] = None) -> dict:
        """The ``/trace`` body: most recent spans (newest last)."""
        with self._lock:
            entries = list(self._order)
        if limit is not None and limit >= 0:
            entries = entries[-limit:]
        return {
            "schema": 1,
            "capacity": self.capacity,
            "stored": self.stored,
            "retained": len(entries),
            "spans": [dict(span) for _, span in entries],
        }


def render_trace_report(report: dict) -> str:
    """Human-readable timeline for a ``/trace/<id>`` body (the
    ``repro trace <id> --from`` renderer)."""
    trace_id = report.get("trace_id", "?")
    spans = report.get("spans", [])
    if not report.get("found") or not spans:
        return f"trace {trace_id}: not found (evicted or never seen)\n"
    scope = "cluster" if report.get("cluster") else "process"
    lines = [f"trace {trace_id}: {len(spans)} span(s), {scope}"]
    for span in spans:
        where = span.get("source", "worker")
        if "worker" in span:
            where += f" {span['worker']}"
        extra = ""
        if span.get("workers"):
            extra += "  workers " + "->".join(
                str(w) for w in span["workers"])
        if span.get("resends"):
            extra += f"  resends {span['resends']}"
        elif span.get("parked"):
            extra += "  parked"
        if span.get("batch_size"):
            extra += (f"  batch {span['batch_size']}"
                      + ("+fused" if span.get("fused") else ""))
        lines.append(
            f"  {where:<10} {span.get('type', '?'):<12} "
            f"sid {span.get('session', '?')}  "
            f"{span.get('latency_ms', 0):>9.3f}ms  "
            f"{span.get('status', '?')}{extra}")
        stages = span.get("stages_ms", {})
        if stages:
            lines.append("    " + " | ".join(
                f"{stage} {stages[stage]:.3f}ms"
                for stage in STAGES if stage in stages))
        if span.get("error"):
            lines.append(f"    error: {span['error']}")
    return "\n".join(lines) + "\n"


class SlowRequestSampler:
    """Always-on top-K (by latency) reservoir of completed traces.

    A fixed-size min-heap: a completed request enters only when it is
    slower than the current K-th slowest, so steady-state cost per
    request is one comparison.  ``snapshot()`` is safe from any thread
    (the obs endpoint and the SIGTERM dump read it while the event
    loop is still completing traces).
    """

    def __init__(self, k: int = 32):
        if k < 1:
            raise ValueError(f"sampler size must be >= 1, got {k}")
        self.k = k
        self.observed = 0
        self._seq = itertools.count()
        self._heap: List[tuple] = []
        self._lock = threading.Lock()

    def add(self, latency: float, entry: dict) -> None:
        """Offer one completed span (its ``to_dict()``) of *latency*
        seconds."""
        with self._lock:
            self.observed += 1
            item = (latency, next(self._seq), entry)
            if len(self._heap) < self.k:
                heapq.heappush(self._heap, item)
            elif latency > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)

    def snapshot(self) -> dict:
        """JSON-able dump: slowest first."""
        with self._lock:
            entries = sorted(self._heap, reverse=True)
            observed = self.observed
        return {
            "schema": 1,
            "k": self.k,
            "observed": observed,
            "slowest": [entry for _, _, entry in entries],
        }


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = int(round((p / 100.0) * (len(sorted_values) - 1)))
    return sorted_values[min(rank, len(sorted_values) - 1)]


def latency_summary(seconds) -> dict:
    """Count plus p50/p90/p99/mean/max in milliseconds (4 decimals) of
    a latency sample in seconds; every figure is 0 for an empty one."""
    ordered = sorted(seconds)
    count = len(ordered)

    def ms(value: float) -> float:
        return round(value * 1e3, 4)

    return {
        "count": count,
        "p50_ms": ms(percentile(ordered, 50)),
        "p90_ms": ms(percentile(ordered, 90)),
        "p99_ms": ms(percentile(ordered, 99)),
        "mean_ms": ms(sum(ordered) / count) if count else 0.0,
        "max_ms": ms(ordered[-1]) if count else 0.0,
    }
