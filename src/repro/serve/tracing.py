"""Wire-level request tracing for the serving data path.

Every request the server accepts gets a :class:`RequestTrace`: the
64-bit trace id from the frame header (the client chooses it; a frame
carrying 0 gets a server-assigned one), plus monotonic stamps at each
stage boundary of the pipeline::

    recv -> submit -> dequeue -> exec_start -> exec_end -> done
           [ queue  ][  fuse   ][  execute  ][   flush   ]

``queue``   waiting in the shard's bounded queue,
``fuse``    held in the micro-batch accumulation window,
``execute`` the (possibly fused) kernel call,
``flush``   writer wait + frame write + socket drain.

Traces are cheap (one small object and six float stamps per request)
so they are **always on** -- no run needs to be active.  Completed
traces feed four surfaces: the latency histogram (bucket exemplars),
the :class:`SlowRequestSampler` (top-K by latency, served at ``/slow``
and dumped on SIGTERM), the bounded per-process :class:`TraceStore`
(served at ``/trace/<id>``), and -- when a telemetry run is active --
one ``serve.request`` span event per request carrying the stage
breakdown.

The cluster router stamps its own :class:`RouterTrace` per proxied
frame, keyed by the *same* u64 trace id the worker stamps::

    recv -> [route] -> (park .. unpark -> flush) -> forward -> reply -> done
            placement    migration / failover wait   proxy      write

so ``GET /trace/<id>`` on the router can merge the router span with
the worker span(s) -- including a request whose worker died mid-flight
and whose frame was re-sent to a second worker -- into one ordered
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
from typing import Dict, List, Optional

__all__ = ["new_trace_id", "format_trace_id", "parse_trace_id",
           "RequestTrace", "RouterTrace", "SlowRequestSampler",
           "TraceStore", "render_trace_report", "percentile",
           "latency_summary"]

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


#: Pipeline stages in order, as (name, start-stamp, end-stamp) attrs.
_STAGES = (("queue", "t_submit", "t_dequeue"),
           ("fuse", "t_dequeue", "t_exec_start"),
           ("execute", "t_exec_start", "t_exec_end"),
           ("flush", "t_exec_end", "t_done"))


@dataclass
class RequestTrace:
    """One request's identity and stage stamps through the server."""

    trace_id: int
    frame_type: str
    request_id: int = 0
    session_id: int = 0
    shard: Optional[int] = None
    records: int = 0
    t_recv: Optional[float] = None
    t_submit: Optional[float] = None
    t_dequeue: Optional[float] = None
    t_exec_start: Optional[float] = None
    t_exec_end: Optional[float] = None
    t_done: Optional[float] = None
    batch_size: int = 0
    fused: bool = False
    status: str = "ok"
    error: Optional[str] = None

    @property
    def trace_id_hex(self) -> str:
        return format_trace_id(self.trace_id)

    def latency_s(self) -> float:
        """recv -> response-written wall time (0.0 while incomplete)."""
        if self.t_recv is None or self.t_done is None:
            return 0.0
        return max(0.0, self.t_done - self.t_recv)

    def stages(self) -> Dict[str, float]:
        """Per-stage durations (seconds); stages never entered are
        absent (e.g. immediate responses skip queue/fuse/execute)."""
        out = {}
        for name, start_attr, end_attr in _STAGES:
            start = getattr(self, start_attr)
            end = getattr(self, end_attr)
            if start is not None and end is not None:
                out[name] = max(0.0, end - start)
        return out

    def to_dict(self) -> dict:
        """JSON-able record (the ``/slow`` sample entry shape)."""
        out = {
            "source": "worker",
            "trace_id": self.trace_id_hex,
            "type": self.frame_type,
            "request_id": self.request_id,
            "session": self.session_id,
            "shard": self.shard,
            "records": self.records,
            "batch_size": self.batch_size,
            "fused": self.fused,
            "status": self.status,
            "latency_ms": round(self.latency_s() * 1e3, 4),
            "stages_ms": {name: round(seconds * 1e3, 4)
                          for name, seconds in self.stages().items()},
        }
        if self.error:
            out["error"] = self.error
        return out


#: Router-side stages in pipeline order (see :class:`RouterTrace`).
ROUTER_STAGE_ORDER = ("route", "park", "flush", "migrate_wait",
                      "proxy", "write")

#: Worker-side stages in pipeline order (see :class:`RequestTrace`).
WORKER_STAGE_ORDER = ("queue", "fuse", "execute", "flush")


@dataclass
class RouterTrace:
    """One proxied request's identity and stage stamps through the
    cluster router, keyed by the same u64 trace id the worker stamps.

    Stamps (all ``time.monotonic``):

    ``t_recv``
        frame read off the client connection (accept);
    ``t_parked`` / ``t_unparked``
        first parked / flushed out of the park queue (hot migration or
        failover re-home in progress);
    ``t_first_forward`` / ``t_last_forward``
        written to a worker; they differ when the first owner died
        mid-flight and the frame was re-sent (``resends`` > 0);
    ``t_replied``
        the worker's response arrived back at the router;
    ``t_done``
        response written (and drained) to the client.

    Derived stages: ``route`` (accept to first hand-off: placement +
    dispatch), ``park`` (parked awaiting migration/failover),
    ``flush`` (unpark to forward), ``migrate_wait`` (between the
    forward a dead worker swallowed and the re-send), ``proxy``
    (last forward to worker reply -- the worker round trip) and
    ``write`` (reply to client-socket drain).  Duck-type compatible
    with :class:`RequestTrace` where the samplers and stores care
    (``latency_s`` / ``to_dict`` / ``trace_id_hex``).
    """

    trace_id: int
    frame_type: str
    request_id: int = 0
    session_id: int = 0
    records: int = 0
    hops: List[int] = field(default_factory=list)
    t_recv: Optional[float] = None
    t_parked: Optional[float] = None
    t_unparked: Optional[float] = None
    t_first_forward: Optional[float] = None
    t_last_forward: Optional[float] = None
    t_replied: Optional[float] = None
    t_done: Optional[float] = None
    parks: int = 0
    status: str = "ok"
    error: Optional[str] = None

    @property
    def trace_id_hex(self) -> str:
        return format_trace_id(self.trace_id)

    @property
    def resends(self) -> int:
        return max(0, len(self.hops) - 1)

    def on_park(self, now: float) -> None:
        if self.t_parked is None:
            self.t_parked = now
        self.parks += 1

    def on_unpark(self, now: float) -> None:
        self.t_unparked = now

    def on_forward(self, worker: int, now: float) -> None:
        self.hops.append(worker)
        if self.t_first_forward is None:
            self.t_first_forward = now
        self.t_last_forward = now

    def latency_s(self) -> float:
        """recv -> response-written wall time (0.0 while incomplete)."""
        if self.t_recv is None or self.t_done is None:
            return 0.0
        return max(0.0, self.t_done - self.t_recv)

    def stages(self) -> Dict[str, float]:
        """Per-stage durations (seconds); stages never entered are
        absent (an unparked, un-resent frame has route/proxy/write)."""
        out: Dict[str, float] = {}
        first_handoff = (self.t_parked if self.t_parked is not None
                         else self.t_first_forward)
        if self.t_recv is not None and first_handoff is not None:
            out["route"] = max(0.0, first_handoff - self.t_recv)
        if self.t_parked is not None and self.t_unparked is not None:
            out["park"] = max(0.0, self.t_unparked - self.t_parked)
            if self.t_last_forward is not None:
                out["flush"] = max(
                    0.0, self.t_last_forward - self.t_unparked)
        if (self.resends and self.t_first_forward is not None
                and self.t_last_forward is not None):
            out["migrate_wait"] = max(
                0.0, self.t_last_forward - self.t_first_forward)
        if self.t_last_forward is not None and self.t_replied is not None:
            out["proxy"] = max(0.0, self.t_replied - self.t_last_forward)
        if self.t_replied is not None and self.t_done is not None:
            out["write"] = max(0.0, self.t_done - self.t_replied)
        return out

    def to_dict(self) -> dict:
        """JSON-able span record (``/trace`` and router ``/slow``)."""
        out = {
            "source": "router",
            "trace_id": self.trace_id_hex,
            "type": self.frame_type,
            "request_id": self.request_id,
            "session": self.session_id,
            "records": self.records,
            "workers": list(self.hops),
            "parked": self.parks > 0,
            "resends": self.resends,
            "status": self.status,
            "latency_ms": round(self.latency_s() * 1e3, 4),
            "stages_ms": {name: round(seconds * 1e3, 4)
                          for name, seconds in self.stages().items()},
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
            "spans": [dict(span, trace_id=format_trace_id(tid))
                      if "trace_id" not in span else dict(span)
                      for tid, span in entries],
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
        if span.get("source") == "router":
            where = "router"
            hops = span.get("workers", [])
            extra = ""
            if hops:
                extra += "  workers " + "->".join(str(w) for w in hops)
            if span.get("resends"):
                extra += f"  resends {span['resends']}"
            elif span.get("parked"):
                extra += "  parked"
            stage_order = ROUTER_STAGE_ORDER
        else:
            where = f"worker {span['worker']}" if "worker" in span \
                else "worker"
            extra = ""
            if span.get("shard") is not None:
                extra += f"  shard {span['shard']}"
            if span.get("batch_size"):
                extra += (f"  batch {span['batch_size']}"
                          + ("+fused" if span.get("fused") else ""))
            stage_order = WORKER_STAGE_ORDER
        lines.append(
            f"  {where:<10} {span.get('type', '?'):<12} "
            f"sid {span.get('session', '?')}  "
            f"{span.get('latency_ms', 0):>9.3f}ms  "
            f"{span.get('status', '?')}{extra}")
        stages = span.get("stages_ms", {})
        shown = [name for name in stage_order if name in stages]
        shown += [name for name in sorted(stages) if name not in shown]
        if shown:
            lines.append("    " + " | ".join(
                f"{name} {stages[name]:.3f}ms" for name in shown))
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

    def add(self, trace: RequestTrace) -> None:
        latency = trace.latency_s()
        with self._lock:
            self.observed += 1
            if len(self._heap) < self.k:
                heapq.heappush(self._heap,
                               (latency, next(self._seq), trace.to_dict()))
            elif latency > self._heap[0][0]:
                heapq.heapreplace(self._heap,
                                  (latency, next(self._seq), trace.to_dict()))

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
