"""The chassis under both serve-tier listeners.

:class:`~repro.serve.server.PredictionServer` and the cluster
:class:`~repro.serve.cluster.router.Router` are each a TCP listener
speaking the frame protocol with an HTTP observability endpoint beside
it.  What they share lives here once: :class:`FrameService` (listener,
connection loop, the one in-order response path, drain, obs endpoint,
session ids), :class:`ServiceMetrics` (the instruments both declare),
:class:`RequestLog` (completed-request bookkeeping), :func:`run_service`
/ :func:`serve_until_signalled` (start, announce, wait, drain) and
:class:`ServiceThread` (the same on a background thread).
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from collections import deque
from typing import Callable, List, NamedTuple, Optional

from repro.core.state import StateVersionError
from repro.serve import protocol
from repro.serve.obs import ObservabilityServer
from repro.serve.tracing import (RequestTrace, SlowRequestSampler,
                                 TraceStore, latency_summary, new_trace_id)
from repro.telemetry import run as telemetry_run_module
from repro.telemetry.live import live_prometheus_text
from repro.telemetry.registry import registry
from repro.telemetry.spans import emit_span

__all__ = ["FrameService", "ServiceMetrics", "Slot", "Refusal",
           "RequestLog", "ServiceThread", "run_service",
           "serve_until_signalled", "pooled_table_ratios",
           "LATENCY_BUCKETS", "DATA_TYPES"]

#: Upper bounds (seconds) of every ``*_request_seconds`` histogram.
LATENCY_BUCKETS = (.0001, .0005, .001, .005, .025, .1, .5, 2.5)

#: Frame types on the prediction data path: their latencies feed the
#: rolling window and the latency SLO streams (admin frames like STATS
#: would skew the percentiles).
DATA_TYPES = frozenset({"step", "step_block", "predict", "outcome"})

#: The rolling data-path window behind ``/slo`` and ``/scale``: the
#: last ``WINDOW_S`` seconds or the last ``WINDOW_REQUESTS`` data-path
#: requests, whichever is shorter.
WINDOW_S = 60.0
WINDOW_REQUESTS = 4096

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 90.0


class ServiceMetrics:
    """Registry handles every service declares, under its own metric
    prefix (``repro_serve`` on a worker, ``repro_cluster`` at the
    router); each service's metrics class adds its own."""

    def __init__(self, prefix: str):
        reg = registry()
        self.connections_open = reg.gauge(
            f"{prefix}_connections_open", "Client connections open.")
        self.errors = reg.counter(
            f"{prefix}_errors_total",
            "ERROR responses this process sent, by error code.",
            labels=("code",))
        self.records = reg.counter(
            f"{prefix}_records_total",
            "Prediction records served (STEP/STEP_BLOCK).")
        self.hits = reg.counter(
            f"{prefix}_hits_total", "Correct predictions served.")
        self.request_seconds = reg.histogram(
            f"{prefix}_request_seconds",
            "End-to-end request latency (frame read to response written).",
            buckets=LATENCY_BUCKETS, labels=("type",))


class RequestLog:
    """Every completed request, recorded once: the ``*_request_seconds``
    histogram (trace id as bucket exemplar), the slow-request sample,
    the trace store, a ``serve.request`` span event when a telemetry
    run is active and, for data-path frames, the rolling window behind
    ``/slo`` and ``/scale`` and the latency SLOs of a watched
    monitor."""

    def __init__(self, request_seconds):
        self._request_seconds = request_seconds
        self.slow = SlowRequestSampler()
        self.traces = TraceStore()
        self._data: deque = deque(maxlen=WINDOW_REQUESTS)  # (t_done, s)
        self._monitor = None
        self._latency_slos: list = []

    def watch(self, monitor) -> None:
        """Feed each data-path latency to *monitor*'s latency SLOs."""
        self._monitor = monitor
        self._latency_slos = [s for s in monitor.slos
                              if s.kind == "latency"]

    def record(self, trace) -> None:
        """Record one completed :class:`~repro.serve.tracing.RequestTrace`."""
        latency = trace.latency_s()
        entry = trace.to_dict()
        self._request_seconds.observe(
            latency, exemplar=entry["trace_id"], type=trace.frame_type)
        self.slow.add(latency, entry)
        self.traces.put(trace.trace_id, entry)
        if trace.frame_type in DATA_TYPES:
            self._data.append((trace.t_done, latency))
            for slo in self._latency_slos:
                good = 1 if latency <= slo.threshold else 0
                self._monitor.record(slo.name, good=good, bad=1 - good,
                                     now=trace.t_done)
        run = telemetry_run_module.active_run()
        if run is not None:
            emit_span(run, "serve.request", run.next_span_id(), None, 0,
                      latency, trace.status, entry)

    def window_summary(self) -> dict:
        """:func:`~repro.serve.tracing.latency_summary` of the data-path
        window, plus ``window_s``: the age of its oldest sample, i.e.
        the seconds the summary covers (0 when it is empty)."""
        now = time.monotonic()
        window = [(t_done, lat) for t_done, lat in self._data
                  if t_done >= now - WINDOW_S]
        summary = latency_summary([lat for _, lat in window])
        summary["window_s"] = (round(now - window[0][0], 3)
                               if window else 0.0)
        return summary


class Refusal(NamedTuple):
    """An answer that is an ERROR frame: what a response future
    resolves to when its request is refused rather than served."""

    code: int
    message: str


def _refusal_for(exc: Exception) -> Refusal:
    """The ERROR answer for a request whose execution raised *exc*."""
    if isinstance(exc, KeyError):
        return Refusal(protocol.ErrorCode.UNKNOWN_SESSION,
                       f"unknown session {exc.args[0] if exc.args else ''}")
    if isinstance(exc, StateVersionError):
        # The arena is sound but from another deploy generation: a
        # distinct code so rolling-deploy tooling can tell "refused
        # restore" from a generic failure.
        return Refusal(protocol.ErrorCode.STATE_VERSION, str(exc))
    if isinstance(exc, (ValueError, protocol.ProtocolError)):
        return Refusal(protocol.ErrorCode.BAD_FRAME, str(exc))
    return Refusal(protocol.ErrorCode.INTERNAL,
                   f"{type(exc).__name__}: {exc}")


class Slot:
    """One response on a connection, answered in request order: the
    future its result (or :class:`Refusal`) arrives on, the span it
    completes, and the request and trace ids its frame carries."""

    __slots__ = ("future", "trace", "request_id", "trace_id")

    def __init__(self, future: asyncio.Future,
                 trace: Optional[RequestTrace], request_id: int,
                 trace_id: int):
        self.future = future
        self.trace = trace
        self.request_id = request_id
        self.trace_id = trace_id


class Connection:
    """One client connection: its writer, response queue and tasks.
    ``reading`` is true while the reader waits for the next frame --
    the only point where a drain may cancel it."""

    __slots__ = ("writer", "responses", "reader_task", "writer_task",
                 "reading")

    def __init__(self, writer):
        self.writer = writer
        self.responses: asyncio.Queue = asyncio.Queue()
        self.reader_task: Optional[asyncio.Task] = None
        self.writer_task: Optional[asyncio.Task] = None
        self.reading = False


class FrameService:
    """A frame-protocol TCP listener with an observability endpoint.

    ``start()`` calls :meth:`_listen`, ``stop()`` calls
    :meth:`_stop_listening`.  A connection is two tasks.  The reader
    awaits the subclass's ``async _dispatch_payload(conn, payload)``
    for each frame (the bytes after its length prefix) in turn; the
    dispatch queues a :class:`Slot` on ``conn.responses`` before
    anything else, so responses go out in request order and no
    accepted request is dropped.  A bad length prefix or header raises
    :class:`~repro.serve.protocol.ProtocolError`: the reader queues a
    BAD_FRAME answer and closes the connection.

    The writer, :meth:`_writer_loop`, is the one response path: it
    answers the slots in order until the reader's ``None`` sentinel,
    each with one frame written in one piece.  A subclass supplies only
    ``_response_frame(slot, result)``, the wire bytes of a served
    result; every ERROR frame comes from :meth:`_error_frame`.  A
    connection has one deadline, armed for its head slot while the
    writer waits on it: after ``request_timeout`` the slot's future
    resolves to a ``TIMEOUT`` refusal.  The work itself is never
    cancelled -- its late result finds the future done and is dropped.

    The observability endpoint (when *obs_port* is not None) binds the
    data listener's host and serves this object's report methods (see
    :class:`~repro.serve.obs.ObservabilityServer`).
    """

    #: The ``service`` field of the observability endpoint's index.
    service_name = "repro-serve"
    #: ``RequestTrace.source`` of this service's spans, the stage an
    #: immediate answer ends, and the last stage (response written).
    trace_source, answer_stage, write_stage = "worker", "decode", "flush"
    #: The TIMEOUT message, formatted with ``request_timeout``.
    timeout_message = "request not served within {:g}s"

    def __init__(self, host: str, port: int, obs_port: Optional[int],
                 metrics: ServiceMetrics, request_timeout: float):
        self.host = host
        self.port = port
        self.obs_port: Optional[int] = obs_port
        self.metrics = metrics
        self.request_timeout = request_timeout
        self.request_log = RequestLog(metrics.request_seconds)
        self._connections: List[Connection] = []
        self._listener: Optional[asyncio.base_events.Server] = None
        self._obs = (ObservabilityServer(self, host, obs_port)
                     if obs_port is not None else None)
        self._next_session_id = 1
        self._stopping = False
        self._started_at = 0.0

    async def _listen(self) -> None:
        self._listener = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._listener.sockets[0].getsockname()[1]
        if self._obs is not None:
            await self._obs.start()
            self.obs_port = self._obs.port
        self._started_at = time.time()

    async def _stop_listening(self) -> None:
        """Stop accepting, drain every connection, close the obs port.

        Readers first: a reader waiting for a frame is cancelled, one
        mid-dispatch (say, blocked on a full work queue) finishes
        that dispatch and then stops reading.  Each reader's cleanup
        then closes its own response queue and awaits the writer, which
        answers everything already accepted -- whatever executes the
        requests must still be running underneath.  ``wait_closed()``
        comes after this drain: on Python >= 3.12.1 it also waits for
        the connection handlers (the readers), so awaiting it first
        would deadlock against any open connection.
        """
        self._stopping = True
        if self._listener is not None:
            self._listener.close()
        for conn in list(self._connections):
            if conn.reading:
                conn.reader_task.cancel()
        await asyncio.gather(
            *(c.reader_task for c in self._connections if c.reader_task),
            return_exceptions=True)
        if self._listener is not None:
            await self._listener.wait_closed()
            self._listener = None
        if self._obs is not None:
            await self._obs.stop()

    def uptime_s(self) -> float:
        return (round(time.time() - self._started_at, 3)
                if self._started_at else 0.0)

    def metrics_text(self, prefix: Optional[str] = None,
                     exemplars: bool = False) -> str:
        """The ``/metrics`` body: the live process registry."""
        return live_prometheus_text(prefix=prefix, exemplars=exemplars)

    def slow_requests(self) -> dict:
        """The ``/slow`` body: top-K slowest completed requests."""
        return self.request_log.slow.snapshot()

    def trace_lookup(self, trace_id: int) -> dict:
        """The ``/trace/<id>`` body: this process's span(s) for one
        trace id (a request that revisited this process after a client
        reconnect has several)."""
        return self.request_log.traces.lookup(trace_id)

    def trace_dump(self, limit: Optional[int] = None) -> dict:
        """The ``/trace`` body: the most recent completed spans."""
        return self.request_log.traces.dump(limit)

    def _health_status(self, alerts) -> str:
        """The ``/healthz`` status: draining, degraded or ok."""
        if self._stopping:
            return "draining"
        return "degraded" if alerts else "ok"

    async def _serve_connection(self, reader, writer) -> None:
        if self._stopping:
            writer.close()
            return
        conn = Connection(writer)
        conn.reader_task = asyncio.current_task()
        conn.writer_task = asyncio.ensure_future(self._writer_loop(conn))
        self._connections.append(conn)
        self.metrics.connections_open.inc()
        try:
            while not self._stopping:
                conn.reading = True
                payload = await protocol.read_payload(reader)
                conn.reading = False
                if payload is None:
                    break
                await self._dispatch_payload(conn, payload)
        except asyncio.CancelledError:
            pass
        except protocol.ProtocolError as exc:
            self._refuse_connection(conn, str(exc))
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            conn.reading = False
            conn.responses.put_nowait(None)
            try:
                await conn.writer_task
            except (Exception, asyncio.CancelledError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            self._connections.remove(conn)
            self.metrics.connections_open.dec()

    def _refuse_connection(self, conn: Connection, message: str) -> None:
        """Answer a frame too broken to dispatch (a bad length prefix
        or header) with BAD_FRAME under request and trace id 0, in a
        span of its own; the connection closes after it."""
        now = time.monotonic()
        trace = RequestTrace(trace_id=new_trace_id(), frame_type="error",
                             source=self.trace_source, t_recv=now)
        trace.mark(self.answer_stage, now)
        future = asyncio.get_running_loop().create_future()
        future.set_result(Refusal(protocol.ErrorCode.BAD_FRAME, message))
        conn.responses.put_nowait(Slot(future, trace, 0, 0))

    async def _writer_loop(self, conn: Connection) -> None:
        """Answer *conn*'s slots in request order, one write each."""
        loop = asyncio.get_running_loop()
        while True:
            slot = await conn.responses.get()
            if slot is None:
                return
            if not slot.future.done():
                deadline = loop.call_later(self.request_timeout,
                                           self._expire, slot.future)
                try:
                    await slot.future
                except Exception:  # noqa: BLE001 - answered below
                    pass
                deadline.cancel()
            frame = self._answer(slot)
            try:
                conn.writer.write(frame)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                return
            if slot.trace is not None:
                slot.trace.finish(self.write_stage, time.monotonic())
                self.request_log.record(slot.trace)

    def _expire(self, future: asyncio.Future) -> None:
        """The connection's deadline: the head slot is answered
        TIMEOUT.  Whoever resolves *future* later finds it done."""
        if not future.done():
            future.set_result(Refusal(
                protocol.ErrorCode.TIMEOUT,
                self.timeout_message.format(self.request_timeout)))

    def _answer(self, slot: Slot) -> bytes:
        """The frame answering *slot*, whose future is done."""
        try:
            result = slot.future.result()
            if not isinstance(result, Refusal):
                return self._response_frame(slot, result)
        except Exception as exc:  # noqa: BLE001 - the client gets it
            result = _refusal_for(exc)
        return self._error_frame(slot, result)

    def _error_frame(self, slot: Slot, refusal: Refusal) -> bytes:
        """A counted ERROR frame; the slot's span records the failure."""
        self.metrics.errors.inc(code=protocol.error_code_name(refusal.code))
        if slot.trace is not None:
            slot.trace.fail(refusal.message,
                            timeout=refusal.code == protocol.ErrorCode.TIMEOUT)
        return protocol.encode_frame(
            protocol.FrameType.ERROR, slot.request_id,
            protocol.encode_error(refusal.code, refusal.message),
            slot.trace_id)

    def _alloc_session_id(self) -> int:
        session_id = self._next_session_id
        self._next_session_id += 1
        return session_id

    def _note_session_id(self, session_id: int) -> None:
        """Keep the id counter above every externally-assigned id
        (adopted arenas, router-dictated OPEN_SESSION_AS) so a fresh
        allocation never collides."""
        self._next_session_id = max(self._next_session_id,
                                    session_id + 1)


def pooled_table_ratios(totals: dict) -> dict:
    """Add the pooled ``occupancy`` / ``efficiency`` /
    ``aliasing_ratio`` to a ``/tables`` totals dict of summed
    live/storage bits, hits and aliasing counts; returns *totals*."""
    totals["occupancy"] = (
        round(totals["live_bits"] / totals["storage_bits"], 6)
        if totals["storage_bits"] else 0.0)
    totals["efficiency"] = (
        round(totals["hits"] / totals["live_bits"], 9)
        if totals["live_bits"] else 0.0)
    totals["aliasing_ratio"] = (
        round(totals["alias_conflicts"] / totals["alias_accesses"], 6)
        if totals["alias_accesses"] else 0.0)
    return totals


async def run_service(service, announce: Callable, stop_event) -> dict:
    """Start *service*, ``announce(service)``, wait for *stop_event*,
    then drain; returns the stats its ``stop()`` reports."""
    await service.start()
    announce(service)
    await stop_event.wait()
    return await service.stop()


async def serve_until_signalled(service, announce: Callable) -> dict:
    """:func:`run_service` until SIGINT or SIGTERM.

    The handlers are installed before ``start()``: a signal that
    arrives as soon as the ``listening`` announcement is out must
    drain, not kill the process with the default action.
    """
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            signal.signal(signum, lambda *_: stop.set())
    return await run_service(service, announce, stop)


class ServiceThread:
    """A service on a background event loop, behind a blocking API.

    *make_service* builds the service on that loop.  ``start()``
    returns once it listens (re-raising any startup error); ``stop()``
    performs its graceful drain and returns the final stats, also kept
    in :attr:`final_stats`.
    """

    def __init__(self, make_service: Callable):
        self._make_service = make_service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.service = None
        self.port: Optional[int] = None
        self.obs_port: Optional[int] = None
        self.final_stats: Optional[dict] = None

    def start(self):
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(),), daemon=True,
            name="repro-serve")
        self._thread.start()
        self._ready.wait(timeout=_START_TIMEOUT_S)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise RuntimeError(f"service failed to start within "
                               f"{_START_TIMEOUT_S:g}s")
        return self

    def _announce(self, service) -> None:
        self.port = service.port
        self.obs_port = service.obs_port
        self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.service = self._make_service()
            self.final_stats = await run_service(
                self.service, self._announce, self._stop_event)
        except BaseException as exc:  # noqa: BLE001 - rethrown in start()
            if self._ready.is_set():
                raise
            self._startup_error = exc
            self._ready.set()

    def call(self, coro, timeout: float = 60.0):
        """Run a coroutine on the service's loop from any thread --
        tests drive migrations with
        ``cluster.call(cluster.router.migrate(sid, target))``."""
        if self._loop is None:
            raise RuntimeError("service is not running")
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout)

    def stop(self) -> Optional[dict]:
        # One read of the thread: a concurrent caller may clear
        # ``self._thread`` while this one waits in join().
        thread = self._thread
        if thread is None:
            return self.final_stats
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # the loop is closed: already stopped
                pass
        thread.join(timeout=_STOP_TIMEOUT_S)
        alive = thread.is_alive()
        self._thread = None
        if alive:
            raise RuntimeError(f"service thread did not stop within "
                               f"{_STOP_TIMEOUT_S:g}s")
        return self.final_stats

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
