"""The chassis under both serve-tier listeners.

:class:`~repro.serve.server.PredictionServer` and the cluster
:class:`~repro.serve.cluster.router.Router` are each a TCP listener
speaking the frame protocol with an HTTP observability endpoint beside
it.  What they share lives here once: :class:`FrameService` (listener,
connection loop, drain, obs endpoint, session ids), :class:`RequestLog`
(completed-request bookkeeping), :func:`run_service` /
:func:`serve_until_signalled` (start, announce, wait, drain) and
:class:`ServiceThread` (the same on a background thread).
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from collections import deque
from typing import Callable, List, Optional

from repro.serve import protocol
from repro.serve.obs import ObservabilityServer
from repro.serve.tracing import (SlowRequestSampler, TraceStore,
                                 latency_summary)
from repro.telemetry import run as telemetry_run_module
from repro.telemetry.live import live_prometheus_text
from repro.telemetry.spans import emit_span

__all__ = ["FrameService", "RequestLog", "ServiceThread", "run_service",
           "serve_until_signalled", "consume_exception",
           "pooled_table_ratios", "LATENCY_BUCKETS", "DATA_TYPES"]

#: Upper bounds (seconds) of every ``*_request_seconds`` histogram.
LATENCY_BUCKETS = (.0001, .0005, .001, .005, .025, .1, .5, 2.5)

#: Frame types on the prediction data path: their latencies feed the
#: rolling window and the latency SLO streams (admin frames like STATS
#: would skew the percentiles).
DATA_TYPES = frozenset({"step", "step_block", "predict", "outcome"})

#: Size of the slow-request sample (top-K by latency).
SLOW_K = 32

#: Completed spans kept per process for ``/trace``.
TRACE_CAPACITY = 4096

#: The rolling data-path window behind ``/slo`` and ``/scale``.
WINDOW_S = 60.0

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 90.0


class RequestLog:
    """Every completed request, recorded once: the ``*_request_seconds``
    histogram (trace id as bucket exemplar), the slow-request sample,
    the trace store, a ``serve.request`` span event when a telemetry
    run is active and, for data-path frames, the rolling window behind
    ``/slo`` and ``/scale`` and the latency SLOs of a watched
    monitor."""

    def __init__(self, request_seconds):
        self._request_seconds = request_seconds
        self.slow = SlowRequestSampler(SLOW_K)
        self.traces = TraceStore(TRACE_CAPACITY)
        self._data: deque = deque(maxlen=4096)  # (t_done, seconds)
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
        latencies completed in the last :data:`WINDOW_S` seconds."""
        horizon = time.monotonic() - WINDOW_S
        return latency_summary(
            [lat for t_done, lat in self._data if t_done >= horizon])


class Connection:
    """One client connection: its writer, response queue and tasks."""

    __slots__ = ("writer", "responses", "reader_task", "writer_task")

    def __init__(self, writer):
        self.writer = writer
        self.responses: asyncio.Queue = asyncio.Queue()
        self.reader_task: Optional[asyncio.Task] = None
        self.writer_task: Optional[asyncio.Task] = None


class FrameService:
    """A frame-protocol TCP listener with an observability endpoint.

    ``start()`` calls :meth:`_listen`, ``stop()`` calls
    :meth:`_stop_listening`.  A connection is two tasks.  The reader
    hands each frame (the bytes after its length prefix) to the
    subclass's ``async _dispatch_payload(conn, payload)``, shielded so a
    reader cancelled mid-request still completes it; the dispatch
    enqueues the response slot on ``conn.responses`` before anything
    else, so responses go out in request order and no accepted request
    is dropped.  A bad length prefix or header raises
    :class:`~repro.serve.protocol.ProtocolError`: the reader queues
    ``_enqueue_error(conn, 0, BAD_FRAME, message)`` and closes the
    connection.  The subclass's ``async _writer_loop(conn)`` answers
    the slots in order until the reader's ``None`` sentinel.

    The observability endpoint (when *obs_port* is not None) binds the
    data listener's host and serves this object's report methods (see
    :class:`~repro.serve.obs.ObservabilityServer`).
    """

    #: The ``service`` field of the observability endpoint's index.
    service_name = "repro-serve"

    def __init__(self, host: str, port: int, obs_port: Optional[int],
                 connections_open, request_seconds):
        self.host = host
        self.port = port
        self.obs_port: Optional[int] = obs_port
        self.request_log = RequestLog(request_seconds)
        self._connections_open = connections_open
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

        Readers first: a cancel interrupts the blocking frame read,
        while any shielded dispatch runs to completion.  Each reader's
        cleanup then closes its own response queue and awaits the
        writer, which answers everything already accepted -- whatever
        executes the requests must still be running underneath.
        ``wait_closed()`` comes after this drain: on Python >= 3.12.1
        it also waits for the connection handlers (the readers), so
        awaiting it first would deadlock against any open connection.
        """
        self._stopping = True
        if self._listener is not None:
            self._listener.close()
        for conn in list(self._connections):
            if conn.reader_task is not None:
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
        self._connections_open.inc()
        dispatch: Optional[asyncio.Future] = None
        try:
            while True:
                payload = await protocol.read_payload(reader)
                if payload is None:
                    break
                dispatch = asyncio.ensure_future(
                    self._dispatch_payload(conn, payload))
                await asyncio.shield(dispatch)
                dispatch = None
        except asyncio.CancelledError:
            pass
        except protocol.ProtocolError as exc:
            self._enqueue_error(conn, 0, protocol.ErrorCode.BAD_FRAME,
                                str(exc))
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            # Cancellation (stop) may land on any of these awaits --
            # cleanup must still run to completion.
            if dispatch is not None:
                # A cancelled reader may have been interrupted while a
                # shielded dispatch was still enqueueing; finish it so
                # its response slot exists before the sentinel.
                try:
                    await dispatch
                except (Exception, asyncio.CancelledError):
                    pass
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
            self._connections_open.dec()

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


def consume_exception(future: "asyncio.Future") -> None:
    """Done-callback for a future nobody awaits any more: retrieves its
    exception so asyncio does not warn that it was never retrieved."""
    if not future.cancelled():
        future.exception()


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
        if self._thread is None:
            return self.final_stats
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=_STOP_TIMEOUT_S)
        alive = self._thread.is_alive()
        self._thread = None
        if alive:
            raise RuntimeError(f"service thread did not stop within "
                               f"{_STOP_TIMEOUT_S:g}s")
        return self.final_stats

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
