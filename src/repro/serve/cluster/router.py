"""The session-affine router: one front door for N serve workers.

The router is an asyncio TCP proxy speaking the same binary protocol
as :class:`~repro.serve.server.PredictionServer`.  Clients connect to
it exactly as they would to a single server; behind it, a
:class:`~repro.serve.cluster.supervisor.ClusterSupervisor` fleet of
worker processes does the actual predicting.  Three invariants drive
the design:

**Session affinity.**  Every session id maps to one worker via
rendezvous hashing (:mod:`repro.serve.cluster.ring`) over the
supervisor's stable slot indices.  A client's OPEN_SESSION is
rewritten in place to OPEN_SESSION_AS with a router-allocated globally
unique id (the worker's own id counter never decides anything), so ids
are unique across the fleet and the ring can always recompute who owns
what.

**Zero-copy proxying.**  Frames are forwarded as raw byte payloads.
The router reads the header in place with
:func:`~repro.serve.protocol.peek_header` (which also enforces the
protocol version) plus the leading ``u64`` session id of
session-scoped bodies; bodies are never decoded or re-encoded.  The
client's request id is patched to a router-global backend request id
on the way in and restored on the way out, which is what lets many
client connections multiplex over one connection per worker while
responses still come back to the right requester in FIFO order per
client (response slots are enqueued before the frame is forwarded,
exactly like the single-process server's writer queue).

**No dropped or reordered frames.**  Hot migration parks a session
(new frames queue in arrival order), sends RELEASE_SESSION to the old
owner -- which rides the worker's per-session FIFO, so every in-flight
STEP completes and is answered first -- then ADOPT_SESSION to the new
owner, then flushes the parked frames in order.  When a worker dies,
the router re-homes its sessions: it waits for the process to finish
(a SIGTERM drain spills arenas *after* closing its sockets, so the
join is what makes the arenas visible), has the ring pick new owners,
re-sends the dead connection's in-flight frames in their original
order, and only then flushes parked frames -- per-session order is
preserved end to end.  Sessions with no arena (never snapshotted when
the worker was SIGKILLed, or no state dir configured) are counted in
``repro_cluster_sessions_lost_total`` and answered UNKNOWN_SESSION,
never silently dropped.

:class:`ClusterThread` hosts supervisor + router behind a blocking
API mirroring :class:`~repro.serve.server.ServerThread`, for tests,
loadgen, and the ``repro cluster serve`` CLI.
"""

from __future__ import annotations

import asyncio
import struct
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.serve import protocol
from repro.serve.cluster.aggregate import (http_get, http_get_json,
                                           merge_prometheus_texts)
from repro.serve.cluster.ring import RendezvousRing
from repro.serve.cluster.supervisor import ClusterSupervisor
from repro.serve.obs import ObservabilityServer, json_response
from repro.serve.protocol import HEADER_SIZE
from repro.serve.server import consume_exception
from repro.serve.tracing import (RouterTrace, SlowRequestSampler,
                                 TraceStore, format_trace_id,
                                 latency_summary, new_trace_id,
                                 parse_trace_id, percentile)
from repro.telemetry.registry import registry

__all__ = ["Router", "ClusterThread", "ClusterControlError"]

_LEN = struct.Struct("!I")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")

_LATENCY_BUCKETS = (.0001, .0005, .001, .005, .025, .1, .5, 2.5)

#: Frame types whose body starts with a u64 session id.
_SESSION_TYPES = frozenset({
    protocol.FrameType.PREDICT, protocol.FrameType.OUTCOME,
    protocol.FrameType.STEP, protocol.FrameType.STEP_BLOCK,
    protocol.FrameType.FLUSH, protocol.FrameType.STATS,
    protocol.FrameType.CLOSE_SESSION, protocol.FrameType.SNAPSHOT,
})

#: Router-internal control frames; a client sending one is confused.
_CONTROL_TYPES = frozenset({
    protocol.FrameType.ADOPT_SESSION, protocol.FrameType.RELEASE_SESSION,
    protocol.FrameType.OPEN_SESSION_AS,
})

#: Latencies of these types feed the rolling percentile window.
_DATA_TYPES = frozenset({
    protocol.FrameType.PREDICT, protocol.FrameType.OUTCOME,
    protocol.FrameType.STEP, protocol.FrameType.STEP_BLOCK,
})


class ClusterControlError(Exception):
    """A worker answered a router control frame with an ERROR."""

    def __init__(self, code: int, message: str):
        super().__init__(f"[{protocol.error_code_name(code)}] {message}")
        self.code = code
        self.message = message


class _ClusterMetrics:
    """Registry handles for the router tier (``repro_cluster_*``)."""

    def __init__(self):
        reg = registry()
        self.workers = reg.gauge(
            "repro_cluster_workers", "Worker slots the router manages.")
        self.workers_alive = reg.gauge(
            "repro_cluster_workers_alive",
            "Worker backends currently connected.")
        self.sessions = reg.gauge(
            "repro_cluster_sessions",
            "Sessions the router is tracking across the fleet.")
        self.parked = reg.gauge(
            "repro_cluster_parked_sessions",
            "Sessions parked mid-migration or mid-failover.")
        self.connections = reg.gauge(
            "repro_cluster_connections_open",
            "Client connections open at the router.")
        self.frames = reg.counter(
            "repro_cluster_frames_proxied_total",
            "Client frames accepted by the router, by frame type.",
            labels=("type",))
        self.records = reg.counter(
            "repro_cluster_records_total",
            "Prediction records proxied to workers (STEP/STEP_BLOCK).")
        self.hits = reg.counter(
            "repro_cluster_hits_total",
            "Correct predictions in proxied responses.")
        self.migrations = reg.counter(
            "repro_cluster_migrations_total",
            "Sessions moved between workers, by reason.",
            labels=("reason",))
        self.sessions_lost = reg.counter(
            "repro_cluster_sessions_lost_total",
            "Sessions lost with a dead worker (no arena to re-home).")
        self.restarts = reg.counter(
            "repro_cluster_worker_restarts_total",
            "Replacement workers spawned into dead slots.")
        self.errors = reg.counter(
            "repro_cluster_errors_total",
            "Error responses synthesized by the router, by code.",
            labels=("code",))
        self.request_seconds = reg.histogram(
            "repro_cluster_request_seconds",
            "Proxied request latency (client frame read to response "
            "written).", buckets=_LATENCY_BUCKETS, labels=("type",))


class _Entry:
    """One in-flight client (or control) frame."""

    __slots__ = ("payload", "conn", "future", "frame_type", "session_id",
                 "client_request_id", "respond_open", "kind", "records",
                 "brid", "trace_id", "t_recv", "trace")

    def __init__(self, payload, conn, future, frame_type, trace_id,
                 client_request_id, session_id=0, respond_open=False,
                 kind=None, records=0):
        self.payload = payload
        self.conn = conn
        self.future = future
        self.frame_type = frame_type
        self.trace_id = trace_id
        self.client_request_id = client_request_id
        self.session_id = session_id
        self.respond_open = respond_open
        self.kind = kind
        self.records = records
        self.brid = 0
        self.t_recv = time.monotonic()
        #: Router-side stage stamps; None for router-internal control
        #: frames and synthesized error slots (client frames only).
        self.trace: Optional[RouterTrace] = None


class _ClientConn:
    __slots__ = ("reader", "writer", "responses", "reader_task",
                 "writer_task")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.responses: asyncio.Queue = asyncio.Queue()
        self.reader_task: Optional[asyncio.Task] = None
        self.writer_task: Optional[asyncio.Task] = None


class _Backend:
    """The router's one connection to one worker process."""

    __slots__ = ("index", "host", "port", "obs_port", "pid", "reader",
                 "writer", "reader_task", "pending", "alive", "lost")

    def __init__(self, index, host, port, obs_port, pid, reader, writer):
        self.index = index
        self.host = host
        self.port = port
        self.obs_port = obs_port
        self.pid = pid
        self.reader = reader
        self.writer = writer
        self.reader_task: Optional[asyncio.Task] = None
        #: brid -> _Entry, insertion-ordered == send-ordered.
        self.pending: Dict[int, _Entry] = {}
        self.alive = True
        self.lost = False


class Router:
    """The cluster's client-facing listener and placement brain."""

    def __init__(self, supervisor: ClusterSupervisor,
                 host: str = "127.0.0.1", port: int = 0,
                 obs_port: Optional[int] = None,
                 obs_host: str = "127.0.0.1",
                 request_timeout: float = 60.0,
                 auto_restart: bool = True,
                 tick_interval: float = 0.5,
                 adopt_retries: int = 20,
                 adopt_retry_delay: float = 0.05,
                 slow_k: int = 32,
                 trace_capacity: int = 4096):
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.auto_restart = auto_restart
        self.tick_interval = tick_interval
        self.adopt_retries = adopt_retries
        self.adopt_retry_delay = adopt_retry_delay
        self.state_dir = supervisor.worker_kwargs.get("state_dir")
        worker_host = supervisor.worker_kwargs.get("host", "127.0.0.1")
        self._worker_host = ("127.0.0.1"
                            if worker_host in ("0.0.0.0", "::", "")
                            else worker_host)
        self.ring = RendezvousRing()
        self.metrics = _ClusterMetrics()
        self._backends: Dict[int, _Backend] = {}
        self._clients: List[_ClientConn] = []
        #: session id -> owning worker slot.
        self._sessions: Dict[int, int] = {}
        #: Parked sessions: sid -> queued entries awaiting re-home.
        self._parked: Dict[int, List[_Entry]] = {}
        self._next_session_id = 1
        self._next_brid = 1
        self._listener: Optional[asyncio.base_events.Server] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._started_at = 0.0
        self._latencies: deque = deque(maxlen=4096)
        # Router-side tracing: client-experienced slow sample plus the
        # bounded span store behind /trace (same machinery the workers
        # run, keyed by the same u64 trace ids).
        self.slow_sampler = SlowRequestSampler(slow_k)
        self.trace_store = TraceStore(trace_capacity)
        # Counters mirrored as plain ints for JSON reports.
        self.frames_proxied = 0
        self.records_proxied = 0
        self.hits_proxied = 0
        self.migrations = 0
        self.sessions_lost = 0
        self.adopted_at_start = 0
        self.obs_port: Optional[int] = obs_port
        self._obs = (_ClusterObs(self, obs_host, obs_port)
                     if obs_port is not None else None)

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if not self.supervisor.handles:
            raise RuntimeError("supervisor has no workers; call "
                               "supervisor.start() before Router.start()")
        for handle in sorted(self.supervisor.handles.values(),
                             key=lambda h: h.index):
            await self._attach_backend(handle)
        await self._adopt_existing()
        self._listener = await asyncio.start_server(
            self._on_client, self.host, self.port)
        self.port = self._listener.sockets[0].getsockname()[1]
        if self._obs is not None:
            await self._obs.start()
            self.obs_port = self._obs.port
        self._tick_task = asyncio.ensure_future(self._tick_loop())
        self.metrics.workers.set(self.supervisor.n_workers)
        self._started_at = time.time()

    async def stop(self) -> dict:
        """Drain clients, then detach from the (still running) fleet.

        The caller stops the supervisor afterwards -- workers outliving
        the router is what lets a drain spill arenas for the next
        incarnation to adopt."""
        self._stopping = True
        if self._tick_task is not None:
            self._tick_task.cancel()
            await asyncio.gather(self._tick_task, return_exceptions=True)
            self._tick_task = None
        if self._listener is not None:
            self._listener.close()
        for conn in list(self._clients):
            if conn.reader_task is not None:
                conn.reader_task.cancel()
        await asyncio.gather(
            *(c.reader_task for c in self._clients if c.reader_task),
            return_exceptions=True)
        if self._listener is not None:
            await self._listener.wait_closed()
            self._listener = None
        for backend in self._backends.values():
            backend.alive = False
            if backend.reader_task is not None:
                backend.reader_task.cancel()
            backend.writer.close()
        await asyncio.gather(
            *(b.reader_task for b in self._backends.values()
              if b.reader_task), return_exceptions=True)
        if self._obs is not None:
            await self._obs.stop()
        return self.cluster_report()

    async def _attach_backend(self, handle) -> _Backend:
        reader, writer = await asyncio.open_connection(
            self._worker_host, handle.port)
        backend = _Backend(handle.index, self._worker_host, handle.port,
                           handle.obs_port, handle.pid, reader, writer)
        self._backends[handle.index] = backend
        self.ring.add(handle.index)
        backend.reader_task = asyncio.ensure_future(
            self._backend_reader(backend))
        self.metrics.workers_alive.set(
            sum(1 for b in self._backends.values() if b.alive))
        return backend

    async def _adopt_existing(self) -> None:
        """Re-home arenas left by a previous incarnation of the fleet.

        The ring decides ownership, so a router restarted over the same
        state directory reproduces the old placement exactly."""
        if not self.state_dir:
            return
        from repro.core.state import ArenaStore
        for sid in ArenaStore(self.state_dir).session_ids():
            self._note_session_id(sid)
            try:
                target = self.ring.assign(sid)
            except LookupError:
                break
            try:
                await self._control(self._backends[target],
                                    protocol.FrameType.ADOPT_SESSION, sid)
            except (ClusterControlError, ConnectionError,
                    asyncio.TimeoutError):
                continue  # corrupt/quarantined arena: skip, don't die
            self._sessions[sid] = target
            self.adopted_at_start += 1
        self._refresh_gauges()

    # ------------------------------------------------------- client side

    async def _on_client(self, reader, writer) -> None:
        if self._stopping:
            writer.close()
            return
        conn = _ClientConn(reader, writer)
        conn.reader_task = asyncio.current_task()
        conn.writer_task = asyncio.ensure_future(self._client_writer(conn))
        self._clients.append(conn)
        self.metrics.connections.inc()
        dispatch: Optional[asyncio.Future] = None
        try:
            while True:
                payload = await protocol.read_payload(reader)
                if payload is None:
                    break
                dispatch = asyncio.ensure_future(
                    self._dispatch_client(conn, bytearray(payload)))
                keep_open = await asyncio.shield(dispatch)
                dispatch = None
                if not keep_open:
                    break
        except asyncio.CancelledError:
            pass
        except protocol.ProtocolError as exc:
            self._enqueue_error(conn, 0, protocol.ErrorCode.BAD_FRAME,
                                str(exc))
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            # Cancellation (router stop) may land on any of these
            # awaits -- cleanup must still run to completion.
            if dispatch is not None:
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
            self._clients.remove(conn)
            self.metrics.connections.dec()

    async def _dispatch_client(self, conn, payload: bytearray) -> bool:
        """Route one client frame; returns False to close the
        connection (protocol-fatal condition, mirroring the server)."""
        try:
            ftype, rid, trace_id = protocol.peek_header(payload)
        except protocol.ProtocolError as exc:
            self._enqueue_error(conn, 0, protocol.ErrorCode.BAD_FRAME,
                                str(exc))
            return False
        self.frames_proxied += 1
        type_name = protocol.frame_type_name(ftype)
        self.metrics.frames.inc(type=type_name)
        entry = _Entry(payload, conn, self._loop.create_future(), ftype,
                       trace_id, rid)
        # Stage-stamp every client frame under the client's trace id (a
        # frame carrying 0 gets a router-assigned one: it still records
        # the router-side timeline, it just won't match the worker's).
        entry.trace = RouterTrace(
            trace_id=trace_id or new_trace_id(),
            frame_type=type_name, request_id=rid, t_recv=entry.t_recv)
        conn.responses.put_nowait(entry)

        if ftype == protocol.FrameType.OPEN_SESSION:
            await self._route_open(entry)
            return True
        if ftype in _CONTROL_TYPES:
            self._fail_entry(
                entry, protocol.ErrorCode.BAD_FRAME,
                f"{protocol.FrameType(ftype).name} is router-internal "
                f"cluster control; clients open sessions with "
                f"OPEN_SESSION")
            return True
        if ftype not in _SESSION_TYPES:
            self._fail_entry(entry, protocol.ErrorCode.UNKNOWN_TYPE,
                             f"unknown frame type {ftype}")
            return True
        if len(payload) < HEADER_SIZE + _U64.size:
            self._fail_entry(entry, protocol.ErrorCode.BAD_FRAME,
                             "bad session op body: truncated session id")
            return True
        (sid,) = _U64.unpack_from(payload, HEADER_SIZE)
        if ftype == protocol.FrameType.STATS and sid == 0:
            # Server-wide stats become cluster-wide stats at the router.
            body = protocol.encode_json_body(self.cluster_report())
            self._complete(entry, _bare_frame(
                ftype | protocol.RESPONSE_BIT, rid, body, trace_id))
            return True
        entry.session_id = sid
        entry.trace.session_id = sid
        if ftype == protocol.FrameType.CLOSE_SESSION:
            entry.kind = "close"
        elif ftype == protocol.FrameType.STEP:
            entry.records = 1
        elif ftype == protocol.FrameType.STEP_BLOCK:
            if len(payload) >= HEADER_SIZE + 12:
                entry.records = _U32.unpack_from(payload, HEADER_SIZE + 8)[0]
        entry.trace.records = entry.records
        if sid in self._parked:
            entry.trace.on_park(time.monotonic())
            self._parked[sid].append(entry)
            return True
        owner = self._sessions.get(sid)
        if owner is None:
            self._fail_entry(entry, protocol.ErrorCode.UNKNOWN_SESSION,
                             f"unknown session {sid}")
            return True
        try:
            await self._forward(entry, self._backends[owner])
        except ConnectionError:
            # The owner died between lookup and write; its failover
            # will re-home the session, but this frame raced it.
            if not entry.future.done():
                self._fail_entry(entry, protocol.ErrorCode.INTERNAL,
                                 f"worker {owner} connection lost")
        return True

    async def _route_open(self, entry: _Entry) -> None:
        """Rewrite OPEN_SESSION -> OPEN_SESSION_AS with a router-global
        session id and forward it to the rendezvous owner."""
        gid = self._alloc_session_id()
        payload = entry.payload
        rewritten = bytearray(len(payload) + _U64.size)
        rewritten[:HEADER_SIZE] = payload[:HEADER_SIZE]
        protocol.patch_type(rewritten, protocol.FrameType.OPEN_SESSION_AS)
        _U64.pack_into(rewritten, HEADER_SIZE, gid)
        rewritten[HEADER_SIZE + _U64.size:] = payload[HEADER_SIZE:]
        entry.payload = rewritten
        entry.session_id = gid
        entry.trace.session_id = gid
        entry.respond_open = True
        entry.kind = "open"
        try:
            target = self.ring.assign(gid)
        except LookupError:
            self._fail_entry(entry, protocol.ErrorCode.SHUTTING_DOWN,
                             "no live workers to place the session on")
            return
        # Tentative: confirmed by the worker's response, rolled back on
        # an ERROR (bad spec etc.).  Mapping it now keeps follow-up
        # frames pipelined behind the open routable immediately.
        self._sessions[gid] = target
        self._refresh_gauges()
        try:
            await self._forward(entry, self._backends[target])
        except ConnectionError:
            self._sessions.pop(gid, None)
            if not entry.future.done():
                self._fail_entry(entry, protocol.ErrorCode.INTERNAL,
                                 f"worker {target} connection lost")

    async def _client_writer(self, conn: _ClientConn) -> None:
        while True:
            entry = await conn.responses.get()
            if entry is None:
                return
            try:
                payload = await asyncio.wait_for(
                    asyncio.shield(entry.future), self.request_timeout)
            except asyncio.TimeoutError:
                entry.future.add_done_callback(consume_exception)
                payload = self._error_frame(
                    entry, protocol.ErrorCode.TIMEOUT,
                    f"request not served within "
                    f"{self.request_timeout:g}s by the cluster")
            except Exception as exc:  # noqa: BLE001
                payload = self._error_frame(
                    entry, protocol.ErrorCode.INTERNAL,
                    f"{type(exc).__name__}: {exc}")
            try:
                conn.writer.write(_LEN.pack(len(payload)))
                conn.writer.write(payload)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                return
            now = time.monotonic()
            latency = now - entry.t_recv
            self.metrics.request_seconds.observe(
                latency, type=protocol.frame_type_name(entry.frame_type))
            if entry.frame_type in _DATA_TYPES:
                self._latencies.append((now, latency))
            if entry.trace is not None:
                # The router's span is complete: client-experienced
                # latency plus every stage between accept and drain.
                entry.trace.t_done = now
                self.trace_store.put(entry.trace.trace_id,
                                     entry.trace.to_dict())
                self.slow_sampler.add(entry.trace)

    # ------------------------------------------------------ backend side

    async def _backend_reader(self, backend: _Backend) -> None:
        try:
            while True:
                payload = await protocol.read_payload(backend.reader)
                if payload is None:
                    break
                self._on_backend_response(backend, bytearray(payload))
        except asyncio.CancelledError:
            pass
        except (protocol.ProtocolError, ConnectionError,
                asyncio.IncompleteReadError, OSError):
            pass
        finally:
            await self._on_backend_lost(backend)

    def _on_backend_response(self, backend: _Backend,
                             payload: bytearray) -> None:
        rtype, brid, _ = protocol.peek_header(payload)
        entry = backend.pending.pop(brid, None)
        if entry is None:
            return  # response to a timed-out / failed-over request
        is_error = rtype == protocol.FrameType.ERROR
        if entry.trace is not None:
            entry.trace.t_replied = time.monotonic()
            if is_error:
                entry.trace.status = "error"
        protocol.patch_request_id(payload, entry.client_request_id)
        if entry.respond_open and not is_error:
            protocol.patch_type(payload, protocol.FrameType.OPEN_SESSION
                                | protocol.RESPONSE_BIT)
        if is_error:
            if entry.kind == "open":
                # The tentative placement never materialised.
                if self._sessions.get(entry.session_id) == backend.index:
                    self._sessions.pop(entry.session_id, None)
                    self._refresh_gauges()
        else:
            if entry.kind == "close":
                self._sessions.pop(entry.session_id, None)
                self._refresh_gauges()
            if entry.records:
                self.records_proxied += entry.records
                self.metrics.records.inc(entry.records)
                hits = 0
                if entry.frame_type == protocol.FrameType.STEP:
                    if len(payload) > HEADER_SIZE + 4:
                        hits = 1 if payload[HEADER_SIZE + 4] == 1 else 0
                elif entry.frame_type == protocol.FrameType.STEP_BLOCK:
                    if len(payload) >= HEADER_SIZE + 8:
                        (hits,) = _U32.unpack_from(payload, HEADER_SIZE + 4)
                if hits:
                    self.hits_proxied += hits
                    self.metrics.hits.inc(hits)
        if not entry.future.done():
            entry.future.set_result(payload)

    async def _forward(self, entry: _Entry, backend: _Backend) -> None:
        if not backend.alive:
            raise ConnectionError(
                f"worker {backend.index} is not connected")
        brid = self._next_brid & 0xFFFFFFFF
        self._next_brid += 1
        entry.brid = brid
        if entry.trace is not None:
            entry.trace.on_forward(backend.index, time.monotonic())
        protocol.patch_request_id(entry.payload, brid)
        backend.pending[brid] = entry
        backend.writer.write(_LEN.pack(len(entry.payload)))
        backend.writer.write(entry.payload)
        await backend.writer.drain()

    async def _control(self, backend: _Backend, frame_type: int,
                       session_id: int) -> dict:
        """Send one router-internal control frame and decode the JSON
        report; raises :class:`ClusterControlError` on an ERROR reply
        and ``ConnectionError`` if the worker dies first."""
        payload = bytearray(_bare_frame(
            frame_type, 0, protocol.encode_session_op(session_id), 0))
        entry = _Entry(payload, None, self._loop.create_future(),
                       frame_type, 0, 0, session_id=session_id)
        await self._forward(entry, backend)
        response = await asyncio.wait_for(entry.future,
                                          self.request_timeout)
        body = bytes(response[HEADER_SIZE:])
        if response[1] == protocol.FrameType.ERROR:
            code, message = protocol.decode_error(body)
            raise ClusterControlError(code, message)
        return protocol.decode_json_body(body)

    # -------------------------------------------------- migration / drain

    async def migrate(self, session_id: int,
                      target: Optional[int] = None,
                      reason: str = "manual") -> bool:
        """Hot-migrate one session; returns True if it moved.

        Park -> RELEASE (the worker-side barrier: all in-flight frames
        for the session are answered first) -> ADOPT -> flush parked
        frames in arrival order.  A session that cannot move (scalar
        mode, no state dir) is flushed back to its current owner."""
        owner = self._sessions.get(session_id)
        if owner is None:
            raise KeyError(session_id)
        if target is None:
            target = self.ring.assign(session_id)
        if target == owner or session_id in self._parked:
            return False
        target_backend = self._backends.get(target)
        if target_backend is None or not target_backend.alive:
            raise ValueError(f"target worker {target} is not connected")
        self._parked[session_id] = []
        self._refresh_gauges()
        try:
            await self._control(self._backends[owner],
                                protocol.FrameType.RELEASE_SESSION,
                                session_id)
        except ClusterControlError as exc:
            # Scalar-mode session (BAD_FRAME) or no state dir: it
            # stays put.  UNKNOWN_SESSION means it closed concurrently.
            if exc.code == protocol.ErrorCode.UNKNOWN_SESSION:
                self._sessions.pop(session_id, None)
            await self._flush_parked(session_id)
            return False
        except (ConnectionError, asyncio.TimeoutError):
            # The owner died mid-release; its failover re-homes the
            # session and flushes the parked frames.
            return False
        try:
            await self._control(target_backend,
                                protocol.FrameType.ADOPT_SESSION,
                                session_id)
            self._sessions[session_id] = target
            self.migrations += 1
            self.metrics.migrations.inc(reason=reason)
        except (ClusterControlError, ConnectionError,
                asyncio.TimeoutError):
            # Released but not adopted -- the arena is orphaned on
            # disk; find it any home the ring will give it.
            await self._rehome(session_id, reason=reason)
        await self._flush_parked(session_id)
        return True

    async def rebalance(self, reason: str = "rebalance") -> int:
        """Migrate every session whose rendezvous owner changed (after
        a worker joined); returns how many moved."""
        moved = 0
        for sid in sorted(self._sessions):
            owner = self._sessions.get(sid)
            if owner is None:
                continue
            try:
                want = self.ring.assign(sid)
            except LookupError:
                break
            if want == owner:
                continue
            try:
                if await self.migrate(sid, want, reason=reason):
                    moved += 1
            except (KeyError, ValueError):
                continue
        return moved

    async def _on_backend_lost(self, backend: _Backend) -> None:
        """Failover: re-home a dead worker's sessions and re-drive its
        in-flight frames, preserving per-session order."""
        if backend.lost:
            return
        backend.lost = True
        backend.alive = False
        self.ring.discard(backend.index)
        self.metrics.workers_alive.set(
            sum(1 for b in self._backends.values() if b.alive))
        pending = list(backend.pending.values())
        backend.pending.clear()
        if self._stopping:
            for entry in pending:
                if entry.conn is None:
                    if not entry.future.done():
                        entry.future.set_exception(ConnectionError(
                            f"worker {backend.index} connection lost"))
                else:
                    self._fail_entry(entry,
                                     protocol.ErrorCode.SHUTTING_DOWN,
                                     "router is shutting down")
            return
        # Park everything the dead worker owned *synchronously* --
        # frames arriving from here on queue behind the failover.
        owned = sorted(sid for sid, w in self._sessions.items()
                       if w == backend.index)
        for sid in owned:
            self._parked.setdefault(sid, [])
        self._refresh_gauges()
        client_entries: List[_Entry] = []
        for entry in pending:
            if entry.conn is None:
                if not entry.future.done():
                    entry.future.set_exception(ConnectionError(
                        f"worker {backend.index} connection lost"))
            else:
                client_entries.append(entry)
        # A SIGTERM drain spills arenas *after* its sockets close, so
        # wait for the process to actually finish before adopting.
        handle = self.supervisor.handles.get(backend.index)
        if handle is not None:
            await asyncio.to_thread(handle.process.join, 60.0)
        for sid in owned:
            await self._rehome(sid, reason="failover")
        # In-flight frames first (they are older than anything parked),
        # in their original send order.
        for entry in client_entries:
            await self._resend(entry)
        for sid in owned:
            await self._flush_parked(sid)

    async def _rehome(self, session_id: int, reason: str) -> Optional[int]:
        """Adopt *session_id*'s arena on its new rendezvous owner; on
        failure the session is recorded as lost.  Returns the new
        owner, or None."""
        try:
            target = self.ring.assign(session_id)
        except LookupError:
            self._lose_session(session_id)
            return None
        backend = self._backends[target]
        for attempt in range(max(1, self.adopt_retries)):
            try:
                await self._control(
                    backend, protocol.FrameType.ADOPT_SESSION, session_id)
                self._sessions[session_id] = target
                self.migrations += 1
                self.metrics.migrations.inc(reason=reason)
                return target
            except ClusterControlError as exc:
                if exc.code == protocol.ErrorCode.UNKNOWN_SESSION:
                    # No arena (yet): the old worker may still be
                    # flushing its drain, or it never snapshotted.
                    await asyncio.sleep(self.adopt_retry_delay)
                    continue
                break  # STATE_UNAVAILABLE etc.: unrecoverable here
            except (ConnectionError, asyncio.TimeoutError):
                break  # target died too; its own failover follows
        self._lose_session(session_id)
        return None

    def _lose_session(self, session_id: int) -> None:
        self._sessions.pop(session_id, None)
        self.sessions_lost += 1
        self.metrics.sessions_lost.inc()
        self._refresh_gauges()

    async def _resend(self, entry: _Entry) -> None:
        """Re-drive one in-flight frame after its worker died."""
        if entry.future.done():
            return
        if entry.kind == "open":
            # The open never completed anywhere; place it afresh.
            try:
                target = self.ring.assign(entry.session_id)
            except LookupError:
                self._fail_entry(entry, protocol.ErrorCode.SHUTTING_DOWN,
                                 "no live workers to place the session on")
                return
            self._sessions[entry.session_id] = target
        else:
            target = self._sessions.get(entry.session_id)
            if target is None:
                self._fail_entry(
                    entry, protocol.ErrorCode.UNKNOWN_SESSION,
                    f"session {entry.session_id} was lost with its "
                    f"worker (no arena to restore)")
                return
        try:
            await self._forward(entry, self._backends[target])
        except ConnectionError:
            self._fail_entry(entry, protocol.ErrorCode.INTERNAL,
                             f"worker {target} connection lost")

    async def _flush_parked(self, session_id: int) -> None:
        """Forward a parked session's queued frames in arrival order.

        The parked marker is removed only once the queue is empty, with
        no await in between -- frames arriving mid-flush append behind
        the ones being flushed, so per-session order holds."""
        entries = self._parked.get(session_id)
        if entries is None:
            return
        while entries:
            entry = entries.pop(0)
            if entry.future.done():
                continue
            if entry.trace is not None and entry.trace.t_parked is not None:
                entry.trace.on_unpark(time.monotonic())
            owner = self._sessions.get(session_id)
            if owner is None:
                self._fail_entry(
                    entry, protocol.ErrorCode.UNKNOWN_SESSION,
                    f"session {session_id} was lost with its worker "
                    f"(no arena to restore)")
                continue
            try:
                await self._forward(entry, self._backends[owner])
            except ConnectionError:
                self._fail_entry(entry, protocol.ErrorCode.INTERNAL,
                                 f"worker {owner} connection lost")
        del self._parked[session_id]
        self._refresh_gauges()

    # ------------------------------------------------------ housekeeping

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.tick_interval)
            try:
                await self._tick()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the tick must survive
                pass

    async def _tick(self) -> None:
        await asyncio.to_thread(self.supervisor.reap)
        if not self.auto_restart or self._stopping:
            return
        for index in sorted(self._backends):
            backend = self._backends[index]
            handle = self.supervisor.handles.get(index)
            if backend.alive or handle is None:
                continue
            if handle.alive or handle.requested_stop:
                # Draining on purpose (or already restarting): leave it.
                continue
            if not backend.lost:
                continue  # EOF not yet processed; next tick
            try:
                new_handle = await asyncio.to_thread(
                    self.supervisor.restart_worker, index)
            except RuntimeError:
                continue  # failed to come up; retried next tick
            await self._attach_backend(new_handle)
            self.metrics.restarts.inc()
            # Sessions whose rendezvous winner is the revived slot
            # migrate home (warm arenas included).
            await self.rebalance(reason="rebalance")

    def _refresh_gauges(self) -> None:
        self.metrics.sessions.set(len(self._sessions))
        self.metrics.parked.set(len(self._parked))

    def _alloc_session_id(self) -> int:
        session_id = self._next_session_id
        self._next_session_id += 1
        return session_id

    def _note_session_id(self, session_id: int) -> None:
        self._next_session_id = max(self._next_session_id,
                                    session_id + 1)

    def _fail_entry(self, entry: _Entry, code: int, message: str) -> None:
        if entry.future.done():
            return
        entry.future.set_result(self._error_frame(entry, code, message))

    def _error_frame(self, entry: _Entry, code: int,
                     message: str) -> bytes:
        self.metrics.errors.inc(code=protocol.error_code_name(code))
        if entry.trace is not None:
            entry.trace.status = ("timeout"
                                  if code == protocol.ErrorCode.TIMEOUT
                                  else "error")
            entry.trace.error = message
        return _bare_frame(protocol.FrameType.ERROR,
                           entry.client_request_id,
                           protocol.encode_error(code, message),
                           entry.trace_id)

    def _enqueue_error(self, conn: _ClientConn, request_id: int,
                       code: int, message: str) -> None:
        entry = _Entry(b"", conn, self._loop.create_future(),
                       protocol.FrameType.ERROR, 0, request_id)
        entry.future.set_result(self._error_frame(entry, code, message))
        conn.responses.put_nowait(entry)

    def _complete(self, entry: _Entry, payload: bytes) -> None:
        if not entry.future.done():
            entry.future.set_result(payload)

    # ----------------------------------------------------------- reports

    def session_owner(self, session_id: int) -> Optional[int]:
        return self._sessions.get(session_id)

    def cluster_report(self) -> dict:
        """The ``/cluster`` body and cluster-wide STATS response."""
        per_worker: Dict[int, int] = {}
        for owner in self._sessions.values():
            per_worker[owner] = per_worker.get(owner, 0) + 1
        workers = []
        for desc in self.supervisor.describe():
            backend = self._backends.get(desc["worker"])
            desc = dict(desc)
            desc["connected"] = bool(backend is not None and backend.alive)
            desc["sessions"] = per_worker.get(desc["worker"], 0)
            desc["pending"] = (len(backend.pending)
                               if backend is not None else 0)
            workers.append(desc)
        return {
            "schema": 1,
            "cluster": True,
            "router": {"host": self.host, "port": self.port,
                       "obs_port": self.obs_port},
            "workers": workers,
            "workers_alive": sum(1 for w in workers if w["connected"]),
            "sessions_open": len(self._sessions),
            "sessions_parked": len(self._parked),
            "connections_open": len(self._clients),
            "frames_proxied": self.frames_proxied,
            "records_proxied": self.records_proxied,
            "hits_proxied": self.hits_proxied,
            "migrations_total": self.migrations,
            "sessions_lost_total": self.sessions_lost,
            "adopted_at_start": self.adopted_at_start,
            "state_dir": self.state_dir,
            "uptime_s": (round(time.time() - self._started_at, 3)
                         if self._started_at else 0.0),
        }

    async def _scrape_workers(self, path: str) -> List[tuple]:
        """(index, parsed-JSON-or-None) for every connected worker."""
        alive = [(i, b) for i, b in sorted(self._backends.items())
                 if b.alive and b.obs_port]
        results = await asyncio.gather(
            *(http_get_json(b.host, b.obs_port, path) for _, b in alive),
            return_exceptions=True)
        return [(i, None if isinstance(res, Exception) else res)
                for (i, _), res in zip(alive, results)]

    async def fleet_healthz(self) -> dict:
        """Aggregated ``/healthz``: router totals plus per-worker rows
        (shape-compatible with the single server's, so ``repro top``
        and existing probes keep working)."""
        scraped = dict(await self._scrape_workers("/healthz"))
        alerts = set()
        workers = []
        totals = {"resident": 0, "spilled": 0, "evictions": 0,
                  "reloads": 0, "snapshots": 0, "releases": 0}
        dead = 0
        for desc in self.supervisor.describe():
            index = desc["worker"]
            backend = self._backends.get(index)
            connected = bool(backend is not None and backend.alive)
            health = scraped.get(index) if connected else None
            row = {"worker": index, "pid": desc["pid"],
                   "port": desc["port"], "obs_port": desc["obs_port"],
                   "alive": connected, "restarts": desc["restarts"],
                   "status": "down", "sessions": 0, "resident": 0,
                   "spilled": 0, "evictions": 0, "reloads": 0,
                   "records": 0, "hits": 0, "alerts": []}
            if health is not None:
                row.update({
                    "status": health.get("status", "?"),
                    "sessions": health.get("sessions_open", 0),
                    "resident": health.get("sessions_resident", 0),
                    "spilled": health.get("sessions_spilled", 0),
                    "evictions": health.get("evictions_total", 0),
                    "reloads": health.get("reloads_total", 0),
                    "records": health.get("records_served", 0),
                    "hits": health.get("hits_served", 0),
                    "alerts": health.get("alerts", []),
                })
                totals["resident"] += row["resident"]
                totals["spilled"] += row["spilled"]
                totals["evictions"] += row["evictions"]
                totals["reloads"] += row["reloads"]
                totals["snapshots"] += health.get("snapshots_total", 0)
                totals["releases"] += health.get("releases_total", 0)
                for name in row["alerts"]:
                    alerts.add(f"w{index}:{name}")
            elif not desc["requested_stop"]:
                dead += 1
                alerts.add(f"w{index}:worker_down")
            workers.append(row)
        if self._stopping:
            status = "draining"
        elif alerts:
            status = "degraded"
        else:
            status = "ok"
        return {
            "schema": 1,
            "cluster": True,
            "status": status,
            "draining": self._stopping,
            "uptime_s": (round(time.time() - self._started_at, 3)
                         if self._started_at else 0.0),
            "protocol_version": protocol.PROTOCOL_VERSION,
            "connections_open": len(self._clients),
            "sessions_open": len(self._sessions),
            "sessions_parked": len(self._parked),
            "sessions_resident": totals["resident"],
            "sessions_spilled": totals["spilled"],
            "evictions_total": totals["evictions"],
            "reloads_total": totals["reloads"],
            "snapshots_total": totals["snapshots"],
            "releases_total": totals["releases"],
            "state_dir": self.state_dir,
            "records_served": self.records_proxied,
            "hits_served": self.hits_proxied,
            "migrations_total": self.migrations,
            "sessions_lost_total": self.sessions_lost,
            "workers_down": dead,
            "alerts": sorted(alerts),
            "workers": workers,
            "shards": [],
        }

    async def fleet_slo(self) -> dict:
        """Aggregated ``/slo``: every worker's burn-rate statuses
        (names prefixed ``w<i>:``) plus router-side latency
        percentiles over proxied data frames."""
        scraped = await self._scrape_workers("/slo")
        slos = []
        workers_healthy = True
        for index, report in scraped:
            if report is None:
                workers_healthy = False
                continue
            if not report.get("healthy", True):
                workers_healthy = False
            for status in report.get("slos", []):
                status = dict(status)
                status["worker"] = index
                status["name"] = f"w{index}:{status.get('name', '?')}"
                slos.append(status)
        alerts = [s["name"] for s in slos if s.get("alerting")]
        horizon = time.monotonic() - 60.0
        window = [lat for t, lat in self._latencies if t >= horizon]
        return {
            "schema": 1,
            "cluster": True,
            "slos": slos,
            "alerts": alerts,
            "healthy": workers_healthy and not alerts,
            "latency": latency_summary(window),
            "records_served": self.records_proxied,
            "hits_served": self.hits_proxied,
            "hit_rate": ((self.hits_proxied / self.records_proxied)
                         if self.records_proxied else None),
            "uptime_s": (round(time.time() - self._started_at, 3)
                         if self._started_at else 0.0),
        }

    async def fleet_slow(self, max_entries: int = 32) -> dict:
        """Aggregated ``/slow``: the fleet's slowest requests as the
        *client* experienced them.

        The router's own sampler ranks by client-observed latency
        (accept to response drain), so queue/park/proxy time at the
        router counts; each entry is joined with the matching
        worker-side sample by trace id (``worker_spans``), giving the
        full cross-process timeline.  Worker-sampled requests the
        router's top-K missed ride along behind, upgraded with the
        router span from the trace store when it is still retained.
        """
        scraped = await self._scrape_workers("/slow")
        worker_entries: Dict[str, List[dict]] = {}
        worker_observed = 0
        for index, report in scraped:
            if report is None:
                continue
            worker_observed += report.get("observed", 0)
            for entry in report.get("slowest", []):
                entry = dict(entry, worker=index, source="worker")
                worker_entries.setdefault(
                    entry.get("trace_id", ""), []).append(entry)
        router_snap = self.slow_sampler.snapshot()
        slowest = []
        joined = set()
        for entry in router_snap["slowest"]:
            entry = dict(entry)
            spans = worker_entries.get(entry.get("trace_id", ""))
            if spans:
                joined.add(entry["trace_id"])
                entry["worker_spans"] = spans
            slowest.append(entry)
        for trace_id, spans in worker_entries.items():
            if trace_id in joined:
                continue
            for span in spans:
                span = dict(span)
                try:
                    router_spans = self.trace_store.get(
                        parse_trace_id(trace_id))
                except ValueError:
                    router_spans = []
                if router_spans:
                    span["router"] = router_spans[-1]
                    span["client_latency_ms"] = \
                        router_spans[-1].get("latency_ms")
                slowest.append(span)
        slowest.sort(
            key=lambda e: e.get("client_latency_ms")
            or e.get("latency_ms", 0), reverse=True)
        return {"schema": 2, "cluster": True,
                "observed": router_snap["observed"],
                "worker_observed": worker_observed,
                "slowest": slowest[:max_entries]}

    async def fleet_trace(self, trace_id: int) -> dict:
        """The cluster ``/trace/<id>`` body: the router's span(s) for
        one trace id merged with every worker's, ordered router first
        and then workers in hop order -- a request that traversed two
        workers (mid-flight failover, migration) reads as one timeline.
        """
        hex_id = format_trace_id(trace_id)
        router_spans = self.trace_store.get(trace_id)
        scraped = await self._scrape_workers(f"/trace/{hex_id}")
        worker_spans = []
        for index, report in scraped:
            if report is None:
                continue
            for span in report.get("spans", []):
                worker_spans.append(dict(span, worker=index))
        hop_order: Dict[int, int] = {}
        for span in router_spans:
            for position, worker in enumerate(span.get("workers", [])):
                hop_order.setdefault(worker, position)
        worker_spans.sort(key=lambda s: (
            hop_order.get(s["worker"], 1 << 30), s["worker"]))
        spans = router_spans + worker_spans
        return {"schema": 1, "cluster": True, "trace_id": hex_id,
                "found": bool(spans), "spans": spans}

    def trace_dump(self, limit: Optional[int] = None) -> dict:
        """The router's own ``/trace`` body (router-side spans only;
        per-id lookups fan out to the workers, the dump does not)."""
        return dict(self.trace_store.dump(limit), cluster=True)

    async def scale_report(self) -> dict:
        """The ``/scale`` body: autoscaling signals shaped like a
        Kubernetes custom-metrics API ``MetricValueList``.

        Signals: average sessions per live worker, p99 data-frame
        latency over the router's 60s window (client-experienced),
        the deepest shard queue across the fleet, and the worst
        *sustained* SLO burn (min of the fast and slow windows, so a
        single spike does not scale the fleet, matching the
        multi-window alert rule).  ``signals`` carries the raw floats
        for humans and the soak harness; ``items`` is what a metrics
        adapter (e.g. prometheus-adapter) serves to the HPA --
        see deploy/k8s.yaml and deploy/README.md.
        """
        scraped_health = await self._scrape_workers("/healthz")
        scraped_slo = await self._scrape_workers("/slo")
        workers_alive = sum(1 for b in self._backends.values() if b.alive)
        sessions_per_worker = (len(self._sessions)
                               / max(1, workers_alive))
        queue_depth = 0
        for _, health in scraped_health:
            if health is None:
                continue
            for shard in health.get("shards", []):
                queue_depth = max(queue_depth,
                                  shard.get("queue_depth", 0))
        burn = 0.0
        alerting = []
        for index, report in scraped_slo:
            if report is None:
                continue
            for status in report.get("slos", []):
                sustained = min(status.get("fast_burn", 0.0),
                                status.get("slow_burn", 0.0))
                if sustained > burn:
                    burn = sustained
                if status.get("alerting"):
                    alerting.append(
                        f"w{index}:{status.get('name', '?')}")
        horizon = time.monotonic() - 60.0
        window = sorted(lat for t, lat in self._latencies
                        if t >= horizon)
        p99_ms = round(percentile(window, 99) * 1e3, 4)
        signals = {
            "sessions_per_worker": round(sessions_per_worker, 4),
            "step_latency_p99_ms": p99_ms,
            "queue_depth": queue_depth,
            "slo_burn_rate": round(burn, 4),
        }
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        items = [{
            "describedObject": {"kind": "Service", "apiVersion": "v1",
                                "name": "repro-serve"},
            "metric": {"name": f"repro_{name}"},
            "timestamp": timestamp,
            "windowSeconds": 60,
            "value": _quantity(value),
        } for name, value in signals.items()]
        return {
            "kind": "MetricValueList",
            "apiVersion": "custom.metrics.k8s.io/v1beta2",
            "metadata": {},
            "items": items,
            "signals": signals,
            "workers_alive": workers_alive,
            "sessions_open": len(self._sessions),
            "sessions_parked": len(self._parked),
            "alerts": sorted(alerting),
        }

    async def fleet_tables(self) -> dict:
        """Aggregated ``/tables``: per-worker shard rows (relabelled
        ``<worker>.<shard>``) and fleet-pooled totals."""
        scraped = await self._scrape_workers("/tables")
        shards = []
        totals = {"sessions": 0, "live_bits": 0, "storage_bits": 0,
                  "hits": 0, "alias_accesses": 0, "alias_conflicts": 0}
        for index, report in scraped:
            if report is None:
                continue
            for shard in report.get("shards", []):
                shard = dict(shard)
                shard["worker"] = index
                shard["shard"] = f"{index}.{shard.get('shard', '?')}"
                shard.pop("sessions", None)  # per-session detail: bulky
                shards.append(shard)
            rep_totals = report.get("totals", {})
            for key in totals:
                totals[key] += rep_totals.get(key, 0)
        totals["occupancy"] = (
            round(totals["live_bits"] / totals["storage_bits"], 6)
            if totals["storage_bits"] else 0.0)
        totals["efficiency"] = (
            round(totals["hits"] / totals["live_bits"], 9)
            if totals["live_bits"] else 0.0)
        totals["aliasing_ratio"] = (
            round(totals["alias_conflicts"] / totals["alias_accesses"], 6)
            if totals["alias_accesses"] else 0.0)
        return {"schema": 1, "cluster": True, "shards": shards,
                "totals": totals}

    async def fleet_metrics(self, prefix: Optional[str] = None,
                            exemplars: bool = False) -> str:
        """One merged Prometheus exposition: the router's own registry
        plus every live worker's, relabelled ``worker="i"``."""
        from repro.telemetry.live import live_prometheus_text
        query = []
        if prefix:
            query.append(f"prefix={prefix}")
        if exemplars:
            query.append("exemplars=1")
        path = "/metrics" + (f"?{'&'.join(query)}" if query else "")
        alive = [(i, b) for i, b in sorted(self._backends.items())
                 if b.alive and b.obs_port]
        results = await asyncio.gather(
            *(http_get(b.host, b.obs_port, path) for _, b in alive),
            return_exceptions=True)
        parts = [(None, live_prometheus_text(prefix=prefix,
                                             exemplars=exemplars))]
        for (index, _), text in zip(alive, results):
            if isinstance(text, Exception):
                continue
            parts.append(({"worker": str(index)}, text))
        return merge_prometheus_texts(parts)


class _ClusterObs(ObservabilityServer):
    """The router's aggregated observability endpoint.

    Same port layout and routes as a worker's endpoint -- ``repro
    top``, curl probes and Prometheus need no cluster-specific
    configuration -- plus ``/cluster`` for the fleet control report.
    The aggregating routes are coroutines (they scrape the workers);
    the base class awaits them.
    """

    def _route(self, path: str, query: dict):
        router: Router = self.server
        if path == "/metrics":
            return self._metrics(router, query)
        if path == "/healthz":
            return _json_async(router.fleet_healthz())
        if path == "/slo":
            return _json_async(router.fleet_slo())
        if path == "/slow":
            return _json_async(router.fleet_slow())
        if path == "/tables":
            return _json_async(router.fleet_tables())
        if path == "/scale":
            return _json_async(router.scale_report())
        if path == "/trace":
            values = query.get("limit")
            try:
                limit = int(values[0]) if values else None
            except ValueError:
                limit = None
            return json_response(router.trace_dump(limit))
        if path.startswith("/trace/"):
            try:
                trace_id = parse_trace_id(path[len("/trace/"):])
            except ValueError as exc:
                return ("400 Bad Request", "text/plain; charset=utf-8",
                        f"{exc}\n".encode("utf-8"))
            return _json_async(router.fleet_trace(trace_id))
        if path == "/cluster":
            return json_response(router.cluster_report())
        if path == "/":
            return json_response({
                "service": "repro-serve-cluster",
                "endpoints": ["/metrics", "/healthz", "/slo", "/slow",
                              "/tables", "/trace", "/scale", "/cluster"],
            })
        return ("404 Not Found", "text/plain; charset=utf-8",
                f"no route {path}\n".encode("utf-8"))

    async def _metrics(self, router: Router, query: dict):
        values = query.get("prefix")
        prefix = values[0] if values else None
        flags = query.get("exemplars")
        exemplars = bool(flags) and flags[0] not in ("", "0", "false",
                                                     "no")
        text = await router.fleet_metrics(prefix=prefix,
                                          exemplars=exemplars)
        return ("200 OK", "text/plain; version=0.0.4; charset=utf-8",
                text.encode("utf-8"))


class ClusterThread:
    """Supervisor + router behind a blocking API (mirrors
    :class:`~repro.serve.server.ServerThread`).

        with ClusterThread(workers=3, state_dir=d) as cluster:
            client = ServeClient("127.0.0.1", cluster.port)
            ...

    The supervisor starts on the calling thread (multiprocessing spawn
    + listening handshake); the router runs on a background asyncio
    thread.  ``stop()`` drains the router first, then SIGTERMs the
    fleet -- workers spill their arenas on the way down.
    """

    def __init__(self, workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0, obs_port: Optional[int] = None,
                 router_kwargs: Optional[dict] = None, **worker_kwargs):
        self.n_workers = workers
        self._host = host
        self._port = port
        self._obs_port = obs_port
        self._router_kwargs = dict(router_kwargs or {})
        self._worker_kwargs = worker_kwargs
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.supervisor: Optional[ClusterSupervisor] = None
        self.router: Optional[Router] = None
        self.port: Optional[int] = None
        self.obs_port: Optional[int] = None
        self.final_stats: Optional[dict] = None

    def start(self) -> "ClusterThread":
        self.supervisor = ClusterSupervisor(
            self.n_workers, **self._worker_kwargs).start()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-router")
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            self.supervisor.stop()
            raise self._startup_error
        if self.port is None:
            self.supervisor.stop()
            raise RuntimeError("router failed to start within 60s")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.router = Router(self.supervisor, host=self._host,
                                 port=self._port,
                                 obs_port=self._obs_port,
                                 **self._router_kwargs)
            await self.router.start()
            self.port = self.router.port
            self.obs_port = self.router.obs_port
        except BaseException as exc:  # noqa: BLE001 - rethrown in start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        self.final_stats = await self.router.stop()

    def call(self, coro, timeout: float = 60.0):
        """Run a coroutine on the router's loop from any thread --
        tests drive migrations with
        ``cluster.call(cluster.router.migrate(sid, target))``."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout)

    def stop(self) -> Optional[dict]:
        if self._thread is not None:
            if self._loop is not None and self._stop_event is not None:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=90)
            alive = self._thread.is_alive()
            self._thread = None
            if alive:
                raise RuntimeError("router thread did not stop within 90s")
        if self.supervisor is not None:
            self.supervisor.stop()
        return self.final_stats

    def __enter__(self) -> "ClusterThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ------------------------------------------------------------- helpers

def _bare_frame(frame_type: int, request_id: int, body: bytes,
                trace_id: int) -> bytes:
    """A complete frame without its length prefix (the writers add
    it), matching what :func:`~repro.serve.protocol.read_payload`
    returns."""
    return protocol.encode_frame(frame_type, request_id, body,
                                 trace_id)[4:]


def _quantity(value: float) -> str:
    """A Kubernetes resource.Quantity in milli-units (``"1500m"`` ==
    1.5): the custom-metrics API has no float type, this is its
    convention for fractional metric values."""
    return f"{int(round(float(value) * 1000))}m"


async def _json_async(coro):
    return json_response(await coro)
