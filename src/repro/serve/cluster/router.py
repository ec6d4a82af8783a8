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
exactly like the single-process server's writer queue).  Every frame,
to a worker or back to a client, leaves in one write: length prefix
and bytes together.

**No dropped or reordered frames.**  One mover, :meth:`Router._move`,
changes a session's owner, for a hot migration, a rebalance and a
failover alike.  The session is parked first (new frames queue in
arrival order).  A live owner gets RELEASE_SESSION, which rides the
worker's per-session FIFO, so every in-flight STEP is answered first;
a dead owner is waited for until the supervisor has collected it (a
SIGTERM drain spills arenas *after* closing its sockets, so only the
exit makes them final).  Then ADOPT_SESSION goes to the new owner, and
the parked frames are sent in order with no await between them.  When
a worker dies, its in-flight frames go to the front of their
sessions' park queues (they are older than anything parked) and each
of its sessions gets a mover of its own, so a session with no arena
(never snapshotted when the worker was SIGKILLed, windowed, or no
state dir configured) is lost at once -- counted in
``repro_cluster_sessions_lost_total`` and answered UNKNOWN_SESSION,
never silently dropped -- and delays no other session.

The router's obs endpoint serves the worker's routes aggregated over
the fleet from each worker's JSON answers; ``/metrics`` merges the
workers' registry snapshots into the router's own.

:class:`Router` runs on the server's :mod:`repro.serve.service`
chassis; :class:`ClusterThread` hosts supervisor + router behind the
same blocking API as :class:`~repro.serve.server.ServerThread`, for
tests, loadgen, and the ``repro cluster serve`` CLI.
"""

from __future__ import annotations

import asyncio
import math
import struct
import time
from typing import Dict, List, Optional
from urllib.parse import urlencode

from repro.serve import protocol
from repro.serve.cluster.ring import RendezvousRing
from repro.serve.cluster.supervisor import ClusterSupervisor
from repro.serve.obs import get_json
from repro.serve.protocol import HEADER_SIZE
from repro.serve.service import (FrameService, Refusal, ServiceMetrics,
                                 ServiceThread, Slot, pooled_table_ratios)
from repro.serve.tracing import (SLOW_K, RequestTrace, format_trace_id,
                                 new_trace_id, parse_trace_id)
from repro.telemetry.registry import registry

__all__ = ["Router", "ClusterThread", "ClusterControlError"]

_LEN = struct.Struct("!I")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")

#: Seconds between housekeeping ticks (respawn collected workers).
_TICK_S = 0.5

#: Seconds a lost worker may take to finish its drain and exit before
#: the failover's collect kills it.
_DRAIN_TIMEOUT_S = 60.0

#: Seconds a client request or a control frame may wait for its
#: worker's answer before the router answers TIMEOUT.
_REQUEST_TIMEOUT_S = 60.0

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


class ClusterControlError(Exception):
    """A worker answered a router control frame with an ERROR."""

    def __init__(self, code: int, message: str):
        super().__init__(f"[{protocol.error_code_name(code)}] {message}")
        self.code = code
        self.message = message


class _ClusterMetrics(ServiceMetrics):
    """Registry handles for the router tier (``repro_cluster_*``)."""

    def __init__(self):
        super().__init__("repro_cluster")
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
        self.frames = reg.counter(
            "repro_cluster_frames_proxied_total",
            "Client frames accepted by the router, by frame type.",
            labels=("type",))
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


class _Entry(Slot):
    """One in-flight client (or control) frame.  As a client frame's
    response slot it carries the client's request and trace ids; its
    future resolves to the worker's reply (bytes after the length
    prefix) or a :class:`~repro.serve.service.Refusal`."""

    __slots__ = ("payload", "conn", "frame_type", "session_id",
                 "respond_open", "kind", "records", "brid")

    def __init__(self, payload, conn, future, frame_type, trace_id,
                 request_id, session_id=0):
        # The router-side span of a client frame, under the client's
        # trace id (a frame carrying 0 gets a router-assigned one: it
        # still records the router-side timeline, it just won't match
        # the worker's); None for router-internal control frames.
        trace = None if conn is None else RequestTrace(
            trace_id=trace_id or new_trace_id(),
            frame_type=protocol.frame_type_name(frame_type),
            source="router", request_id=request_id,
            t_recv=time.monotonic())
        super().__init__(future, trace, request_id, trace_id)
        self.payload = payload
        self.conn = conn
        self.frame_type = frame_type
        self.session_id = session_id
        self.respond_open = False
        self.kind = None
        self.records = 0
        self.brid = 0


class _Backend:
    """The router's one connection to one worker process."""

    __slots__ = ("index", "host", "port", "obs_port", "pid", "reader",
                 "writer", "reader_task", "pending", "alive", "lost",
                 "collected")

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
        #: Set once the failover has collected the dead worker: it can
        #: write no more arenas, so an ADOPT's answer is final.
        self.collected = asyncio.Event()


class Router(FrameService):
    """The cluster's client-facing listener and placement brain."""

    service_name = "repro-serve-cluster"
    trace_source, answer_stage, write_stage = "router", "route", "write"
    timeout_message = "request not served within {:g}s by the cluster"

    def __init__(self, supervisor: ClusterSupervisor,
                 host: str = "127.0.0.1", port: int = 0,
                 obs_port: Optional[int] = None,
                 auto_restart: bool = True):
        super().__init__(host, port, obs_port, _ClusterMetrics(),
                         _REQUEST_TIMEOUT_S)
        self.supervisor = supervisor
        self.auto_restart = auto_restart
        self.state_dir = supervisor.worker_kwargs.get("state_dir")
        worker_host = supervisor.worker_kwargs.get("host", "127.0.0.1")
        self._worker_host = ("127.0.0.1"
                            if worker_host in ("0.0.0.0", "::", "")
                            else worker_host)
        self.ring = RendezvousRing()
        self._backends: Dict[int, _Backend] = {}
        #: session id -> owning worker slot.
        self._sessions: Dict[int, int] = {}
        #: Parked sessions: sid -> queued entries awaiting re-home.
        self._parked: Dict[int, List[_Entry]] = {}
        self._next_brid = 1
        self._tick_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Counters mirrored as plain ints for JSON reports.
        self.frames_proxied = 0
        self.records_proxied = 0
        self.hits_proxied = 0
        self.migrations = 0
        self.sessions_lost = 0
        self.adopted_at_start = 0

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
        await self._listen()
        self._tick_task = asyncio.ensure_future(self._tick_loop())
        self.metrics.workers.set(self.supervisor.n_workers)

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
        await self._stop_listening()
        for backend in self._backends.values():
            # The ring holds exactly the connected workers.
            backend.alive = False
            self.ring.discard(backend.index)
            if backend.reader_task is not None:
                backend.reader_task.cancel()
            backend.writer.close()
        await asyncio.gather(
            *(b.reader_task for b in self._backends.values()
              if b.reader_task), return_exceptions=True)
        self._set_gauges()
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

    # ------------------------------------------------------- client side

    async def _dispatch_payload(self, conn, payload) -> None:
        """Route one client frame."""
        payload = bytearray(payload)
        ftype, rid, trace_id = protocol.peek_header(payload)
        self.frames_proxied += 1
        entry = _Entry(payload, conn, self._loop.create_future(), ftype,
                       trace_id, rid)
        self.metrics.frames.inc(type=entry.trace.frame_type)
        conn.responses.put_nowait(entry)

        if ftype == protocol.FrameType.OPEN_SESSION:
            await self._route_open(entry)
            return
        if ftype in _CONTROL_TYPES:
            self._fail_entry(
                entry, protocol.ErrorCode.BAD_FRAME,
                f"{protocol.FrameType(ftype).name} is router-internal "
                f"cluster control; clients open sessions with "
                f"OPEN_SESSION")
            return
        if ftype not in _SESSION_TYPES:
            self._fail_entry(entry, protocol.ErrorCode.UNKNOWN_TYPE,
                             f"unknown frame type {ftype}")
            return
        if len(payload) < HEADER_SIZE + _U64.size:
            self._fail_entry(entry, protocol.ErrorCode.BAD_FRAME,
                             "bad session op body: truncated session id")
            return
        (sid,) = _U64.unpack_from(payload, HEADER_SIZE)
        if ftype == protocol.FrameType.STATS and sid == 0:
            # Server-wide stats become cluster-wide stats at the router.
            body = protocol.encode_json_body(self.cluster_report())
            self._complete(entry, _bare_frame(
                ftype | protocol.RESPONSE_BIT, rid, body, trace_id))
            return
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
            entry.trace.mark("route", time.monotonic())
            self._parked[sid].append(entry)
            return
        backend = self._deliver(entry)
        if backend is not None:
            await _drain(backend)

    async def _route_open(self, entry: _Entry) -> None:
        """Rewrite OPEN_SESSION -> OPEN_SESSION_AS with a router-global
        session id and deliver it, which places it on the ring."""
        payload = entry.payload
        if len(payload) + _U64.size > protocol.MAX_FRAME_BYTES:
            # The worker's frame reader would refuse the rewritten frame
            # and drop the router's whole connection to it.
            self._fail_entry(
                entry, protocol.ErrorCode.BAD_FRAME,
                f"OPEN_SESSION of {len(payload)} bytes leaves no room "
                f"for the router's session id within the "
                f"{protocol.MAX_FRAME_BYTES}-byte frame limit")
            return
        gid = self._alloc_session_id()
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
        backend = self._deliver(entry)
        if backend is not None:
            await _drain(backend)

    def _deliver(self, entry: _Entry) -> Optional[_Backend]:
        """Send a client frame to its session's owner, or answer it when
        there is none; returns the backend to drain, or None.

        An OPEN (first sent, or re-sent after its worker died before
        answering) is placed on the ring's pick.  Dispatch, a dead
        worker's re-sends and the flush of a parked session all come
        through here."""
        sid = entry.session_id
        if entry.kind == "open":
            try:
                owner = self.ring.assign(sid)
            except LookupError:
                self._fail_entry(entry, protocol.ErrorCode.SHUTTING_DOWN,
                                 "no live workers to place the session on")
                return None
            # Tentative: confirmed by the worker's response, rolled back
            # on an ERROR (bad spec etc.).  Mapping it now keeps frames
            # pipelined behind the open routable immediately.
            self._sessions[sid] = owner
        else:
            owner = self._sessions.get(sid)
            if owner is None:
                self._fail_entry(entry, protocol.ErrorCode.UNKNOWN_SESSION,
                                 f"unknown session {sid}")
                return None
        backend = self._backends[owner]
        if not backend.alive:
            # Every session of a dead worker is parked by its failover,
            # so this owner died as the router stops.
            self._fail_entry(entry, protocol.ErrorCode.INTERNAL,
                             f"worker {owner} connection lost")
            return None
        self._send(entry, backend)
        return backend

    def _response_frame(self, entry: _Entry, payload) -> bytes:
        """The worker's reply (or the router's own answer) behind its
        length prefix, so the frame goes out in one write."""
        return _LEN.pack(len(payload)) + payload

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
            entry.trace.mark("proxy", time.monotonic())
            if is_error:
                entry.trace.fail()
        protocol.patch_request_id(payload, entry.request_id)
        if entry.respond_open and not is_error:
            protocol.patch_type(payload, protocol.FrameType.OPEN_SESSION
                                | protocol.RESPONSE_BIT)
        if is_error:
            if entry.kind == "open":
                # The tentative placement never materialised.
                if self._sessions.get(entry.session_id) == backend.index:
                    self._sessions.pop(entry.session_id, None)
        else:
            if entry.kind == "close":
                self._sessions.pop(entry.session_id, None)
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

    def _send(self, entry: _Entry, backend: _Backend) -> None:
        """Write *entry* to the live *backend*, without awaiting.  Once
        the entry is in ``backend.pending`` it belongs to the backend: a
        connection that drops under the write is the backend reader's
        to notice, and its failover re-sends (or, for control frames,
        fails) the entry."""
        brid = self._next_brid & 0xFFFFFFFF
        self._next_brid += 1
        entry.brid = brid
        trace = entry.trace
        if trace is not None:
            # The stage this hand-off closes: placement, the unpark
            # after a park, or the wait for a dead worker's re-send.
            stage = ("migrate_wait" if trace.workers
                     else "unpark" if trace.parked else "route")
            trace.mark(stage, time.monotonic())
            trace.workers.append(backend.index)
        protocol.patch_request_id(entry.payload, brid)
        backend.pending[brid] = entry
        backend.writer.write(_LEN.pack(len(entry.payload)) + entry.payload)

    async def _control(self, backend: _Backend, frame_type: int,
                       session_id: int) -> dict:
        """Send one router-internal control frame and decode the JSON
        report; raises :class:`ClusterControlError` on an ERROR reply
        and ``ConnectionError`` if the worker is gone or dies first."""
        if not backend.alive:
            raise ConnectionError(
                f"worker {backend.index} is not connected")
        payload = bytearray(_bare_frame(
            frame_type, 0, protocol.encode_session_op(session_id), 0))
        entry = _Entry(payload, None, self._loop.create_future(),
                       frame_type, 0, 0, session_id=session_id)
        self._send(entry, backend)
        await _drain(backend)
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

        Parks the session and hands it to :meth:`_move`.  A session
        whose owner refuses to release it (scalar mode, no state dir)
        stays where it is."""
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
        return await self._move(session_id, reason, target)

    async def rebalance(self, reason: str = "rebalance") -> int:
        """Migrate every session whose rendezvous owner changed (after
        a worker joined); returns how many moved."""
        moved = 0
        for sid in sorted(self._sessions):
            owner = self._sessions.get(sid)
            try:
                want = self.ring.assign(sid)
            except LookupError:
                break
            if owner not in (None, want) and await self.migrate(
                    sid, want, reason=reason):
                moved += 1
        return moved

    async def _on_backend_lost(self, backend: _Backend) -> None:
        """Failover: collect the dead worker, then move each of its
        sessions on its own, each after its in-flight frames."""
        if backend.lost:
            return
        backend.lost = True
        backend.alive = False
        self.ring.discard(backend.index)
        in_flight: List[_Entry] = []
        for entry in backend.pending.values():
            if entry.conn is not None:
                in_flight.append(entry)
            elif not entry.future.done():
                entry.future.set_exception(ConnectionError(
                    f"worker {backend.index} connection lost"))
        backend.pending.clear()
        if self._stopping:
            for entry in in_flight:
                self._fail_entry(entry, protocol.ErrorCode.SHUTTING_DOWN,
                                 "router is shutting down")
            return
        # Park everything the dead worker owned *synchronously* --
        # frames arriving from here on queue behind the failover.  A
        # session already moving keeps its mover.
        movers = [sid for sid, owner in self._sessions.items()
                  if owner == backend.index and sid not in self._parked]
        for sid in movers:
            self._parked[sid] = []
        # In-flight frames are older than anything parked: they go to
        # the front of their session's queue, in their send order.  A
        # session no longer open has no queue; they are answered now.
        fronts: Dict[int, List[_Entry]] = {}
        for entry in in_flight:
            fronts.setdefault(entry.session_id, []).append(entry)
        for sid, entries in fronts.items():
            if sid in self._parked:
                self._parked[sid][:0] = entries
            else:
                for entry in entries:
                    self._deliver(entry)
        # Reading the pipe until the worker exits lets a drain ship any
        # amount of telemetry.  ``collect`` returns or raises only once
        # the worker is gone: after it, the worker writes no arena.
        try:
            await asyncio.to_thread(
                self.supervisor.collect,
                self.supervisor.handles[backend.index], _DRAIN_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - the failover must go on
            pass
        finally:
            backend.collected.set()
        await asyncio.gather(*(self._move(sid, "failover")
                               for sid in movers))

    async def _move(self, session_id: int, reason: str,
                    target: Optional[int] = None) -> bool:
        """Give the parked *session_id* a new owner -- *target* while it
        is connected, else the ring's pick -- then send its parked
        frames in order, however the move ended.  Returns True if the
        owner changed.

        The only code that moves a session: RELEASE it from a live
        owner (a refusal keeps it there), or wait until a dead owner has
        been collected; then ADOPT it.  An ADOPT refused after that is
        final: the session is lost.  A worker that dies while this
        session is parked leaves it to this mover, whatever it last
        answered."""
        owner = self._backends[self._sessions[session_id]]
        try:
            try:
                await self._control(owner, protocol.FrameType.RELEASE_SESSION,
                                    session_id)
            except (ConnectionError, ClusterControlError,
                    asyncio.TimeoutError) as exc:
                if (getattr(exc, "code", None)
                        == protocol.ErrorCode.UNKNOWN_SESSION):
                    self._sessions.pop(session_id, None)  # it closed
                    return False
                if owner.alive:
                    return False  # scalar mode, no state dir: stays
            if not owner.alive:
                await owner.collected.wait()
                queue = self._parked[session_id]
                if queue and queue[0].kind == "open":
                    # Its OPEN never completed anywhere: the flush
                    # re-sends it, which places it afresh.
                    return False
            while True:
                if target not in self.ring:
                    target = self.ring.assign(session_id)
                backend = self._backends[target]
                try:
                    await self._control(backend,
                                        protocol.FrameType.ADOPT_SESSION,
                                        session_id)
                except ConnectionError:
                    pass
                if backend.alive:
                    break
                # It died under the ADOPT, or just after answering it,
                # and has left the ring: try the next pick.
            self._sessions[session_id] = target
            self.migrations += 1
            self.metrics.migrations.inc(reason=reason)
            return True
        except (ClusterControlError, asyncio.TimeoutError, LookupError):
            # No arena, or nowhere to adopt it.
            self._sessions.pop(session_id, None)
            self.sessions_lost += 1
            self.metrics.sessions_lost.inc()
            return False
        finally:
            await self._flush(session_id)

    async def _flush(self, session_id: int) -> None:
        """Unpark *session_id*: send its queued frames in order with no
        await between them, so a frame arriving meanwhile routes behind
        them, and a worker dying under them finds them all in its
        ``pending``."""
        now = time.monotonic()
        backends = set()
        for entry in self._parked.pop(session_id):
            if not entry.trace.workers:
                entry.trace.mark("park", now)
            backend = self._deliver(entry)
            if backend is not None:
                backends.add(backend)
        for backend in backends:
            await _drain(backend)

    # ------------------------------------------------------ housekeeping

    async def _tick_loop(self) -> None:
        # Not ``while True``: on Python 3.11 a cancel that arrives with
        # a control frame's answer is lost inside ``wait_for``, and
        # ``stop`` would wait for this loop forever.
        while not self._stopping:
            await asyncio.sleep(_TICK_S)
            try:
                await self._tick()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the tick must survive
                pass

    async def _tick(self) -> None:
        if not self.auto_restart or self._stopping:
            return
        for index in sorted(self._backends):
            # Only a slot whose failover has collected its worker: one
            # reader per worker pipe.  A fleet being stopped stays down.
            if (not self._backends[index].collected.is_set()
                    or self.supervisor.handles[index].requested_stop):
                continue
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

    def _workers_alive(self) -> int:
        return sum(1 for b in self._backends.values() if b.alive)

    def _set_gauges(self) -> None:
        """Read the fleet gauges off the tables they count: when
        ``/metrics`` is built, and once more on drain."""
        self.metrics.workers_alive.set(self._workers_alive())
        self.metrics.sessions.set(len(self._sessions))
        self.metrics.parked.set(len(self._parked))

    def _fail_entry(self, entry: _Entry, code: int, message: str) -> None:
        self._complete(entry, Refusal(code, message))

    def _complete(self, entry: _Entry, result) -> None:
        """Answer *entry*; one never handed off ends ``route`` here."""
        if entry.future.done():
            return
        if entry.trace is not None and not entry.trace.marks:
            entry.trace.mark("route", time.monotonic())
        entry.future.set_result(result)

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
            "connections_open": len(self._connections),
            "frames_proxied": self.frames_proxied,
            "records_proxied": self.records_proxied,
            "hits_proxied": self.hits_proxied,
            "migrations_total": self.migrations,
            "sessions_lost_total": self.sessions_lost,
            "adopted_at_start": self.adopted_at_start,
            "state_dir": self.state_dir,
            "uptime_s": self.uptime_s(),
        }

    async def _scrape_workers(self, path: str) -> List[tuple]:
        """(index, parsed-JSON-or-None) for every connected worker."""
        alive = [(i, b) for i, b in sorted(self._backends.items())
                 if b.alive and b.obs_port]
        results = await asyncio.gather(
            *(get_json(b.host, b.obs_port, path) for _, b in alive),
            return_exceptions=True)
        return [(i, None if isinstance(res, Exception) else res)
                for (i, _), res in zip(alive, results)]

    async def healthz(self) -> dict:
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
                   "records": 0, "hits": 0, "queue_depth": 0,
                   "alerts": []}
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
                    "queue_depth": health.get("queue_depth", 0),
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
        return {
            "schema": 1,
            "cluster": True,
            "status": self._health_status(alerts),
            "draining": self._stopping,
            "uptime_s": self.uptime_s(),
            "protocol_version": protocol.PROTOCOL_VERSION,
            "connections_open": len(self._connections),
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
        }

    async def slo_report(self) -> dict:
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
        return {
            "schema": 1,
            "cluster": True,
            "slos": slos,
            "alerts": alerts,
            "healthy": workers_healthy and not alerts,
            "latency": self.request_log.window_summary(),
            "records_served": self.records_proxied,
            "hits_served": self.hits_proxied,
            "hit_rate": ((self.hits_proxied / self.records_proxied)
                         if self.records_proxied else None),
            "uptime_s": self.uptime_s(),
        }

    async def slow_requests(self) -> dict:
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
        router_snap = self.request_log.slow.snapshot()
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
                    router_spans = self.request_log.traces.get(
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
                "slowest": slowest[:SLOW_K]}

    async def trace_lookup(self, trace_id: int) -> dict:
        """The cluster ``/trace/<id>`` body: the router's span(s) for
        one trace id merged with every worker's, ordered router first
        and then workers in hop order -- a request that traversed two
        workers (mid-flight failover, migration) reads as one timeline.
        """
        hex_id = format_trace_id(trace_id)
        router_spans = self.request_log.traces.get(trace_id)
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
        return dict(super().trace_dump(limit), cluster=True)

    async def scale_report(self) -> dict:
        """The ``/scale`` body: autoscaling signals shaped like a
        Kubernetes custom-metrics API ``MetricValueList``, derived from
        the aggregated ``/healthz`` and ``/slo``.

        Signals: average sessions per live worker, p99 data-frame
        latency over the router's window (client-experienced; its
        span rides in each item's ``windowSeconds``), the deepest
        worker queue across the fleet, and the worst
        *sustained* SLO burn (min of the fast and slow windows, so a
        single spike does not scale the fleet, matching the
        multi-window alert rule).  ``signals`` carries the raw floats
        for humans and the soak harness; ``items`` is what a metrics
        adapter (e.g. prometheus-adapter) serves to the HPA --
        see deploy/k8s.yaml and deploy/README.md.
        """
        health = await self.healthz()
        slo = await self.slo_report()
        workers_alive = self._workers_alive()
        sessions_per_worker = (len(self._sessions)
                               / max(1, workers_alive))
        burn = max((min(status.get("fast_burn", 0.0),
                        status.get("slow_burn", 0.0))
                    for status in slo["slos"]), default=0.0)
        latency = slo["latency"]
        signals = {
            "sessions_per_worker": round(sessions_per_worker, 4),
            "step_latency_p99_ms": latency["p99_ms"],
            "queue_depth": max((row["queue_depth"]
                                for row in health["workers"]), default=0),
            "slo_burn_rate": round(burn, 4),
        }
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        items = [{
            "describedObject": {"kind": "Service", "apiVersion": "v1",
                                "name": "repro-serve"},
            "metric": {"name": f"repro_{name}"},
            "timestamp": timestamp,
            "windowSeconds": max(1, math.ceil(latency["window_s"])),
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
            "alerts": sorted(slo["alerts"]),
        }

    async def tables_report(self) -> dict:
        """Aggregated ``/tables``: one row per worker (its pooled
        totals; per-session detail stays on the worker) and
        fleet-pooled totals."""
        scraped = await self._scrape_workers("/tables")
        workers = []
        totals = {"sessions": 0, "live_bits": 0, "storage_bits": 0,
                  "hits": 0, "alias_accesses": 0, "alias_conflicts": 0}
        for index, report in scraped:
            if report is None:
                continue
            rep_totals = report.get("totals", {})
            workers.append(dict(rep_totals, worker=index))
            for key in totals:
                totals[key] += rep_totals.get(key, 0)
        return {"schema": 1, "cluster": True, "workers": workers,
                "totals": pooled_table_ratios(totals)}

    async def metrics_snapshot(self, prefix: Optional[str]) -> dict:
        """The router's registry snapshot plus every live worker's,
        each worker sample labelled ``worker="i"`` first.  A family the
        router holds (drained workers' are folded in) is extended, so
        the first HELP wins.  A family with worker samples declares
        ``worker`` first in its ``label_names`` and the router's own
        samples in it carry ``worker=""`` (the same series to
        Prometheus), so the result is a snapshot that
        ``MetricsRegistry.merge_snapshot`` accepts."""
        query = urlencode({"format": "json",
                           **({"prefix": prefix} if prefix else {})})
        scraped = await self._scrape_workers(f"/metrics?{query}")
        self._set_gauges()
        merged = super().metrics_snapshot(prefix)
        for index, snapshot in scraped:
            if snapshot is None:
                continue
            for name, family in snapshot.items():
                into = merged.get(name)
                if into is None or "worker" not in into["label_names"]:
                    own = into["samples"] if into else []
                    into = merged[name] = dict(
                        into or family,
                        label_names=["worker", *family["label_names"]],
                        samples=_labelled("", own))
                into["samples"] += _labelled(str(index), family["samples"])
        return merged


class ClusterThread(ServiceThread):
    """Supervisor + router behind a blocking API (the same one as
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
                 auto_restart: bool = True, **worker_kwargs):
        super().__init__(lambda: Router(
            self.supervisor, host=host, port=port, obs_port=obs_port,
            auto_restart=auto_restart))
        self.n_workers = workers
        self._worker_kwargs = worker_kwargs
        self.supervisor: Optional[ClusterSupervisor] = None

    @property
    def router(self) -> Optional[Router]:
        return self.service

    def start(self) -> "ClusterThread":
        self.supervisor = ClusterSupervisor(
            self.n_workers, **self._worker_kwargs).start()
        try:
            return super().start()
        except BaseException:
            self.supervisor.stop()
            raise

    def stop(self) -> Optional[dict]:
        try:
            return super().stop()
        finally:
            if self.supervisor is not None:
                self.supervisor.stop()


# ------------------------------------------------------------- helpers

async def _drain(backend: _Backend) -> None:
    """Wait until *backend*'s socket takes more writes."""
    try:
        await backend.writer.drain()
    except ConnectionError:
        # A SIGTERM drain closes the worker's socket right after its
        # last response; a frame written into that gap is its
        # failover's to re-send, not answered INTERNAL here.
        pass


def _bare_frame(frame_type: int, request_id: int, body: bytes,
                trace_id: int) -> bytes:
    """A complete frame without its length prefix (prepended as it is
    written), matching what :func:`~repro.serve.protocol.read_payload`
    returns."""
    return protocol.encode_frame(frame_type, request_id, body,
                                 trace_id)[4:]


def _labelled(worker: str, samples: List[dict]) -> List[dict]:
    """*samples* with ``worker`` as their first label."""
    return [dict(sample, labels={"worker": worker, **sample["labels"]})
            for sample in samples]


def _quantity(value: float) -> str:
    """A Kubernetes resource.Quantity in milli-units (``"1500m"`` ==
    1.5): the custom-metrics API has no float type, this is its
    convention for fractional metric values."""
    return f"{int(round(float(value) * 1000))}m"
