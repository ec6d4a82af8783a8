"""The asyncio prediction server.

One process, one event loop, one :class:`~repro.serve.batcher
.MicroBatcher` queue feeding one worker task.  Every request for every
session goes through that queue in arrival order, so a session's
requests execute in FIFO order without locks.  Parallelism comes from
processes, not tasks: ``repro cluster serve --workers N`` runs N of
these servers behind a session-affine router.

Connections run on the :class:`~repro.serve.service.FrameService`
chassis (reader, the one response writer, drain).  Dispatch enqueues a
response slot, then submits the work item to the batcher, awaiting
there under backpressure.  The chassis writer answers the slots in
order (a slot not served within ``request_timeout`` of reaching the
head is answered TIMEOUT; its work still executes); this module
supplies only :meth:`PredictionServer._response_frame`, which encodes
a result.

Graceful shutdown (:meth:`PredictionServer.stop`): close the listener,
stop the readers (a dispatch in progress finishes first), let every
writer drain its pending responses while the worker keeps executing,
then cancel the (now idle) worker and close the transports.

Resident sessions live in one table kept in least-recently-used order.
With a state directory configured (``--state-dir``), sessions are
**durable**: an LRU evictor spills the least recently used engine-mode
sessions to per-session arena files
(:class:`~repro.core.state.ArenaStore`) when more than
``max_resident`` are resident, and the session resolver transparently
reloads a spilled session on its next request -- the client never sees
an eviction, only (at worst) one slightly slower request; a spill
whose arena write fails leaves its session resident (counted in
``spill_failures_total``).  The SNAPSHOT frame checkpoints a session
on demand (the durability barrier for kill-safety), a graceful stop
spills every spillable session, and a restarting server picks up the
arena directory where the last process left off -- session ids
continue above the highest spilled id, and the first request for a
spilled session restores it bit-identically.  Arenas from a different
state-layout generation are refused with ``STATE_VERSION`` (see
:data:`repro.core.state.STATE_VERSION`): a rolling deploy gets a clear
error, never misread tables.

Everything is observable through :mod:`repro.telemetry`: request /
batch / record counters, batch-size distributions, eviction / reload /
snapshot counters, queue-depth and open-session / resident / spilled
gauges read off the tables they count whenever ``/metrics`` is built,
table-usage gauges refreshed whenever ``/metrics`` or ``/tables`` is
read, and one ``serve.session`` span event per closed session when a
telemetry run is active.

:class:`ServerThread` hosts the server on a background thread with a
plain blocking API -- the test suite and the CLI's loadgen path use it
so nothing outside this module needs an event loop.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.spec import spec_from_config
from repro.core.state import STATE_VERSION, ArenaStore
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher, WorkItem
from repro.serve.service import (LATENCY_BUCKETS, FrameService, Refusal,
                                 ServiceMetrics, ServiceThread, Slot,
                                 pooled_table_ratios)
from repro.serve.session import Session
from repro.serve.tracing import RequestTrace, new_trace_id
from repro.telemetry import run as telemetry_run_module
from repro.telemetry.registry import registry
from repro.telemetry.slo import SLO, SLOMonitor, default_serve_slos
from repro.telemetry.spans import emit_span

__all__ = ["PredictionServer", "ServerThread"]

_log = logging.getLogger(__name__)

_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Seconds between queue-depth SLO samples.
_SLO_INTERVAL_S = 0.25


class _Response(Slot):
    """A worker's response slot: the request's frame type and the
    encoder of its result body (None for a STEP_BLOCK result, which is
    written straight into the wire buffer)."""

    __slots__ = ("frame_type", "encode")

    def __init__(self, future, trace: RequestTrace, frame_type: int,
                 encode):
        super().__init__(future, trace, trace.request_id, trace.trace_id)
        self.frame_type = frame_type
        self.encode = encode


class _ServeMetrics(ServiceMetrics):
    """Handles into the process registry for the serving data path."""

    def __init__(self):
        super().__init__("repro_serve")
        reg = registry()
        self.requests = reg.counter(
            "repro_serve_requests_total",
            "Requests dispatched, by frame type.", labels=("type",))
        self.fused = reg.counter(
            "repro_serve_fused_records_total",
            "Records that shared a kernel call with another request.")
        self.batches = reg.histogram(
            "repro_serve_batch_size",
            "Micro-batch sizes the worker took off its queue.",
            buckets=_BATCH_BUCKETS)
        self.batch_seconds = reg.histogram(
            "repro_serve_batch_seconds",
            "Micro-batch execution time.", buckets=LATENCY_BUCKETS)
        self.queue_depth = reg.gauge(
            "repro_serve_queue_depth", "Items waiting in the queue.")
        self.sessions_open = reg.gauge(
            "repro_serve_sessions_open", "Sessions currently open.")
        self.slo_burn = reg.gauge(
            "repro_serve_slo_burn_rate",
            "Burn rate per SLO and window at the last evaluation.",
            labels=("slo", "window"))
        self.slo_alerts = reg.counter(
            "repro_serve_slo_alerts_total",
            "SLO alert activations (transitions into firing).",
            labels=("slo",))
        self.healthy = reg.gauge(
            "repro_serve_healthy", "1 while no SLO alert fires, else 0.")
        self.table_occupancy = reg.gauge(
            "repro_serve_table_occupancy",
            "Live (nonzero) fraction of resident session table storage.")
        self.table_live_bits = reg.gauge(
            "repro_serve_table_live_bits",
            "Live table bits across the resident sessions.")
        self.table_efficiency = reg.gauge(
            "repro_serve_table_efficiency",
            "Served hits per live table bit, pooled over the resident "
            "sessions.")
        self.table_aliasing = reg.gauge(
            "repro_serve_table_aliasing_ratio",
            "Training accesses whose level-1 entry was last written by "
            "a different pc, pooled over the resident sessions.")
        self.sessions_resident = reg.gauge(
            "repro_serve_sessions_resident",
            "Open sessions whose tables are resident in memory.")
        self.sessions_spilled = reg.gauge(
            "repro_serve_sessions_spilled",
            "Open sessions spilled to the arena store, awaiting their "
            "next request.")
        self.evictions = reg.counter(
            "repro_serve_session_evictions_total",
            "Sessions spilled to the arena store by the LRU evictor "
            "or the shutdown drain.")
        self.spill_failures = reg.counter(
            "repro_serve_session_spill_failures_total",
            "Spills whose arena write raised; the session stayed "
            "resident.")
        self.reloads = reg.counter(
            "repro_serve_session_reloads_total",
            "Spilled sessions transparently restored from the arena "
            "store on a request.")
        self.snapshots = reg.counter(
            "repro_serve_session_snapshots_total",
            "Explicit SNAPSHOT checkpoints written while the session "
            "stayed resident.")
        self.releases = reg.counter(
            "repro_serve_session_releases_total",
            "Sessions checkpointed and relinquished via RELEASE_SESSION "
            "(the migration barrier).")
        self.adoptions = reg.counter(
            "repro_serve_session_adoptions_total",
            "Arena files adopted via ADOPT_SESSION.")


class PredictionServer(FrameService):
    """Micro-batching TCP value-prediction service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 queue_depth: int = 1024,
                 request_timeout: float = 30.0,
                 obs_port: Optional[int] = None,
                 slos: Optional[List[SLO]] = None,
                 state_dir: Optional[str] = None,
                 max_resident: Optional[int] = None,
                 adopt_arenas: bool = True):
        if max_resident is not None and max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, "
                             f"got {max_resident}")
        if max_resident is not None and not state_dir:
            raise ValueError("max_resident needs a state_dir: without "
                             "one there is nowhere to spill to")
        super().__init__(host, port, obs_port, _ServeMetrics(),
                         request_timeout)
        self.batcher = MicroBatcher(queue_depth=queue_depth)
        self.batcher.on_records = self._on_records
        self._task: Optional[asyncio.Task] = None
        #: Resident sessions, least recently used first: a resolve
        #: moves its session to the end, an open or a reload inserts
        #: there, and the evictor spills from the front.
        self.sessions: "OrderedDict[int, Session]" = OrderedDict()
        #: Open sessions currently living in the arena store rather
        #: than in :attr:`sessions`; :meth:`_resolve` moves ids back on
        #: their next request.
        self.spilled: Set[int] = set()
        self.evictions = 0
        self.reloads = 0
        self._session_opened_at: Dict[int, float] = {}
        # ----------------------------------------------- durable state
        # Normalised to str: this field travels in JSON bodies
        # (healthz, STATS) and tests pass pathlib Paths.
        self.state_dir = os.fspath(state_dir) if state_dir else None
        self.max_resident = max_resident
        self._store = ArenaStore(state_dir) if state_dir else None
        self.snapshots_taken = 0
        self.spill_failures = 0
        self.releases = 0
        if self._store is not None and adopt_arenas:
            # Adopt the previous process's spilled sessions: each id
            # stays addressable (restored on its first request) and the
            # id counter continues above the highest one on disk, so a
            # restarted server never reissues a session id that still
            # has an arena.  Cluster workers share one state directory
            # and run with adopt_arenas=False -- their router assigns
            # arenas explicitly with ADOPT_SESSION frames instead.
            adopted = self._store.session_ids()
            self.spilled.update(adopted)
            if adopted:
                self._note_session_id(adopted[-1])
        slo_list = default_serve_slos() if slos is None else list(slos)
        self.monitor = SLOMonitor(slo_list) if slo_list else None
        watched = self.monitor.slos if self.monitor is not None else []
        if self.monitor is not None:
            self.request_log.watch(self.monitor)
        self._queue_slos = [s for s in watched if s.kind == "queue_depth"]
        self._slo_statuses: List[dict] = []
        self._alerting: List[str] = []
        self._slo_task: Optional[asyncio.Task] = None
        self.records_served = 0
        self.hits_served = 0

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._task = asyncio.ensure_future(self._worker())
        await self._listen()
        if self.monitor is not None:
            self._slo_task = asyncio.ensure_future(self._slo_loop())
        self.metrics.healthy.set(1)

    async def stop(self) -> dict:
        """Graceful drain; returns the final server stats."""
        # The worker keeps running under the connection drain, so every
        # accepted request is answered before it is cancelled.
        await self._stop_listening()
        await self.batcher.drain()
        for task in (self._task, self._slo_task):
            if task is not None:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
        self._task = self._slo_task = None
        stats = self.server_stats()
        stats["slow_requests"] = self.slow_requests()
        # With a state directory, a graceful drain spills every
        # spillable session -- the next process adopts them, so they
        # stay open rather than closing.  Scalar-mode sessions (and
        # everything when no store is configured) close normally.
        for session_id in list(self.sessions):
            if not (self._store is not None
                    and self.sessions[session_id].spillable
                    and self._spill(session_id)):
                self._finish_session(session_id)
        stats["sessions_spilled_on_drain"] = len(self.spilled)
        self._set_gauges()
        return stats

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        batcher = self.batcher
        fused_seen = batcher.fused_records
        while True:
            batch = await batcher.next_batch()
            started = loop.time()
            batcher.execute(batch, self._resolve)
            batcher.task_done(len(batch))
            self._maybe_evict()
            if batcher.fused_records != fused_seen:
                self.metrics.fused.inc(batcher.fused_records - fused_seen)
                fused_seen = batcher.fused_records
            self.metrics.batches.observe(len(batch))
            self.metrics.batch_seconds.observe(loop.time() - started)
            # One batch per scheduling slice keeps readers responsive.
            await asyncio.sleep(0)

    # ------------------------------------------------------ observability

    def _on_records(self, session_id: int, n: int, hits: int) -> None:
        self.records_served += n
        self.hits_served += hits
        self.metrics.records.inc(n)
        if hits:
            self.metrics.hits.inc(hits)

    async def _slo_loop(self) -> None:
        while True:
            await asyncio.sleep(_SLO_INTERVAL_S)
            self._slo_tick()

    def _slo_tick(self) -> None:
        """One periodic sample: the queue depth into its SLO stream,
        then a burn-rate evaluation."""
        now = time.monotonic()
        depth = self.batcher.qsize()
        for slo in self._queue_slos:
            good = 1 if depth <= slo.threshold else 0
            self.monitor.record(slo.name, good=good, bad=1 - good, now=now)
        self._refresh_slo_state(now)

    def _refresh_slo_state(self, now: Optional[float] = None) -> List[dict]:
        """Evaluate burn rates, update gauges, and emit one telemetry
        event per alert transition (firing / resolved)."""
        statuses = self.monitor.evaluate(now)
        previous = set(self._alerting)
        alerting = [s["name"] for s in statuses if s["alerting"]]
        for status in statuses:
            self.metrics.slo_burn.set(status["fast_burn"],
                                      slo=status["name"], window="fast")
            self.metrics.slo_burn.set(status["slow_burn"],
                                      slo=status["name"], window="slow")
        run = telemetry_run_module.active_run()
        for name in alerting:
            if name not in previous:
                self.metrics.slo_alerts.inc(slo=name)
                if run is not None:
                    run.emit({"type": "slo_alert", "slo": name,
                              "state": "firing"})
        if run is not None:
            for name in previous:
                if name not in alerting:
                    run.emit({"type": "slo_alert", "slo": name,
                              "state": "resolved"})
        self._alerting = alerting
        self._slo_statuses = statuses
        self.metrics.healthy.set(0 if alerting else 1)
        return statuses

    def healthz(self) -> dict:
        """The ``/healthz`` body.  Always served (HTTP 200); overall
        health is the ``status`` field."""
        if self.monitor is not None:
            self._refresh_slo_state()
        return dict(
            self._counters(),
            status=self._health_status(self._alerting),
            protocol_version=protocol.PROTOCOL_VERSION,
            state_version=STATE_VERSION if self.state_dir else None)

    def slo_report(self) -> dict:
        """The ``/slo`` body: burn-rate statuses + live percentiles."""
        statuses = (self._refresh_slo_state()
                    if self.monitor is not None else [])
        return {
            "schema": 1,
            "slos": statuses,
            "alerts": [s["name"] for s in statuses if s["alerting"]],
            "healthy": not any(s["alerting"] for s in statuses),
            "latency": self.request_log.window_summary(),
            "records_served": self.records_served,
            "hits_served": self.hits_served,
            "hit_rate": ((self.hits_served / self.records_served)
                         if self.records_served else None),
            "uptime_s": self.uptime_s(),
        }

    def tables_report(self) -> dict:
        """The ``/tables`` body: live table usage per resident session
        and pooled.

        Walks every resident session's actual table-state snapshot (see
        :meth:`~repro.serve.session.Session.table_stats`), pools the
        live-bit / hit / conflict counts, and refreshes the
        ``repro_serve_table_*`` gauges as a side effect -- so does every
        ``/metrics`` scrape (:meth:`metrics_text`), and nothing else:
        a scalar-mode session's snapshot costs milliseconds of the
        worker's event loop.
        """
        sessions = []
        totals = {"sessions": len(self.sessions), "live_bits": 0,
                  "storage_bits": 0, "hits": 0, "alias_accesses": 0,
                  "alias_conflicts": 0}
        for session in self.sessions.values():
            stats = session.table_stats()
            totals["live_bits"] += stats["live_bits"]
            totals["storage_bits"] += stats["storage_bits"]
            totals["hits"] += session.hits
            alias = stats["aliasing"]
            if alias is not None:
                totals["alias_accesses"] += alias["accesses"]
                totals["alias_conflicts"] += alias["conflicts"]
            sessions.append(stats)
        pooled_table_ratios(totals)
        self.metrics.table_occupancy.set(totals["occupancy"])
        self.metrics.table_live_bits.set(totals["live_bits"])
        self.metrics.table_efficiency.set(totals["efficiency"])
        self.metrics.table_aliasing.set(totals["aliasing_ratio"])
        return {"schema": 1, "sessions": sessions, "totals": totals}

    def metrics_text(self, prefix: Optional[str] = None,
                     exemplars: bool = False) -> str:
        """The ``/metrics`` body, with the table, residency and queue
        gauges refreshed."""
        self.tables_report()
        self._set_gauges()
        return super().metrics_text(prefix=prefix, exemplars=exemplars)

    def _set_gauges(self) -> None:
        """Set the residency and queue gauges to the figures STATS
        reports, read off the tables they count: when ``/metrics`` is
        built, and once more on drain so a worker's final metrics
        snapshot carries the final values."""
        counters = self._counters()
        for name in ("queue_depth", "sessions_open", "sessions_resident",
                     "sessions_spilled"):
            getattr(self.metrics, name).set(counters[name])

    # -------------------------------------------------------- responses

    def _response_frame(self, slot: _Response, result) -> bytes:
        """A served result's frame; ends the span's ``encode``."""
        frame_type = slot.frame_type | protocol.RESPONSE_BIT
        if slot.encode is None:
            frame = protocol.encode_block_result_frame(
                frame_type, slot.request_id, *result, slot.trace_id)
        else:
            frame = protocol.encode_frame(frame_type, slot.request_id,
                                          slot.encode(result), slot.trace_id)
        slot.trace.mark("encode", time.monotonic())
        return frame

    # ----------------------------------------------------------- dispatch

    async def _dispatch_payload(self, conn, payload) -> None:
        # Decode through a memoryview: the frame body aliases the
        # payload bytes (kept alive by the view) instead of being
        # sliced out, so STEP_BLOCK records parse with no intermediate
        # copy.  A bad header raises out of here and closes the
        # connection; a bad body only fails its own request.
        frame = protocol.decode_frame(memoryview(payload))
        trace = RequestTrace(
            trace_id=frame.trace_id or new_trace_id(),
            frame_type=protocol.frame_type_name(frame.type),
            request_id=frame.request_id,
            t_recv=time.monotonic())
        self.metrics.requests.inc(type=trace.frame_type)
        try:
            handler = _DISPATCH.get(frame.type)
            if handler is None:
                self._refuse(conn, trace, protocol.ErrorCode.UNKNOWN_TYPE,
                             f"unknown frame type {frame.type}")
                return
            await handler(self, conn, frame, trace)
        except protocol.ProtocolError as exc:
            self._refuse(conn, trace, protocol.ErrorCode.BAD_FRAME, str(exc))

    async def _dispatch_open(self, conn, frame, trace) -> None:
        config, window = protocol.decode_open_session(frame.body)
        await self._open_session(conn, frame, trace, config, window,
                                 self._alloc_session_id())

    async def _dispatch_open_as(self, conn, frame, trace) -> None:
        session_id, config, window = protocol.decode_open_session_as(
            frame.body)
        if session_id < 1:
            self._refuse(conn, trace, protocol.ErrorCode.BAD_FRAME,
                         f"session id must be >= 1, got {session_id}")
            return
        self._note_session_id(session_id)
        await self._open_session(conn, frame, trace, config, window,
                                 session_id)

    async def _open_session(self, conn, frame, trace, config, window,
                            session_id) -> None:
        if self._stopping:
            self._refuse(conn, trace, protocol.ErrorCode.SHUTTING_DOWN,
                         "server is draining")
            return
        try:
            spec = spec_from_config(config)
            if window < 0:
                raise ValueError(f"window must be >= 0, got {window}")
        except (ValueError, TypeError, KeyError) as exc:
            self._refuse(conn, trace, protocol.ErrorCode.BAD_SPEC, str(exc))
            return

        def run(session):
            if session is not None or session_id in self.spilled:
                raise ValueError(f"session id {session_id} is already "
                                 f"in use")
            self.sessions[session_id] = Session(session_id, spec, window)
            self._session_opened_at[session_id] = time.time()
            self._maybe_evict()
            return session_id

        await self._submit(conn, frame, trace, run=run,
                           session_id=session_id,
                           encode=protocol.encode_session_op)

    async def _dispatch_predict(self, conn, frame, trace) -> None:
        session_id, pc = protocol.decode_session_op(frame.body, 1)
        await self._submit_session(
            conn, frame, trace, session_id,
            run=lambda s: s.predict(pc),
            encode=protocol.encode_u32)

    async def _dispatch_outcome(self, conn, frame, trace) -> None:
        session_id, pc, value = protocol.decode_session_op(frame.body, 2)
        await self._submit_session(
            conn, frame, trace, session_id,
            run=lambda s: s.outcome(pc, value),
            encode=protocol.encode_u8)

    async def _dispatch_step(self, conn, frame, trace) -> None:
        session_id, pc, value = protocol.decode_session_op(frame.body, 2)
        await self._submit(
            conn, frame, trace,
            pcs=np.asarray([pc], dtype=np.int64),
            values=np.asarray([value], dtype=np.int64),
            session_id=session_id,
            encode=lambda res: protocol.encode_step_result(
                int(res[0][0]), res[1]))

    async def _dispatch_step_block(self, conn, frame, trace) -> None:
        session_id, pcs, values = protocol.decode_step_block_arrays(
            frame.body)
        await self._submit(
            conn, frame, trace, pcs=pcs, values=values,
            session_id=session_id, encode=None)

    async def _dispatch_flush(self, conn, frame, trace) -> None:
        (session_id,) = protocol.decode_session_op(frame.body, 0)
        await self._submit_session(
            conn, frame, trace, session_id,
            run=lambda s: s.pending_updates(),
            encode=protocol.encode_u32)

    async def _dispatch_stats(self, conn, frame, trace) -> None:
        (session_id,) = protocol.decode_session_op(frame.body, 0)
        if session_id == 0:
            self._enqueue(conn, frame.type, trace,
                          protocol.encode_json_body).set_result(
                              self.server_stats())
            return
        await self._submit_session(
            conn, frame, trace, session_id,
            run=lambda s: s.stats(),
            encode=protocol.encode_json_body)

    async def _dispatch_close(self, conn, frame, trace) -> None:
        (session_id,) = protocol.decode_session_op(frame.body, 0)

        def run(session):
            stats = self._finish_session(session_id)
            if self._store is not None:
                # A closed session's state is gone by definition; the
                # arena must not resurrect it on the next restart.
                self._store.delete(session_id)
            return stats

        await self._submit_session(conn, frame, trace, session_id, run=run,
                                   encode=protocol.encode_json_body)

    async def _dispatch_snapshot(self, conn, frame, trace) -> None:
        (session_id,) = protocol.decode_session_op(frame.body, 0)
        if self._lacks_store(conn, frame, trace, "snapshots"):
            return
        await self._submit_session(conn, frame, trace, session_id,
                                   run=self._snapshot_session,
                                   encode=protocol.encode_json_body)

    async def _dispatch_adopt(self, conn, frame, trace) -> None:
        """ADOPT_SESSION: take ownership of an arena in the shared
        state directory.  The session becomes addressable immediately
        (listed as spilled) and is restored lazily by the session
        resolver on its first request -- adoption itself never loads
        table state, so re-homing N sessions is O(N) dictionary work.
        """
        (session_id,) = protocol.decode_session_op(frame.body, 0)
        if self._lacks_store(conn, frame, trace, "adoption"):
            return

        def run(session):
            if session is not None or session_id in self.spilled:
                # Idempotent: adopting a session already here is a
                # no-op, so a router retry after a torn control frame
                # is always safe.
                return {"schema": 1, "session": session_id,
                        "adopted": False, "reason": "already owned"}
            if not self._store.path_for(session_id).exists():
                raise KeyError(session_id)
            self.spilled.add(session_id)
            self._note_session_id(session_id)
            self._session_opened_at.setdefault(session_id, time.time())
            self.metrics.adoptions.inc()
            return {"schema": 1, "session": session_id, "adopted": True,
                    "path": str(self._store.path_for(session_id))}

        await self._submit(conn, frame, trace, run=run,
                           session_id=session_id,
                           encode=protocol.encode_json_body)

    async def _dispatch_release(self, conn, frame, trace) -> None:
        """RELEASE_SESSION: checkpoint to the arena and forget.

        The migration barrier: submitted through the batcher like any
        data frame, so every STEP accepted before it has executed (and
        its response slot filled) by the time the release report goes
        out.  After a release the session is gone
        from this worker -- later frames for it get UNKNOWN_SESSION --
        and the arena belongs to whoever adopts it.
        """
        (session_id,) = protocol.decode_session_op(frame.body, 0)
        if self._lacks_store(conn, frame, trace, "release"):
            return

        def run(session):
            if not session.spillable:
                raise ValueError(
                    f"session {session_id} is scalar-mode (windowed or "
                    f"non-resumable) and cannot be released for "
                    f"migration")
            arrays, meta = session.snapshot()
            nbytes = self._store.save(session_id,
                                      session.spec.to_config(), arrays,
                                      meta)
            del self.sessions[session_id]
            self._session_opened_at.pop(session_id, None)
            self.metrics.releases.inc()
            self.releases += 1
            return {"schema": 1, "session": session_id,
                    "path": str(self._store.path_for(session_id)),
                    "nbytes": nbytes, "state_version": STATE_VERSION,
                    "released": True, "hits": session.hits,
                    "predictions": session.predictions}

        await self._submit_session(conn, frame, trace, session_id, run=run,
                                   encode=protocol.encode_json_body)

    # ------------------------------------------------------ durable state

    def _lacks_store(self, conn, frame, trace, feature: str) -> bool:
        """Answer STATE_UNAVAILABLE when no state directory is set."""
        if self._store is not None:
            return False
        self._refuse(conn, trace, protocol.ErrorCode.STATE_UNAVAILABLE,
                     f"server is running without a state directory "
                     f"(start it with --state-dir to enable {feature})")
        return True

    def _resolve(self, session_id: int) -> Optional[Session]:
        """The batcher's ``session_id -> Session | None`` resolver.

        A resident session comes straight out of the table and becomes
        the most recently used; a spilled id is restored from its
        arena, re-seated as resident (most recently used) and counted
        as a reload -- the caller (batch execution, admin frames) never
        sees the difference.  ``None`` means the session does not exist
        anywhere.  A :class:`StateVersionError` propagates to the
        requesting futures (the batcher routes it to the client as a
        ``STATE_VERSION`` error); a corrupt arena was quarantined by
        the store and reports as an unknown session.
        """
        session = self.sessions.get(session_id)
        if session is not None:
            self.sessions.move_to_end(session_id)
            return session
        if self._store is None or session_id not in self.spilled:
            return None
        arena = self._store.load(session_id)
        if arena is None:  # corrupt arena, quarantined by the store
            self.spilled.discard(session_id)
            self._session_opened_at.pop(session_id, None)
            return None
        spec = spec_from_config(arena.spec_config)
        session = Session.restore(session_id, spec, arena.state(),
                                  arena.meta)
        self.sessions[session_id] = session
        self.spilled.discard(session_id)
        self.reloads += 1
        self.metrics.reloads.inc()
        return session

    def _spill(self, session_id: int) -> bool:
        """Move one resident spillable session out to the arena store.

        The arena is written before the session leaves the table, so a
        save that raises (a full disk, an encoder fault) loses nothing:
        the session stays resident and serving, the failure is logged
        and counted, and the spill reports ``False``.
        """
        session = self.sessions[session_id]
        try:
            arrays, meta = session.snapshot()
            self._store.save(session_id, session.spec.to_config(), arrays,
                             meta)
        except Exception as exc:  # noqa: BLE001 - must not end the worker
            self.spill_failures += 1
            self.metrics.spill_failures.inc()
            _log.warning("spilling session %d failed; it stays "
                         "resident: %s: %s", session_id,
                         type(exc).__name__, exc)
            return False
        del self.sessions[session_id]
        self.spilled.add(session_id)
        self.evictions += 1
        self.metrics.evictions.inc()
        return True

    def _maybe_evict(self) -> None:
        """Spill least recently used sessions until at most
        ``max_resident`` stay resident (when a cap is configured; the
        constructor refuses one without a state directory).

        Victims come from the front of :attr:`sessions`, skipping
        scalar-mode sessions, which cannot spill.  Runs synchronously
        between batches (or inside an open), so no batch is mid-flight;
        an evicted session with queued work simply reloads when that
        work executes.  A failed spill ends the round (the next batch
        tries again) and never raises.
        """
        if self.max_resident is None:
            return
        while len(self.sessions) > self.max_resident:
            victim = next((session_id for session_id, session
                           in self.sessions.items() if session.spillable),
                          None)
            if victim is None or not self._spill(victim):
                return

    def _snapshot_session(self, session: Session) -> dict:
        """Explicit SNAPSHOT: checkpoint to the arena, stay resident."""
        arrays, meta = session.snapshot()
        nbytes = self._store.save(session.session_id,
                                  session.spec.to_config(), arrays, meta)
        self.snapshots_taken += 1
        self.metrics.snapshots.inc()
        return {
            "schema": 1,
            "session": session.session_id,
            "spec": session.spec.name,
            "path": str(self._store.path_for(session.session_id)),
            "nbytes": nbytes,
            "arrays": len(arrays),
            "state_version": STATE_VERSION,
        }

    # ------------------------------------------------------------ helpers

    async def _submit_session(self, conn, frame, trace, session_id, run,
                              encode):
        def checked(session):
            if session is None:
                raise KeyError(session_id)
            return run(session)

        await self._submit(conn, frame, trace, run=checked,
                           session_id=session_id, encode=encode)

    async def _submit(self, conn, frame, trace, session_id, encode,
                      run=None, pcs=None, values=None) -> None:
        trace.session_id = session_id
        trace.records = len(pcs) if pcs is not None else 0
        future = self._enqueue(conn, frame.type, trace, encode)
        item = WorkItem(session_id=session_id, future=future, run=run,
                        pcs=pcs if pcs is not None else [],
                        values=values if values is not None else [],
                        trace=trace)
        await self.batcher.submit(item)

    def _enqueue(self, conn, frame_type: int, trace: RequestTrace,
                 encode) -> asyncio.Future:
        """Queue a response slot, ending the request's ``decode``;
        returns the future its result goes on."""
        future = asyncio.get_running_loop().create_future()
        trace.mark("decode", time.monotonic())
        conn.responses.put_nowait(_Response(future, trace, frame_type,
                                            encode))
        return future

    def _refuse(self, conn, trace: RequestTrace, code: int,
                message: str) -> None:
        """Answer the request ERROR without executing anything."""
        self._enqueue(conn, protocol.FrameType.ERROR, trace,
                      None).set_result(Refusal(code, message))

    def _finish_session(self, session_id: int) -> dict:
        session = self.sessions.pop(session_id)
        stats = session.stats()
        opened = self._session_opened_at.pop(session_id, None)
        run = telemetry_run_module.active_run()
        if run is not None:
            emit_span(run, "serve.session", run.next_span_id(), None, 0,
                      time.time() - opened if opened is not None else None,
                      "ok", stats)
        return stats

    def server_stats(self) -> dict:
        """The STATS (session 0) report."""
        return dict(self._counters(),
                    fused_records=self.batcher.fused_records,
                    obs_port=self.obs_port)

    def _counters(self) -> dict:
        """The fields ``/healthz`` and the STATS report share."""
        return {
            "schema": 1,
            "draining": self._stopping,
            "uptime_s": self.uptime_s(),
            "connections_open": len(self._connections),
            "queue_depth": self.batcher.qsize(),
            "batches": self.batcher.batches,
            "requests_batched": self.batcher.items,
            "sessions_open": len(self.sessions) + len(self.spilled),
            "sessions_resident": len(self.sessions),
            "sessions_spilled": len(self.spilled),
            "evictions_total": self.evictions,
            "spill_failures_total": self.spill_failures,
            "reloads_total": self.reloads,
            "snapshots_total": self.snapshots_taken,
            "releases_total": self.releases,
            "state_dir": self.state_dir,
            "records_served": self.records_served,
            "hits_served": self.hits_served,
            "slow_observed": self.request_log.slow.observed,
            "alerts": list(self._alerting),
        }


_DISPATCH = {
    protocol.FrameType.OPEN_SESSION: PredictionServer._dispatch_open,
    protocol.FrameType.PREDICT: PredictionServer._dispatch_predict,
    protocol.FrameType.OUTCOME: PredictionServer._dispatch_outcome,
    protocol.FrameType.STEP: PredictionServer._dispatch_step,
    protocol.FrameType.STEP_BLOCK: PredictionServer._dispatch_step_block,
    protocol.FrameType.FLUSH: PredictionServer._dispatch_flush,
    protocol.FrameType.STATS: PredictionServer._dispatch_stats,
    protocol.FrameType.CLOSE_SESSION: PredictionServer._dispatch_close,
    protocol.FrameType.SNAPSHOT: PredictionServer._dispatch_snapshot,
    protocol.FrameType.ADOPT_SESSION: PredictionServer._dispatch_adopt,
    protocol.FrameType.RELEASE_SESSION: PredictionServer._dispatch_release,
    protocol.FrameType.OPEN_SESSION_AS: PredictionServer._dispatch_open_as,
}


class ServerThread(ServiceThread):
    """A :class:`PredictionServer` on a background thread.

    Blocking API for callers without an event loop (tests, loadgen):

        with ServerThread() as server:
            client = ServeClient("127.0.0.1", server.port)
            ...

    ``stop()`` performs the same graceful drain as the async server
    and stores the final stats in :attr:`final_stats`.
    """

    def __init__(self, **server_kwargs):
        super().__init__(lambda: PredictionServer(**server_kwargs))

    @property
    def server(self) -> Optional[PredictionServer]:
        return self.service
