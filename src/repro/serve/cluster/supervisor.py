"""Worker-process lifecycle for the serve cluster.

:class:`ClusterSupervisor` forks N :class:`~repro.serve.server
.PredictionServer` processes (``multiprocessing`` *spawn* context --
safe under threaded parents and identical to what a k8s pod exec does)
and tracks each through a :class:`WorkerHandle`.  Every worker:

- binds an ephemeral data port and an ephemeral observability port,
  reported back through a pipe before the supervisor's ``start``
  returns;
- runs with ``adopt_arenas=False`` against the shared state
  directory -- ownership of arenas is dictated by the router with
  ADOPT_SESSION frames, never grabbed at startup (two workers racing
  to adopt the same arena would double-serve a session);
- drains gracefully on SIGTERM exactly like ``repro serve`` (all
  accepted frames answered, spillable sessions checkpointed to their
  arenas), then ships its final stats, telemetry events and metrics
  snapshot back through the pipe.

A worker buffers telemetry events (one ``serve.request`` span per
request, for its whole life) only when the supervisor is recording a
run as it spawns that worker; otherwise it buffers none, since nothing
would receive them.  The supervisor stitches each drained worker's
telemetry into the parent process exactly the way the sweep executor
stitches cell workers (:func:`repro.harness.executor
.forward_worker_events` + ``registry().merge_snapshot``), so one
telemetry run and one ``/metrics`` registry cover the whole fleet.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["ClusterSupervisor", "WorkerHandle"]

#: Fields a worker process accepts; anything else in ``worker_kwargs``
#: is rejected up front (a typo'd knob must not silently vanish into
#: a child process).
_WORKER_KWARGS = frozenset({
    "host", "queue_depth", "request_timeout", "state_dir",
    "max_resident",
})

#: Seconds a worker may take to report ``listening``.
_START_TIMEOUT_S = 90.0

#: Seconds a worker that failed to start, or whose slot is refilled,
#: may take to exit before it is killed.
_KILL_AFTER_S = 5.0


@dataclass
class WorkerHandle:
    """One worker process the supervisor is (or was) responsible for."""

    index: int
    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    pid: int = 0
    port: int = 0
    obs_port: int = 0
    started_at: float = 0.0
    #: True once the supervisor deliberately asked it to stop: a
    #: fleet being stopped is not restarted.
    requested_stop: bool = False
    #: The drained worker's final stats dict, once collected.
    final: Optional[dict] = None
    collected: bool = False
    restarts: int = field(default=0)
    #: Held while a thread collects the worker: one reader per pipe.
    collecting: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode


def _worker_main(index: int, kwargs: dict, conn, collect: bool) -> None:
    """Child-process entry point (module-level so it spawns).

    Builds the server, reports its ports, serves until SIGTERM/SIGINT,
    then drains and ships ``(stats, events, metrics)`` home.  Events
    are collected only with *collect* (the parent is recording a run).
    """
    import asyncio
    import contextlib

    from repro.telemetry.registry import registry
    from repro.telemetry.run import collecting_run, detach_run

    # A fork-context child inherits the parent's active run handle;
    # drop it so this process's events go only through the collector.
    detach_run()
    registry().reset()
    with (collecting_run(f"cluster-worker-{index}") if collect
          else contextlib.nullcontext()) as collector:
        stats = asyncio.run(_worker_async(index, kwargs, conn))
    try:
        conn.send({"event": "drained", "worker": index, "stats": stats,
                   "events": collector.events if collect else [],
                   "metrics": registry().snapshot()})
    except (BrokenPipeError, OSError):
        pass
    conn.close()


async def _worker_async(index: int, kwargs: dict, conn) -> dict:
    from repro.serve.server import PredictionServer
    from repro.serve.service import serve_until_signalled

    def announce(server) -> None:
        conn.send({"event": "listening", "worker": index,
                   "pid": os.getpid(), "port": server.port,
                   "obs_port": server.obs_port})

    return await serve_until_signalled(
        PredictionServer(port=0, obs_port=0, adopt_arenas=False, **kwargs),
        announce)


class ClusterSupervisor:
    """Spawn, watch, drain and account for N serve workers."""

    def __init__(self, workers: int, **worker_kwargs):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        unknown = set(worker_kwargs) - _WORKER_KWARGS
        if unknown:
            raise TypeError(
                f"unknown worker kwargs: {sorted(unknown)} "
                f"(accepted: {sorted(_WORKER_KWARGS)})")
        self.n_workers = workers
        self.worker_kwargs = dict(worker_kwargs)
        self._ctx = multiprocessing.get_context("spawn")
        self.handles: Dict[int, WorkerHandle] = {}
        #: Drained workers' final stats, in collection order.
        self.finals: List[dict] = []

    # ------------------------------------------------------------ start

    def start(self) -> "ClusterSupervisor":
        """Spawn every worker, then wait for all of them to listen."""
        for index in range(self.n_workers):
            self._spawn(index)
        deadline = time.monotonic() + _START_TIMEOUT_S
        for handle in self.handles.values():
            self._await_listening(handle, deadline)
        return self

    def _spawn(self, index: int) -> WorkerHandle:
        from repro.telemetry.run import enabled
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.worker_kwargs, child_conn, enabled()),
            name=f"repro-serve-worker-{index}", daemon=True)
        restarts = (self.handles[index].restarts + 1
                    if index in self.handles else 0)
        process.start()
        child_conn.close()
        handle = WorkerHandle(index=index, process=process,
                              conn=parent_conn,
                              started_at=time.time(),
                              restarts=restarts)
        self.handles[index] = handle
        return handle

    def _await_listening(self, handle: WorkerHandle, deadline: float,
                         fatal: bool = True) -> None:
        """Wait for one worker's ``listening`` report.  With *fatal*
        (initial startup) a failure tears the whole fleet down; a
        replacement worker failing (``fatal=False``) only kills
        itself -- the rest of the fleet keeps serving."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.conn.poll(remaining):
                if fatal:
                    self.stop()
                else:
                    self._signal(handle)
                    self.collect(handle, _KILL_AFTER_S)
                raise RuntimeError(
                    f"worker {handle.index} did not report listening "
                    f"within {_START_TIMEOUT_S:g}s "
                    f"(exitcode={handle.exitcode})")
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                exitcode = handle.exitcode
                if fatal:
                    self.stop()
                else:
                    self.collect(handle, _KILL_AFTER_S)
                raise RuntimeError(
                    f"worker {handle.index} died during startup "
                    f"(exitcode={exitcode})") from None
            if message.get("event") == "listening":
                handle.pid = message["pid"]
                handle.port = message["port"]
                handle.obs_port = message["obs_port"]
                return

    def restart_worker(self, index: int) -> WorkerHandle:
        """Spawn a replacement into a dead worker's slot (same ring
        key, so its old sessions rendezvous straight back to it)."""
        old = self.handles.get(index)
        if old is not None and old.alive:
            raise RuntimeError(f"worker {index} is still alive")
        if old is not None:
            self.collect(old, _KILL_AFTER_S)
        handle = self._spawn(index)
        self._await_listening(
            handle, time.monotonic() + _START_TIMEOUT_S, fatal=False)
        return handle

    # ------------------------------------------------------------- stop

    def stop(self, timeout: float = 60.0) -> List[dict]:
        """SIGTERM the whole fleet (in parallel), collect every drain."""
        live = [h for h in self.handles.values() if not h.collected]
        for handle in live:
            handle.requested_stop = True
            self._signal(handle)
        stats = []
        for handle in live:
            final = self.collect(handle, timeout)
            if final is not None:
                stats.append(final)
        return stats

    # ---------------------------------------------------------- plumbing

    def _signal(self, handle: WorkerHandle) -> None:
        if handle.alive:
            try:
                os.kill(handle.process.pid, signal.SIGTERM)
            except (ProcessLookupError, OSError):
                pass

    def collect(self, handle: WorkerHandle,
                timeout: float) -> Optional[dict]:
        """Read the pipe until the worker exits (so a large drained
        message never deadlocks the child in ``send``), then record
        the final stats and stitch the worker's telemetry into this
        process.  A worker still alive once *timeout* has passed is
        killed (SIGKILL): a worker treats SIGTERM as one more drain
        request, so only a kill ends one whose drain is stuck.  Returns
        or raises only once the worker is gone.  Idempotent, and safe
        from any thread: a second caller waits for the first one's
        result."""
        with handle.collecting:
            if handle.collected:
                return handle.final
            deadline = time.monotonic() + timeout
            message = None
            try:
                while True:
                    if handle.conn.poll(0.05 if handle.alive else 0):
                        received = handle.conn.recv()
                        if received.get("event") == "drained":
                            message = received
                        continue
                    if not handle.alive or time.monotonic() > deadline:
                        break
            except (EOFError, OSError):
                pass
            finally:
                handle.process.join(max(0.1, deadline - time.monotonic()))
                if handle.alive:
                    handle.process.kill()
                    handle.process.join(5)
                handle.collected = True
                handle.conn.close()
            if message is None:
                return None
            handle.final = message.get("stats")
            if handle.final is not None:
                self.finals.append(handle.final)
            events = message.get("events") or []
            if events:
                from repro.harness.executor import forward_worker_events
                forward_worker_events(handle.index, events)
            metrics = message.get("metrics")
            if metrics:
                from repro.telemetry.registry import registry
                registry().merge_snapshot(metrics)
            return handle.final

    # ---------------------------------------------------------- reports

    def describe(self) -> List[dict]:
        return [
            {"worker": h.index, "pid": h.pid, "port": h.port,
             "obs_port": h.obs_port, "alive": h.alive,
             "exitcode": h.exitcode, "restarts": h.restarts,
             "requested_stop": h.requested_stop,
             "uptime_s": (round(time.time() - h.started_at, 3)
                          if h.alive else 0.0)}
            for h in sorted(self.handles.values(),
                            key=lambda h: h.index)
        ]

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
