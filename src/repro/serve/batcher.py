"""Cross-connection micro-batching for one server.

A server owns one :class:`MicroBatcher`: a bounded asyncio queue of
:class:`WorkItem` requests feeding its one worker task.  Batching is
*batch-while-busy*: the worker takes the next micro-batch the moment
it is free -- the first item together with whatever is already queued,
i.e. what arrived while the previous batch executed, capped at
:data:`MAX_BATCH` items -- and executes it against the server's sessions.
A request to an idle server therefore runs at once, and batches grow
(and fuse) only when the worker has a backlog.

Within a batch, runs of STEP / STEP_BLOCK items for the *same* session
are fused into a single :meth:`~repro.serve.session.Session.step_block`
call, so records arriving on different connections share one pass
through the vectorised kernels.  Per-session FIFO order is preserved:
items are grouped by session but executed in arrival order within each
session, and non-fusible items (PREDICT, OUTCOME, FLUSH, ...) act as
fences in that session's stream.

Backpressure is the queue bound: ``submit`` awaits when the worker is
``queue_depth`` items behind, which stalls the submitting connection's
reader (and, through TCP, the client) instead of buffering unboundedly.

Results travel back through per-item futures.  The worker never lets a
session's exception kill it: it lands on the item's future and the
batch continues.  A future may already be done when its item
executes -- the connection's deadline answered it TIMEOUT -- and the
item still executes; only its result is dropped.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serve.tracing import RequestTrace

__all__ = ["WorkItem", "MicroBatcher", "MAX_BATCH"]

_MASK32 = 0xFFFFFFFF

#: Most items one micro-batch takes off the queue.
MAX_BATCH = 64


@dataclass
class WorkItem:
    """One queued request: which session, what to run, where to answer.

    A STEP / STEP_BLOCK item carries its records in ``pcs``/``values``
    (int64 arrays on the zero-copy server path, though plain lists
    still work) and no ``run``; adjacent such items (per session) are
    merged into one kernel call.  Every other item has a ``run`` that
    executes it.
    ``trace``, when present, is marked as the item leaves the queue
    (``queue``), as its kernel call starts (``fuse``) and as it ends
    (``execute``), so the request's span breakdown survives batching
    and fusion.
    """

    session_id: int
    future: asyncio.Future
    run: Optional[Callable] = None
    pcs: "np.ndarray | List[int]" = field(default_factory=list)
    values: "np.ndarray | List[int]" = field(default_factory=list)
    trace: Optional[RequestTrace] = None


class MicroBatcher:
    """Bounded queue + batch-draining worker for one server."""

    def __init__(self, queue_depth: int = 1024):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        self.batches = 0
        self.items = 0
        self.fused_records = 0
        # Optional server hook: called as on_records(session_id, n, hits)
        # after every fused STEP/STEP_BLOCK execution.
        self.on_records: Optional[Callable[[int, int, int], None]] = None

    # ------------------------------------------------------------ intake

    def qsize(self) -> int:
        return self._queue.qsize()

    async def submit(self, item: WorkItem) -> None:
        """Enqueue; awaits (backpressure) when the worker is behind."""
        await self._queue.put(item)

    # ------------------------------------------------------------- drain

    async def next_batch(self) -> List[WorkItem]:
        """Block for the next micro-batch.

        Waits only for the first item, then returns it together with
        everything already queued behind it, up to :data:`MAX_BATCH`
        items.
        """
        batch = [await self._queue.get()]
        while len(batch) < MAX_BATCH and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        now = time.monotonic()
        for item in batch:
            if item.trace is not None:
                item.trace.mark("queue", now)
        self.batches += 1
        self.items += len(batch)
        return batch

    def execute(self, batch: List[WorkItem], sessions) -> None:
        """Run a micro-batch against *sessions*, resolving every future.

        *sessions* is either a plain ``{session_id: Session}`` dict or
        a resolver callable ``session_id -> Session | None`` -- the
        server passes a resolver that transparently reloads spilled
        sessions from the arena store, so an evicted session's next
        request looks exactly like a resident one.  A resolver
        exception (corrupt arena, state-version mismatch) lands on that
        session's futures and the rest of the batch proceeds: resolver
        failures must reach the client as ERROR responses, never kill
        the worker.

        Synchronous on purpose: one batch is one scheduling unit of the
        worker, and nothing inside it awaits.
        """
        resolve = sessions.get if hasattr(sessions, "get") else sessions
        for session_id, items in self._by_session(batch).items():
            try:
                session = resolve(session_id)
            except Exception as exc:  # noqa: BLE001 - must reach the client
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            for fused in self._fuse_runs(items):
                self._execute_fused(fused, session)

    @staticmethod
    def _by_session(batch: List[WorkItem]) -> Dict[int, List[WorkItem]]:
        grouped: Dict[int, List[WorkItem]] = {}
        for item in batch:
            grouped.setdefault(item.session_id, []).append(item)
        return grouped

    @staticmethod
    def _fuse_runs(items: List[WorkItem]) -> List[List[WorkItem]]:
        """Split one session's FIFO stream into maximal fusible runs."""
        runs: List[List[WorkItem]] = []
        for item in items:
            if runs and item.run is None and runs[-1][0].run is None:
                runs[-1].append(item)
            else:
                runs.append([item])
        return runs

    def _execute_fused(self, fused: List[WorkItem], session) -> None:
        traces = [item.trace for item in fused if item.trace is not None]
        start = time.monotonic()
        for trace in traces:
            trace.mark("fuse", start)
            trace.batch_size = len(fused)
            trace.fused = len(fused) > 1
        try:
            if fused[0].run is not None:
                item = fused[0]
                result = item.run(session)
                if not item.future.done():
                    item.future.set_result(result)
                return
            if len(fused) == 1:
                pcs = np.asarray(fused[0].pcs, dtype=np.int64)
                values = np.asarray(fused[0].values, dtype=np.int64)
            else:
                pcs = np.concatenate(
                    [np.asarray(item.pcs, dtype=np.int64) for item in fused])
                values = np.concatenate(
                    [np.asarray(item.values, dtype=np.int64)
                     for item in fused])
            if session is None:
                raise KeyError(fused[0].session_id)
            predicted, _ = session.step_block(pcs, values)
            predicted = np.asarray(predicted, dtype=np.int64)
            matches = predicted == (values & _MASK32)
            if len(fused) > 1:
                self.fused_records += len(pcs)
            offset = 0
            for item in fused:
                part = predicted[offset:offset + len(item.pcs)]
                hits = int(np.count_nonzero(
                    matches[offset:offset + len(item.pcs)]))
                offset += len(item.pcs)
                if self.on_records is not None:
                    self.on_records(item.session_id, len(item.pcs), hits)
                if not item.future.done():
                    item.future.set_result((part, hits))
        except Exception as exc:  # noqa: BLE001 - must reach the client
            for item in fused:
                if not item.future.done():
                    item.future.set_exception(exc)
        finally:
            end = time.monotonic()
            for trace in traces:
                trace.mark("execute", end)

    async def drain(self) -> int:
        """Wait until every queued item has been picked up by the
        worker; returns how many were still queued when called."""
        pending = self._queue.qsize()
        await self._queue.join()
        return pending

    def task_done(self, count: int) -> None:
        for _ in range(count):
            self._queue.task_done()
