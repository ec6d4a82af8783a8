"""Per-session predictor state behind the service.

A :class:`Session` is one live predictor instance, described by a
:class:`~repro.core.spec.PredictorSpec` plus an in-flight *window*
(the delayed-update depth of :mod:`repro.core.delayed`; 0 means tables
train immediately).  Sessions are owned by exactly one server worker,
so they need no locking.

Two execution modes, chosen automatically:

``engine``
    window 0 and :func:`~repro.core.engines.supports_resume` -- the
    session holds the canonical table-state dict and steps it through
    the warm-start batch kernels.  A whole micro-batch of records is
    one vectorised ``step_block`` call.
``scalar``
    everything else -- the session holds a stateful predictor object,
    wrapped in :class:`~repro.core.delayed.DelayedUpdatePredictor` when
    the window is non-zero, so windowed accuracy matches the offline
    harness *by construction*.

Both modes implement the same scalar contract per record: predict
first, then train (through the window when one is configured), which
is exactly what the offline engines replay.  The parity suite in
``tests/serve/`` pins served hit counts against ``measure_accuracy``
on the equivalent (possibly :class:`~repro.core.spec.DelayedSpec`
wrapped) spec.

Split PREDICT/OUTCOME traffic keeps hit accounting honest: each
PREDICT is remembered per pc (FIFO), the next OUTCOME for that pc is
scored against it.  An OUTCOME with no outstanding prediction still
trains the tables and reports :data:`Session.NO_PREDICTION`.

An engine-mode session owns its tables and each block scatters only
the entries it touched into them in place (see
:func:`~repro.core.engines.step_block`), so a 64-record block costs
its kernel, not a rebuild of every table.

Engine-mode sessions are **spillable**: :meth:`Session.snapshot`
serialises the table state plus the session's auxiliary bookkeeping
(outstanding predictions, aliasing counters) into
the array-dict + metadata shape that
:class:`~repro.core.state.ArenaStore` persists, and
:meth:`Session.restore` seats an equivalent session straight onto it,
without building a fresh one first.  Arrays change hands on one rule,
*writable means yours*: restore adopts a writable array as the
session's own table (an arena's sparse entries decode into fresh ones,
so a reload copies nothing), and keeps a read-only one -- an arena's
dense zero-copy mmap view -- read-only, so the first block that writes
it copies it (copy-on-write) and the arena is never written.  The
snapshot in turn hands out read-only views of the live tables, so no
snapshot can become another session's table.  A PREDICT reads the
entries its pc touches through a read-only kernel pass and writes
nothing (:func:`~repro.core.engines.predict_record`).  Scalar-mode
sessions (windowed or composite predictors) have no canonical state
snapshot and stay resident.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.core.delayed import DelayedUpdatePredictor
from repro.core.engines import (initial_state, predict_record,
                                 step_block, supports_resume)
from repro.core.spec import PredictorSpec
from repro.telemetry.tables import level1_entries, table_stats_from_state

__all__ = ["Session"]

_MASK32 = 0xFFFFFFFF


def _read_only(table: np.ndarray) -> np.ndarray:
    """A read-only view of *table*: whoever is handed it cannot adopt
    it, and stepping it copies on write."""
    view = table.view()
    view.flags.writeable = False
    return view


class _AliasTracker:
    """Level-1 write-conflict bookkeeping for one live session.

    Tracks, per pc-indexed level-1 entry, the last pc that trained it;
    a training access whose entry was last written by a *different* pc
    is a conflict.  This is the live-serving counterpart of the
    offline :class:`~repro.telemetry.tables._LevelAudit` alias rate,
    kept deliberately cheap: one carried int64 array plus a vectorised
    pass per micro-batch, no per-record Python on the block path.
    """

    __slots__ = ("mask", "accesses", "conflicts", "_last_writer")

    def __init__(self, entries: int, last_writer=None, accesses: int = 0,
                 conflicts: int = 0):
        self.mask = entries - 1
        self.accesses = accesses
        self.conflicts = conflicts
        # observe_block writes the table in place: a restored table is
        # adopted when it is writable (ours), copied when read-only.
        if last_writer is None:
            last_writer = np.full(entries, -1, dtype=np.int64)
        last_writer = np.asarray(last_writer, dtype=np.int64)
        self._last_writer = (last_writer if last_writer.flags.writeable
                             else last_writer.copy())

    def observe(self, pc: int) -> None:
        key = (pc >> 2) & self.mask
        prev = self._last_writer[key]
        self.accesses += 1
        if prev >= 0 and prev != pc:
            self.conflicts += 1
        self._last_writer[key] = pc

    def observe_block(self, pcs: np.ndarray) -> None:
        n = len(pcs)
        if not n:
            return
        keys = (pcs >> 2) & self.mask
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        ps = pcs[order]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(ks[1:], ks[:-1], out=is_start[1:])
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = ps[:-1]
        prev[is_start] = self._last_writer[ks[is_start]]
        self.accesses += n
        self.conflicts += int(((prev >= 0) & (prev != ps)).sum())
        is_last = np.empty(n, dtype=bool)
        is_last[-1] = True
        is_last[:-1] = is_start[1:]
        self._last_writer[ks[is_last]] = ps[is_last]

    @property
    def ratio(self) -> float:
        return self.conflicts / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        return {
            "accesses": self.accesses,
            "conflicts": self.conflicts,
            "ratio": round(self.ratio, 6),
        }


class Session:
    """One served predictor: spec + window + live tables."""

    #: ``outcome`` result when no issued prediction matched the pc.
    NO_PREDICTION = 2

    def __init__(self, session_id: int, spec: PredictorSpec, window: int = 0):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self._seat(session_id, spec, window)
        l1 = level1_entries(spec)
        self._aliases = _AliasTracker(l1) if l1 else None
        if window == 0 and supports_resume(spec):
            self.mode = "engine"
            self._state = initial_state(spec)
            self._predictor = None
        else:
            self.mode = "scalar"
            self._state = None
            inner = spec.build()
            self._predictor = (DelayedUpdatePredictor(inner, window)
                               if window else inner)

    def _seat(self, session_id: int, spec: PredictorSpec,
              window: int) -> None:
        """Identity and empty bookkeeping, shared by open and restore."""
        self.session_id = session_id
        self.spec = spec
        self.window = window
        self.predictions = 0
        self.outcomes = 0
        self.hits = 0
        self._issued: Dict[int, deque] = {}

    # --------------------------------------------------------------- ops

    def predict(self, pc: int) -> int:
        """Issue (and remember) a prediction for *pc*."""
        if self.mode == "engine":
            # A read-only kernel pass: it reads the entries pc touches
            # and writes (or copies) nothing.
            value = predict_record(self.spec, self._state, pc) & _MASK32
        else:
            value = self._predictor.predict(pc) & _MASK32
        self.predictions += 1
        self._issued.setdefault(pc, deque()).append(value)
        return value

    def outcome(self, pc: int, value: int) -> int:
        """Train on the resolved *value*; score the oldest prediction.

        Returns 1 (hit), 0 (miss), or :data:`NO_PREDICTION` when no
        prediction for this pc is outstanding.
        """
        value &= _MASK32
        queue = self._issued.get(pc)
        if queue:
            predicted = queue.popleft()
            if not queue:
                del self._issued[pc]
            hit = 1 if predicted == value else 0
            self.outcomes += 1
            self.hits += hit
        else:
            hit = self.NO_PREDICTION
        if self._aliases is not None:
            self._aliases.observe(pc)
        if self.mode == "engine":
            # Updates never depend on the prediction, so stepping the
            # live state in place and discarding the predicted column
            # applies exactly the scalar ``update(pc, value)``.
            _, self._state = step_block(
                self.spec, self._state,
                np.asarray([pc], dtype=np.int64),
                np.asarray([value], dtype=np.int64))
        else:
            self._predictor.update(pc, value)
        return hit

    def step(self, pc: int, value: int) -> Tuple[int, int]:
        """Predict-then-train one record; returns ``(predicted, hit)``."""
        predicted, hits = self.step_block([pc], [value])
        return int(predicted[0]), hits

    def step_block(self, pcs, values) -> Tuple[List[int], int]:
        """Predict-then-train a run of records; the micro-batch path.

        Returns the per-record predictions -- an int64 array in engine
        mode, a list in scalar mode; both index and serialise the same
        way -- and the number of hits.  Counts every record as both a
        prediction and an outcome.
        """
        if len(pcs) != len(values):
            raise ValueError(f"pcs and values lengths differ: "
                             f"{len(pcs)} vs {len(values)}")
        if not len(pcs):
            return [], 0
        if self._aliases is not None:
            self._aliases.observe_block(np.asarray(pcs, dtype=np.int64))
        if self.mode == "engine":
            block_pcs = np.asarray(pcs, dtype=np.int64)
            block_values = np.asarray(values, dtype=np.int64) & _MASK32
            predicted, self._state = step_block(
                self.spec, self._state, block_pcs, block_values)
            predicted = (predicted & _MASK32).astype(np.int64)
            hits = int(np.count_nonzero(predicted == block_values))
            out = predicted  # stays an array: no per-record boxing
        else:
            out = []
            hits = 0
            for pc, value in zip(pcs, values):
                value = int(value) & _MASK32
                predicted = self._predictor.predict(int(pc)) & _MASK32
                self._predictor.update(int(pc), value)
                hits += int(predicted == value)
                out.append(predicted)
        self.predictions += len(out)
        self.outcomes += len(out)
        self.hits += hits
        return out, hits

    # -------------------------------------------------------- durability

    @property
    def spillable(self) -> bool:
        """Whether this session can round-trip through an arena.

        Only engine-mode sessions qualify: their whole identity is the
        canonical table-state dict plus a few counters.  Scalar-mode
        sessions hold arbitrary predictor objects (windowed wrappers,
        hybrids) with no state-injection path, so they stay resident.
        """
        return self.mode == "engine"

    def snapshot(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """Serialise this session as ``(arrays, meta)`` for the store.

        *arrays* holds the table state plus auxiliary ``__``-prefixed
        arrays (outstanding PREDICTs in per-pc FIFO order, the aliasing
        tracker's last-writer table); *meta* holds the scalar counters.
        :meth:`restore` inverts it exactly.

        The table and last-writer arrays are read-only views of the
        live tables, which the next step writes in place: persist them
        (``ArenaStore.save``) before this session steps again.  Being
        read-only, they are never adopted by a session restored from
        them.
        """
        if not self.spillable:
            raise ValueError(f"session {self.session_id} "
                             f"({self.spec.name}, window={self.window}) "
                             "is scalar-mode and cannot be snapshotted")
        arrays = {key: _read_only(table)
                  for key, table in self._state.items()}
        issued_pcs: List[int] = []
        issued_values: List[int] = []
        for pc, queue in self._issued.items():
            for value in queue:
                issued_pcs.append(pc)
                issued_values.append(value)
        arrays["__issued_pc"] = np.asarray(issued_pcs, dtype=np.int64)
        arrays["__issued_value"] = np.asarray(issued_values,
                                              dtype=np.int64)
        if self._aliases is not None:
            arrays["__alias_last_writer"] = _read_only(
                self._aliases._last_writer)
        meta = {
            "session_id": self.session_id,
            "spec_name": self.spec.name,
            "window": self.window,
            "predictions": self.predictions,
            "outcomes": self.outcomes,
            "hits": self.hits,
        }
        if self._aliases is not None:
            meta["alias_accesses"] = self._aliases.accesses
            meta["alias_conflicts"] = self._aliases.conflicts
        return arrays, meta

    @classmethod
    def restore(cls, session_id: int, spec: PredictorSpec,
                arrays: Dict[str, np.ndarray],
                meta: dict) -> "Session":
        """Seat a session straight onto a :meth:`snapshot`-shaped payload.

        No fresh session is built first, and no table is copied: the
        tables are the table arrays in *arrays*, on the rule *writable
        means yours*.  A writable array -- an arena's decoded sparse
        entry -- becomes the session's own table, written in place
        from the first block on, so the caller must not keep using
        it.  A read-only one -- an arena's dense mmap view, a
        snapshot's view of a live table -- is never written: the first
        block replaces it by a private copy (copy-on-write).  The
        aliasing tracker's last-writer table follows the same rule.
        """
        window = int(meta.get("window", 0))
        if window != 0 or not supports_resume(spec):
            raise ValueError(f"session {session_id}: {spec.name} with "
                             f"window {window} does not restore from an "
                             "arena")
        session = cls.__new__(cls)
        session._seat(session_id, spec, window)
        session.mode = "engine"
        session._predictor = None
        session._state = {key: np.asarray(value, dtype=np.int64)
                          for key, value in arrays.items()
                          if not key.startswith("__")}
        l1 = level1_entries(spec)
        session._aliases = (
            _AliasTracker(l1, arrays.get("__alias_last_writer"),
                          int(meta.get("alias_accesses", 0)),
                          int(meta.get("alias_conflicts", 0)))
            if l1 else None)
        issued_pcs = arrays.get("__issued_pc")
        issued_values = arrays.get("__issued_value")
        if issued_pcs is not None and issued_values is not None:
            for pc, value in zip(issued_pcs.tolist(),
                                 issued_values.tolist()):
                session._issued.setdefault(pc, deque()).append(value)
        session.predictions = int(meta.get("predictions", 0))
        session.outcomes = int(meta.get("outcomes", 0))
        session.hits = int(meta.get("hits", 0))
        return session

    # ------------------------------------------------------------- admin

    def pending_updates(self) -> int:
        """Buffered (windowed, not yet applied) updates."""
        if isinstance(self._predictor, DelayedUpdatePredictor):
            return self._predictor.pending_updates()
        return 0

    def outstanding_predictions(self) -> int:
        """PREDICTs issued but not yet matched by an OUTCOME."""
        return sum(len(q) for q in self._issued.values())

    def table_state(self) -> Dict[str, np.ndarray]:
        """The live table-state snapshot, whichever mode holds it."""
        if self.mode == "engine":
            return self._state
        inner = (self._predictor.inner
                 if isinstance(self._predictor, DelayedUpdatePredictor)
                 else self._predictor)
        return self.spec.extract_state(inner)

    def table_stats(self) -> dict:
        """Live table-usage statistics for this session: per-table
        liveness from the actual state arrays, served hits per live
        bit, and the level-1 write-conflict (aliasing) counters."""
        stats = table_stats_from_state(self.spec, self.table_state())
        stats["session"] = self.session_id
        stats["spec"] = self.spec.name
        stats["family"] = self.spec.family
        stats["hits"] = self.hits
        stats["efficiency"] = (round(self.hits / stats["live_bits"], 9)
                               if stats["live_bits"] else 0.0)
        stats["aliasing"] = (self._aliases.snapshot()
                             if self._aliases is not None else None)
        return stats

    def stats(self) -> dict:
        return {
            "session": self.session_id,
            "spec": self.spec.name,
            "family": self.spec.family,
            "window": self.window,
            "mode": self.mode,
            "predictions": self.predictions,
            "outcomes": self.outcomes,
            "hits": self.hits,
            "accuracy": (self.hits / self.outcomes) if self.outcomes else None,
            "pending_updates": self.pending_updates(),
            "outstanding_predictions": self.outstanding_predictions(),
        }
