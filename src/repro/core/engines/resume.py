"""Resumable batch stepping: the batch kernels, warm-started.

The whole-trace kernels in :mod:`repro.core.engines.batch` assume
cold (all-zero) tables.  An online service cannot: a session's tables
are live between requests.  This module runs the *same* kernels from an
explicit table state -- the canonical
:meth:`~repro.core.spec.PredictorSpec.extract_state` dict of int64
arrays -- advances that state in place, and returns the per-record
predictions together with it:

    state = initial_state(spec)
    predicted, state = step_block(spec, state, pcs, values)

``step_block(spec, initial_state(spec), pcs, values)`` over one whole
trace is bit-identical to the cold-start batch replay (and therefore to
the scalar reference loop); chunking the trace arbitrarily and
threading the state through produces the same predictions and the same
final tables.  ``tests/engines/test_resume.py`` enforces both.

Warm starts ride on two observations:

- every *last-value read* (LVP tables, DFCM last values, FCM/DFCM
  level-2 reads) becomes a prev-in-group with the group's first record
  reading the stored table entry instead of zero;
- the FS hash state's initial contribution ``s0 << ((rank+1) * shift)``
  shifts out of the index after the same fixed window that makes the
  cold-start recurrence telescope, so warm hash states cost one extra
  vector term.

Supported families: last_value, stride, stride2d, fcm, dfcm (the
latter two with the paper's FS hash, same restriction as
:meth:`BatchEngine.supports`).  Hybrids, meta predictors and delayed
wrappers keep their stateful scalar objects in the serving layer.

A block touches one entry per record and level, so ``step_block``
costs what the block touches, not what the tables hold: it reads the
touched entries first, then scatters each one's last write into the
tables of *state* in place (``table[keys] = payload``).  An array that
is not writable -- in particular the zero-copy mmap views
:func:`repro.core.state.open_arena` hands out for an arena's dense
entries -- is never written: on its first write it is replaced *in the
dict* by a private copy (copy-on-write).  A session re-seated onto its
arena therefore pays one copy of each dense table on its first block
after a reload, none after, and the arena stays untouched; its sparse
entries decode into fresh writable arrays, which are stepped in place
from the first block on.  Two calls must never share one writable
state.

:func:`predict_record` is the read-only pass: the same kernel over one
record with the write-back skipped, so it reads the entries that record
touches and writes nothing -- neither *state* nor a copy of it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.engines.batch import _KERNELS, _KernelContext, _ReadOnly

__all__ = ["RESUMABLE_FAMILIES", "NON_RESUMABLE_FAMILIES",
           "supports_resume", "initial_state", "step_block",
           "predict_record"]

#: Families whose batch kernel accepts a warm-start state.
RESUMABLE_FAMILIES = ("last_value", "stride", "stride2d", "fcm", "dfcm")

#: Families that deliberately stay on stateful scalar objects in the
#: serving layer (composite or measurement-only predictors with no
#: canonical table snapshot).  Every registered spec family must appear
#: in exactly one of these two tuples -- ``tests/engines/test_resume.py``
#: asserts the partition against the full spec registry, so a newly
#: added family cannot silently fall into the slow non-resumable path.
NON_RESUMABLE_FAMILIES = ("last_n", "oracle_hybrid", "meta_hybrid",
                          "delayed")

State = Dict[str, np.ndarray]


def supports_resume(spec) -> bool:
    """True when *spec* can be stepped through the warm-start kernels."""
    family = spec.family
    if family not in RESUMABLE_FAMILIES:
        return False
    if family in ("fcm", "dfcm"):
        return spec.hash.kind == "fs"
    return True


def _require_resumable(spec) -> None:
    if not supports_resume(spec):
        raise ValueError(f"{spec.name}: family {spec.family!r} is not "
                         "resumable")


def initial_state(spec) -> State:
    """The cold (all-zero) table snapshot for *spec*.

    One writable ``np.zeros(entries, int64)`` per declared table
    (:meth:`~repro.core.spec.PredictorSpec.tables`), keyed by table
    name -- no predictor is built.
    ``tests/engines/test_state_contracts.py`` pins it equal, key for
    key, to the canonical
    :meth:`~repro.core.spec.PredictorSpec.extract_state` of a freshly
    built predictor for every resumable family of the spec registry.
    """
    _require_resumable(spec)
    return {table.name: np.zeros(table.entries, dtype=np.int64)
            for table in spec.tables()}


def step_block(spec, state: State, pcs: np.ndarray,
               values: np.ndarray) -> Tuple[np.ndarray, State]:
    """Predict-then-update every ``(pc, value)`` record, warm-started.

    *state* is advanced in place -- its writable tables are written,
    its read-only ones replaced in the dict by updated copies -- and
    returned as the second element of ``(predicted, state)``, where
    ``predicted[i]`` is the prediction issued for record ``i`` with all
    earlier records already trained: exactly the scalar
    ``predict(pc); update(pc, value)`` loop.
    """
    _require_resumable(spec)
    pcs = np.asarray(pcs, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if pcs.shape != values.shape:
        raise ValueError(f"pcs and values lengths differ: "
                         f"{pcs.shape} vs {values.shape}")
    if len(pcs) == 0:
        return np.zeros(0, dtype=np.int64), state
    ctx = _KernelContext(pcs, values)
    predicted, _, _ = _KERNELS[spec.family](spec, ctx, state)
    return predicted, state


def predict_record(spec, state: State, pc: int) -> int:
    """The prediction *state*'s tables give for *pc*, without training.

    One kernel pass over the single record ``(pc, 0)`` with the
    write-back skipped: it reads the entries *pc* touches and writes
    nothing, so a prediction costs the same on any table size.  The
    kernels predict before they train, so this equals
    ``step_block(spec, copy_of_state, [pc], [v])[0][0]`` for any *v*.
    """
    _require_resumable(spec)
    ctx = _KernelContext(np.array([pc], dtype=np.int64),
                         np.zeros(1, dtype=np.int64))
    predicted, _, _ = _KERNELS[spec.family](spec, ctx, _ReadOnly(state))
    return int(predicted[0])
