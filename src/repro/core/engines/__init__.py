"""Execution engines: how a predictor spec is replayed over a trace.

The spec layer (:mod:`repro.core.spec`) says *what* a predictor is; an
engine says *how* its tables are simulated:

- :class:`~repro.core.engines.scalar.ScalarEngine` builds the classic
  predictor object and drives the per-record loop -- the reference
  semantics, bit-for-bit identical to calling ``step`` yourself.
- :class:`~repro.core.engines.batch.BatchEngine` holds the tables as
  NumPy arrays and replays the whole trace through vectorised kernels
  (grouping records per level-1 entry where the update rule allows it),
  delegating to the scalar engine for families it does not support.

Both return an :class:`EngineResult` with the same correct/total counts
and (on request) the same canonical table-state snapshot; the
equivalence suite in ``tests/engines/`` enforces that.

Engine selection: :func:`run_spec` runs the batch engine, which picks
its kernels or the scalar fallback from the spec; ``engine="scalar"``
pins the reference loop.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engines.batch import BatchEngine
from repro.core.engines.resume import (RESUMABLE_FAMILIES, initial_state,
                                       predict_record, step_block,
                                       supports_resume)
from repro.core.engines.scalar import EngineResult, ScalarEngine, count_correct

__all__ = [
    "EngineResult",
    "ScalarEngine",
    "BatchEngine",
    "count_correct",
    "ENGINE_NAMES",
    "run_spec",
    "RESUMABLE_FAMILIES",
    "supports_resume",
    "initial_state",
    "step_block",
    "predict_record",
]

ENGINE_NAMES = ("scalar", "batch")


def run_spec(spec, trace, engine: Optional[str] = None,
             want_state: bool = False) -> EngineResult:
    """Replay *trace* under *spec*.

    The default (``None`` or ``"batch"``) is :class:`BatchEngine`, which
    falls back to the scalar engine (and labels the result accordingly)
    for families it has no kernel for; ``"scalar"`` pins the reference
    loop.
    """
    if engine == "scalar":
        return ScalarEngine().run(spec, trace, want_state)
    if engine not in (None, "batch"):
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}")
    return BatchEngine().run(spec, trace, want_state)
