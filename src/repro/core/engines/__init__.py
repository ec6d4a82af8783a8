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

Engine selection: an explicit ``engine=`` argument wins, then the
process default installed by :func:`engine_default` (the CLI's
``--engine`` flag), then the ``REPRO_ENGINE`` environment variable,
then ``'auto'`` (batch for supported specs, scalar otherwise).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
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
    "engine_default",
    "resolve_engine_name",
    "run_spec",
    "RESUMABLE_FAMILIES",
    "supports_resume",
    "initial_state",
    "step_block",
    "predict_record",
]

ENGINE_NAMES = ("auto", "scalar", "batch")

_DEFAULT = {"engine": None}


@contextmanager
def engine_default(name: Optional[str]):
    """Install a process-wide default engine (e.g. from ``--engine``)."""
    if name is not None and name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {ENGINE_NAMES}")
    previous = _DEFAULT["engine"]
    _DEFAULT["engine"] = name
    try:
        yield
    finally:
        _DEFAULT["engine"] = previous


def resolve_engine_name(engine: Optional[str] = None) -> str:
    """Explicit argument > installed default > $REPRO_ENGINE > 'auto'."""
    name = engine or _DEFAULT["engine"] or os.environ.get("REPRO_ENGINE") or "auto"
    if name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {ENGINE_NAMES}")
    return name


def run_spec(spec, trace, engine: Optional[str] = None,
             want_state: bool = False) -> EngineResult:
    """Replay *trace* under *spec* with the resolved engine."""
    name = resolve_engine_name(engine)
    if name == "scalar":
        return ScalarEngine().run(spec, trace, want_state)
    # 'batch' and 'auto' both go through BatchEngine, which falls back
    # to the scalar engine (and labels the result accordingly) for
    # families it has no kernel for.
    return BatchEngine().run(spec, trace, want_state)
