"""Tracing spans: nested wall-time scopes emitted to the run's sink.

A span is a context manager marking one unit of work -- ``capture``,
``experiment``, a per-trace measurement, one sweep point.  Spans nest
through a process-level stack: each span records its parent's id and
its depth, so the JSONL event log reconstructs the tree without any
global clock coordination.

The zero-overhead contract: :func:`span` returns the shared
:data:`NOOP_SPAN` singleton whenever no telemetry run is active --
no allocation, no timestamp, no stack traffic.  Instrumentation sites
may therefore call it unconditionally.

Span events are emitted on *exit* (one line per span, with duration),
so a crash mid-span loses only the open spans, and readers never see
half-open records.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.telemetry import run as _run

__all__ = ["Span", "NoopSpan", "NOOP_SPAN", "span", "current_span",
           "emit_span"]

#: Open spans, innermost last (one process == one measurement thread).
_STACK: List["Span"] = []


class NoopSpan:
    """Shared do-nothing span for disabled telemetry; see :func:`span`."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        """Discard the attribute (telemetry is off)."""


#: The singleton every disabled :func:`span` call returns.
NOOP_SPAN = NoopSpan()


class Span:
    """One live tracing span; use via ``with span(...) as sp:``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth",
                 "_start", "duration_s", "status")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.depth = 0
        self._start = 0.0
        self.duration_s: Optional[float] = None
        self.status = "ok"

    def __enter__(self) -> "Span":
        run = _run.active_run()
        if run is not None:
            self.span_id = run.next_span_id()
        if _STACK:
            parent = _STACK[-1]
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        _STACK.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._start
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        if _STACK and _STACK[-1] is self:
            _STACK.pop()
        else:  # pragma: no cover - defensive against misuse
            try:
                _STACK.remove(self)
            except ValueError:
                pass
        run = _run.active_run()
        if run is not None:
            emit_span(run, self.name, self.span_id, self.parent_id,
                      self.depth, self.duration_s, self.status, self.attrs)
        return False

    def set(self, key: str, value) -> None:
        """Attach or overwrite one attribute on the span."""
        self.attrs[key] = value


def emit_span(run, name: str, span_id: Optional[str],
              parent_id: Optional[str], depth: int,
              duration_s: Optional[float], status: str,
              attrs: dict) -> None:
    """Write one span event to *run*: the one shape of every span
    event, offline scopes and served requests and sessions alike."""
    run.emit({
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "depth": depth,
        "duration_s": (round(duration_s, 6) if duration_s is not None
                       else None),
        "status": status,
        "attrs": attrs,
    })


def span(name: str, **attrs):
    """A new span when a telemetry run is active, else the no-op
    singleton.  Always usable as ``with span("name", k=v) as sp:``."""
    if _run.active_run() is None:
        return NOOP_SPAN
    return Span(name, attrs)


def current_span():
    """The innermost open span, or None (noop spans never appear)."""
    return _STACK[-1] if _STACK else None
