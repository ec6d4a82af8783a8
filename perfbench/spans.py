"""In-memory spans recorded by the benchmark around its calls into layers.

A span has a name, a start and end (``time.perf_counter`` seconds), the
id of the span that caused it, and a request id shared by every span of
one request.  Spans are kept in memory and written out once, when the
traced run ends.

A span's *self time* is its duration minus the part of its interval
covered by its children (the union of their intervals, so overlapping
children are not counted twice).

:meth:`Tracer.shim` records spans around a function the program calls
internally -- e.g. the ``step_block`` that ``Session.step_block`` calls --
by rebinding the name in the calling module's namespace for the
duration of a ``with`` block.  No file of the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted((max(start, s), min(end, e)) for s, e in intervals)
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """*span*'s duration minus the time its *children* cover."""
    return span.duration - covered(span.start, span.end,
                                   ((c.start, c.end) for c in children))


class Tracer:
    """Collects spans of one traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stack: List[Span] = []

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, request: Optional[int] = None,
               **attrs) -> Span:
        """Add a span measured by the caller (the asyncio paths)."""
        span = Span(next(self._ids), name, start, end, parent, request,
                    attrs)
        self.spans.append(span)
        return span

    def adopt(self, records: Iterable[dict]) -> List[Span]:
        """Add spans recorded by another process, re-numbered."""
        records = list(records)
        ids = {record["span_id"]: next(self._ids) for record in records}
        adopted = [Span(ids[r["span_id"]], r["name"], r["start"], r["end"],
                        ids.get(r["parent"]), r["request"], r["attrs"])
                   for r in records]
        self.spans.extend(adopted)
        return adopted

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None,
             **attrs) -> Iterator[Span]:
        """Time the body as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.span_id if parent else None, request, attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    @contextlib.contextmanager
    def shim(self, module, attr: str, name: str):
        """Record a span around every call of ``module.attr``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def self_times(self) -> Dict[int, float]:
        kids = self.children()
        return {span.span_id: self_time(span, kids.get(span.span_id, ()))
                for span in self.spans}

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span), sort_keys=True)
                             + "\n")
