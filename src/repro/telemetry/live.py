"""Live read path over the process metrics registry.

:mod:`repro.telemetry.export` reads the artifacts a *closed* run wrote
to disk; this module is the complement for a process that is still
running -- the serving observability endpoint scrapes the registry
in place, so ``/metrics`` always shows the current counters rather
than the snapshot of a finished run (rendered as text, or served as
JSON to the cluster router).

Everything here is a read: a scrape never mutates a metric, and the
snapshot is taken synchronously on the caller's thread (the registry
is plain dict arithmetic, so a scrape races at worst into a value one
increment old).
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.registry import registry

__all__ = ["live_snapshot"]


def live_snapshot(prefix: Optional[str] = None) -> dict:
    """The registry's current :meth:`~MetricsRegistry.snapshot`,
    optionally restricted to metric names starting with *prefix*."""
    snapshot = registry().snapshot()
    if prefix is None:
        return snapshot
    return {name: data for name, data in snapshot.items()
            if name.startswith(prefix)}

