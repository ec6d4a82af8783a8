"""Harness configuration: trace lengths and the benchmark suite.

The paper simulates 122-157M predictions per benchmark; pure-Python
simulation makes that impractical, so the default is 100k predictions
per benchmark, overridable through the ``REPRO_TRACE_LEN`` environment
variable (the shape-level results are stable from a few tens of
thousands of predictions up).
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.trace.cache import cached_trace
from repro.trace.trace import ValueTrace
from repro.workloads.registry import SPEC_NAMES

__all__ = ["default_trace_length", "suite_traces", "single_trace"]


def default_trace_length() -> int:
    """Predictions captured per benchmark (REPRO_TRACE_LEN, default 100k)."""
    env = os.environ.get("REPRO_TRACE_LEN")
    if env:
        length = int(env)
        if length <= 0:
            raise ValueError(f"REPRO_TRACE_LEN must be positive, got {length}")
        return length
    return 100_000


def suite_traces(limit: Optional[int] = None) -> List[ValueTrace]:
    """The eight SPEC-mini traces, in Table 1 order (cached on disk;
    the loads count in :func:`repro.trace.stats.cache_stats`)."""
    length = limit if limit is not None else default_trace_length()
    return [cached_trace(name, length) for name in SPEC_NAMES]


def single_trace(name: str, limit: Optional[int] = None) -> ValueTrace:
    """One benchmark's trace at the configured length."""
    length = limit if limit is not None else default_trace_length()
    return cached_trace(name, length)
