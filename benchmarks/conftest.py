"""Shared fixtures for the paper-figure benchmarks.

Each benchmark regenerates one table/figure of the paper via the
experiment registry and asserts the paper's *qualitative* claims (who
wins, by roughly what factor, where the trends point).  Trace length
is controlled by ``REPRO_BENCH_TRACE_LEN`` (default 30k predictions per
benchmark -- enough for stable shapes, small enough to keep the whole
bench suite to a few minutes).  ``REPRO_BENCH_JOBS`` sets the worker
count for the whole session -- the figures are executor-invariant, so
it only moves wall time.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.config import suite_traces
from repro.harness.executor import executor_default


def bench_trace_length() -> int:
    return int(os.environ.get("REPRO_BENCH_TRACE_LEN", "30000"))


@pytest.fixture(scope="session", autouse=True)
def _bench_jobs():
    """Session-wide worker count from ``REPRO_BENCH_JOBS``."""
    jobs = os.environ.get("REPRO_BENCH_JOBS")
    with executor_default(jobs=int(jobs) if jobs else None):
        yield


@pytest.fixture(scope="session")
def traces():
    """The eight SPEC-mini traces at bench length (disk-cached)."""
    return suite_traces(bench_trace_length())


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing.

    The experiments are deterministic and expensive; statistical
    repetition would only burn time.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
