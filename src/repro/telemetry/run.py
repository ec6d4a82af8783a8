"""Run-scoped telemetry: the event sink, the manifest, run lifecycle.

A *run* is one observed unit of work -- a ``repro run``/``predict``/
``compare`` invocation, or any block a caller wraps in
:func:`telemetry_run`.  Starting a run creates a fresh directory
``<root>/<run_id>/`` holding:

``manifest.json``
    Reproducibility header: run id, start/finish timestamps, git SHA,
    python/platform, the command and argv, and the harness config
    (``REPRO_TRACE_LEN``, ``REPRO_TRACE_CACHE``, workload limits).
``events.jsonl``
    One JSON object per line: ``run_start``, closed ``span`` records
    (with nesting ids), domain ``probe`` samples, ``run_end``.
``metrics.json``
    The registry snapshot at close, plus the delta against the
    snapshot taken at start (the run's own contribution).

Exactly one run can be active per process; while none is,
:func:`enabled` is False and every instrumentation site takes its
zero-cost path (no-op spans, probes skipped, nothing written).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from repro.telemetry.registry import registry

__all__ = ["TelemetryRun", "CollectorRun", "start_run", "finish_run",
           "active_run", "enabled", "telemetry_run", "detach_run",
           "collecting_run", "git_sha"]

_ACTIVE_RUN: Optional["TelemetryRun"] = None
_RUN_SEQ = 0


def git_sha() -> Optional[str]:
    """The checked-out commit of this source tree, or None outside a
    git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _harness_config() -> dict:
    from repro.harness.config import default_trace_length
    try:
        trace_len = default_trace_length()
    except ValueError:
        trace_len = None
    return {
        "trace_length": trace_len,
        "REPRO_TRACE_LEN": os.environ.get("REPRO_TRACE_LEN"),
        "REPRO_TRACE_CACHE": os.environ.get("REPRO_TRACE_CACHE"),
    }


class TelemetryRun:
    """One run directory: manifest + JSONL event sink + metrics dump."""

    def __init__(self, root, command: Optional[str] = None,
                 argv: Optional[list] = None,
                 extra: Optional[dict] = None):
        global _RUN_SEQ
        _RUN_SEQ += 1
        self.root = Path(root)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        self.run_id = f"run-{stamp}-p{os.getpid()}-{_RUN_SEQ}"
        self.dir = self.root / self.run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.started_at = time.time()
        self._start_perf = time.perf_counter()
        self._span_seq = 0
        self._event_count = 0
        self._once = set()
        self._start_snapshot = registry().snapshot()
        self.manifest = {
            "schema": 1,
            "run_id": self.run_id,
            "started_at": _iso(self.started_at),
            "started_unix": round(self.started_at, 6),
            "command": command,
            "argv": list(argv) if argv is not None else None,
            "git_sha": git_sha(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "config": _harness_config(),
        }
        if extra:
            self.manifest.update(extra)
        self._write_manifest()
        self._events = open(self.dir / "events.jsonl", "w", encoding="utf-8")
        self.emit({"type": "run_start", "run_id": self.run_id})

    # ------------------------------------------------------------- sink

    def emit(self, event: dict) -> None:
        """Append one event line; a ``ts`` (seconds since run start) is
        stamped on, the caller supplies everything else."""
        if self._events.closed:
            return
        event = dict(event)
        event.setdefault("ts", round(time.perf_counter() - self._start_perf,
                                     6))
        self._events.write(json.dumps(event, sort_keys=True,
                                      default=str) + "\n")
        self._event_count += 1

    def next_span_id(self) -> str:
        self._span_seq += 1
        return f"s{self._span_seq}"

    def once(self, key) -> bool:
        """True the first time *key* is seen this run (dedup helper for
        probes that would otherwise recompute identical samples)."""
        if key in self._once:
            return False
        self._once.add(key)
        return True

    # -------------------------------------------------------- lifecycle

    def close(self, status: str = "ok") -> None:
        if self._events.closed:
            return
        self.emit({"type": "run_end", "run_id": self.run_id,
                   "status": status})
        self._events.close()
        snapshot = registry().snapshot()
        metrics = {
            "run_id": self.run_id,
            "metrics": snapshot,
            "delta": _snapshot_delta(self._start_snapshot, snapshot),
        }
        (self.dir / "metrics.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        finished = time.time()
        self.manifest.update({
            "finished_at": _iso(finished),
            "duration_s": round(time.perf_counter() - self._start_perf, 6),
            "status": status,
            "events": self._event_count,
            "spans": self._span_seq,
        })
        self._write_manifest()

    def _write_manifest(self) -> None:
        (self.dir / "manifest.json").write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")


def _iso(timestamp: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(timestamp))


def _snapshot_delta(before: dict, after: dict) -> dict:
    """Per-sample difference of two registry snapshots (counters and
    gauges subtract; histograms and brand-new metrics pass through)."""
    delta = {}
    for name, data in after.items():
        prior = before.get(name)
        if prior is None or data["kind"] == "histogram":
            delta[name] = data
            continue
        prior_values = {json.dumps(s["labels"], sort_keys=True): s["value"]
                        for s in prior["samples"]}
        samples = []
        for sample in data["samples"]:
            key = json.dumps(sample["labels"], sort_keys=True)
            value = sample["value"] - prior_values.get(key, 0)
            if value:
                samples.append({"labels": sample["labels"], "value": value})
        if samples:
            delta[name] = dict(data, samples=samples)
    return delta


class CollectorRun:
    """In-memory event sink for worker processes.

    Quacks like :class:`TelemetryRun` for the instrumentation sites
    (``emit`` / ``next_span_id`` / ``once``) but buffers events in a
    list instead of writing a run directory, and stamps no ``ts`` --
    the parent process merges the buffer into its own file-backed run
    (see :mod:`repro.harness.executor`), where arrival is timestamped
    on the parent's clock.
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id or f"collector-p{os.getpid()}"
        self.events: list = []
        self._span_seq = 0
        self._once = set()

    def emit(self, event: dict) -> None:
        self.events.append(dict(event))

    def next_span_id(self) -> str:
        self._span_seq += 1
        return f"s{self._span_seq}"

    def once(self, key) -> bool:
        if key in self._once:
            return False
        self._once.add(key)
        return True


# ---------------------------------------------------------------- globals

def active_run() -> Optional[TelemetryRun]:
    """The run currently receiving events, or None."""
    return _ACTIVE_RUN


def enabled() -> bool:
    """True when a telemetry run is active (instrumentation is live)."""
    return _ACTIVE_RUN is not None


def start_run(root, command: Optional[str] = None,
              argv: Optional[list] = None,
              extra: Optional[dict] = None) -> TelemetryRun:
    """Open a run under *root* and make it the process's active run."""
    global _ACTIVE_RUN
    if _ACTIVE_RUN is not None:
        raise RuntimeError(
            f"telemetry run {_ACTIVE_RUN.run_id} is already active")
    _ACTIVE_RUN = TelemetryRun(root, command=command, argv=argv, extra=extra)
    return _ACTIVE_RUN


def finish_run(status: str = "ok") -> Optional[TelemetryRun]:
    """Close the active run (no-op when none is); returns it."""
    global _ACTIVE_RUN
    run = _ACTIVE_RUN
    _ACTIVE_RUN = None
    if run is not None:
        run.close(status=status)
    return run


def detach_run() -> None:
    """Forget the active run *without* closing it.

    For forked worker processes: the child inherits the parent's
    active run, including the open (buffered) event file -- closing or
    flushing it in the child would write the parent's buffered lines a
    second time.  Workers call this first, then install their own
    :class:`CollectorRun`.  Also clears any fork-inherited open-span
    stack so worker spans start as roots.
    """
    global _ACTIVE_RUN
    _ACTIVE_RUN = None
    from repro.telemetry import spans
    spans._STACK.clear()


@contextmanager
def collecting_run(run_id: Optional[str] = None):
    """Install a :class:`CollectorRun` as the active run; yield it."""
    global _ACTIVE_RUN
    if _ACTIVE_RUN is not None:
        raise RuntimeError(
            f"telemetry run {_ACTIVE_RUN.run_id} is already active")
    collector = CollectorRun(run_id)
    _ACTIVE_RUN = collector
    try:
        yield collector
    finally:
        _ACTIVE_RUN = None


@contextmanager
def telemetry_run(root, command: Optional[str] = None,
                  argv: Optional[list] = None,
                  extra: Optional[dict] = None):
    """Context manager: start a run, yield it, close it (status
    ``error`` if the block raises)."""
    run = start_run(root, command=command, argv=argv, extra=extra)
    try:
        yield run
    except BaseException:
        finish_run(status="error")
        raise
    finish_run()
