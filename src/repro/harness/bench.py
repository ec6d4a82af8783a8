"""Predictor-engine throughput benchmark (``repro bench``).

Replays a reference family grid over one cached trace with both
engines and reports records/second plus the batch/scalar speedup per
family, a suite-level wall-time comparison for the flagship DFCM
configuration, and a speedup *guard*: in full mode the flagship batch
replay must beat the scalar loop by at least :data:`MIN_SPEEDUP`, or
the bench fails.  Results are written to ``BENCH_predictors.json`` so
CI can archive the numbers next to the figures they protect.

The replay goes straight through :func:`repro.core.engines.run_spec`
with the engine pinned -- no telemetry, no executor -- so the numbers
measure the kernels, not the harness.
"""

from __future__ import annotations

import json
import platform
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.engines import run_spec
from repro.core.spec import (DFCMSpec, FCMSpec, LastValueSpec,
                             OracleHybridSpec, PredictorSpec, StrideSpec,
                             TwoDeltaStrideSpec)
from repro.harness.simulate import measure_suite
from repro.telemetry.run import git_sha
from repro.trace.trace import ValueTrace

__all__ = ["MIN_SPEEDUP", "MAX_REGRESSION_PCT", "bench_specs",
           "resolve_max_regression_pct", "run_bench",
           "render_bench", "write_report", "history_entry",
           "append_history", "read_history", "diff_history",
           "render_history_diff"]

#: Full-mode guard: flagship DFCM batch replay vs the scalar loop.
#: The threshold is recorded in the report's ``guard`` block.
MIN_SPEEDUP = 5.0

#: Trace lengths (records per benchmark).
FULL_LIMIT = 100_000
FAST_LIMIT = 20_000

#: The benchmark whose trace anchors the single-trace family grid.
ANCHOR_BENCHMARK = "li"

#: Records of the anchor trace each family's table-usage audit samples
#: (matches the telemetry probes' bound; keeps bench time flat).
EFFICIENCY_SAMPLE = 8192


def _table_efficiency(spec: PredictorSpec, trace: ValueTrace) -> float:
    """Headline table efficiency (correct per live bit) of *spec* on a
    sampled prefix of *trace* -- recorded next to rec/s so the history
    tracks usage quality alongside speed."""
    from repro.telemetry.tables import TableUsageAuditor
    auditor = TableUsageAuditor(spec)
    auditor.update(trace.pcs[:EFFICIENCY_SAMPLE],
                   trace.values[:EFFICIENCY_SAMPLE])
    return auditor.report()["efficiency"]


def bench_specs() -> List[Tuple[str, PredictorSpec]]:
    """The reference grid: one spec per engine-supported family."""
    flagship = DFCMSpec(1 << 16, 1 << 12)
    return [
        ("lvp", LastValueSpec(1 << 16)),
        ("stride", StrideSpec(1 << 16)),
        ("stride2d", TwoDeltaStrideSpec(1 << 16)),
        ("fcm", FCMSpec(1 << 16, 1 << 12)),
        ("dfcm", flagship),
        ("hybrid", OracleHybridSpec((StrideSpec(1 << 16), flagship))),
    ]


def _flagship() -> PredictorSpec:
    return dict(bench_specs())["dfcm"]


def _time_replay(spec: PredictorSpec, trace: ValueTrace, engine: str,
                 repeats: int) -> Tuple[float, int]:
    """Best-of-*repeats* wall time of one engine replay; returns
    ``(seconds, correct)`` and checks the engines agree on the count."""
    best = float("inf")
    correct = None
    for _ in range(repeats):
        started = time.perf_counter()
        outcome = run_spec(spec, trace, engine)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        if correct is None:
            correct = outcome.correct
        elif correct != outcome.correct:
            raise AssertionError(
                f"{spec.name}/{engine}: nondeterministic correct count")
    return best, correct


def run_bench(traces: Optional[Sequence[ValueTrace]] = None,
              fast: bool = False) -> dict:
    """Run the grid and return the report dict (see module docstring).

    *traces*: injectable for tests; defaults to the cached
    :data:`ANCHOR_BENCHMARK` trace at the mode's record limit.  The
    first trace anchors the per-family grid; the full list feeds the
    suite-level comparison.  Each replay is timed best of 3 (1 in fast
    mode).  The :data:`MIN_SPEEDUP` guard is **enforced** (``passed``
    may be ``False`` and the caller should fail) only in full mode --
    fast-mode numbers on tiny traces are recorded, not judged.
    """
    limit = FAST_LIMIT if fast else FULL_LIMIT
    if traces is None:
        from repro.trace.cache import cached_trace
        traces = [cached_trace(ANCHOR_BENCHMARK, limit)]
    traces = list(traces)
    if not traces:
        raise ValueError("run_bench needs at least one trace")
    anchor = traces[0]
    repeats = 1 if fast else 3

    families = []
    for family, spec in bench_specs():
        scalar_s, scalar_correct = _time_replay(spec, anchor, "scalar",
                                                repeats)
        batch_s, batch_correct = _time_replay(spec, anchor, "batch", repeats)
        if scalar_correct != batch_correct:
            raise AssertionError(
                f"{spec.name}: engines disagree "
                f"(scalar {scalar_correct}, batch {batch_correct})")
        families.append({
            "family": family,
            "predictor": spec.name,
            "records": len(anchor),
            "correct": scalar_correct,
            "scalar_seconds": round(scalar_s, 6),
            "batch_seconds": round(batch_s, 6),
            "scalar_records_per_sec": round(len(anchor) / scalar_s),
            "batch_records_per_sec": round(len(anchor) / batch_s),
            "speedup": round(scalar_s / batch_s, 3),
            "table_efficiency": _table_efficiency(spec, anchor),
        })

    flagship = _flagship()
    started = time.perf_counter()
    scalar_suite = measure_suite(flagship, traces, engine="scalar",
                                 executor="serial")
    suite_scalar_s = time.perf_counter() - started
    started = time.perf_counter()
    batch_suite = measure_suite(flagship, traces, engine="batch",
                                executor="serial")
    suite_batch_s = time.perf_counter() - started
    if scalar_suite.correct != batch_suite.correct:
        raise AssertionError(
            f"{flagship.name}: suite engines disagree "
            f"(scalar {scalar_suite.correct}, batch {batch_suite.correct})")
    suite_speedup = suite_scalar_s / suite_batch_s

    return {
        "schema": 1,
        "schema_version": 1,
        "mode": "fast" if fast else "full",
        "anchor": {"benchmark": anchor.name, "records": len(anchor)},
        "suite_traces": [trace.name for trace in traces],
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "families": families,
        "suite": {
            "predictor": flagship.name,
            "records": scalar_suite.total,
            "accuracy": round(scalar_suite.accuracy, 6),
            "scalar_seconds": round(suite_scalar_s, 6),
            "batch_seconds": round(suite_batch_s, 6),
            "speedup": round(suite_speedup, 3),
        },
        "guard": {
            "min_speedup": MIN_SPEEDUP,
            "measured": round(suite_speedup, 3),
            "enforced": not fast,
            "passed": fast or suite_speedup >= MIN_SPEEDUP,
        },
    }


def render_bench(report: dict) -> str:
    """Human-readable digest of a :func:`run_bench` report."""
    from repro.harness.report import format_table
    rows = [[f["family"], f["predictor"],
             f"{f['scalar_records_per_sec']:,}",
             f"{f['batch_records_per_sec']:,}",
             f"{f['speedup']:.2f}x",
             ("--" if f.get("table_efficiency") is None
              else f"{f['table_efficiency']:.3g}")]
            for f in report["families"]]
    anchor = report["anchor"]
    lines = [format_table(
        ["family", "predictor", "scalar rec/s", "batch rec/s", "speedup",
         "eff (hits/bit)"],
        rows,
        title=(f"engine throughput on {anchor['benchmark']} "
               f"({anchor['records']} records, {report['mode']} mode)"))]
    suite = report["suite"]
    lines.append(
        f"suite ({len(report['suite_traces'])} trace(s), "
        f"{suite['predictor']}): scalar {suite['scalar_seconds']:.2f}s, "
        f"batch {suite['batch_seconds']:.2f}s, "
        f"speedup {suite['speedup']:.2f}x")
    guard = report["guard"]
    verdict = "PASS" if guard["passed"] else "FAIL"
    enforcement = "enforced" if guard["enforced"] else "recorded only"
    lines.append(
        f"guard: batch >= {guard['min_speedup']:g}x scalar on the "
        f"flagship suite -- measured {guard['measured']:.2f}x "
        f"[{verdict}, {enforcement}]")
    return "\n".join(lines) + "\n"


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -------------------------------------------------------------- history

#: Default regression gate for ``repro bench diff``: the newest
#: record's batch throughput may drop at most this many percent
#: against the previous one.  Override with ``--max-regression-pct``.
MAX_REGRESSION_PCT = 10.0

HISTORY_SCHEMA = 1


def resolve_max_regression_pct(
        max_regression_pct: Optional[float] = None) -> float:
    """The explicit argument, else :data:`MAX_REGRESSION_PCT`."""
    if max_regression_pct is None:
        return MAX_REGRESSION_PCT
    if max_regression_pct < 0:
        raise ValueError(f"max regression pct must be >= 0, "
                         f"got {max_regression_pct}")
    return float(max_regression_pct)


def history_entry(report: dict) -> dict:
    """One history record: identity + the throughput numbers worth
    diffing (per-family batch/scalar rec/s and the suite speedup)."""
    return {
        "schema": HISTORY_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "mode": report["mode"],
        "anchor": report["anchor"],
        "python": report["python"],
        "machine": report["machine"],
        "families": {
            f["family"]: {
                "batch_records_per_sec": f["batch_records_per_sec"],
                "scalar_records_per_sec": f["scalar_records_per_sec"],
                "speedup": f["speedup"],
                "table_efficiency": f.get("table_efficiency"),
            } for f in report["families"]},
        "suite_speedup": report["suite"]["speedup"],
    }


def append_history(entry: dict, path: str = "BENCH_history.jsonl") -> dict:
    """Append one :func:`history_entry` record to the JSONL history
    file; returns the entry written."""
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def read_history(path: str = "BENCH_history.jsonl") -> List[dict]:
    """All history records, oldest first (blank lines skipped).

    A missing history file is a user/setup error, not a bug: it raises
    :class:`ValueError` naming the path (the CLI turns that into an
    ``error: <path>: ...`` line and exit 1)."""
    entries = []
    try:
        handle = open(path)
    except FileNotFoundError:
        raise ValueError(
            f"{path}: no bench history (run 'repro bench --history' "
            f"to create it)") from None
    with handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def _entry_kind(entry: dict) -> str:
    """Records written before kinds existed are bench records."""
    return entry.get("kind") or ("bench" if "families" in entry
                                 else "unknown")


def diff_history(path: str = "BENCH_history.jsonl",
                 max_regression_pct: Optional[float] = None) -> dict:
    """Compare the two most recent history records per family.

    A family regresses when its batch throughput in the newest record
    drops more than the threshold percent below the previous record;
    ``passed`` is False when any family regresses.  The two records
    must cover the same families: a family silently appearing in (or
    vanishing from) the grid would otherwise dodge the regression
    gate, so either direction of mismatch raises :class:`ValueError`
    with both sides named -- re-run ``bench --history`` after a grid
    change to re-baseline.

    Records of any other kind in the history file are skipped.
    """
    threshold = resolve_max_regression_pct(max_regression_pct)
    bench_entries = [e for e in read_history(path)
                     if _entry_kind(e) == "bench"]
    if len(bench_entries) < 2:
        raise ValueError(
            f"{path}: need at least 2 bench history records to diff, "
            f"found {len(bench_entries)} (run 'repro bench --history' "
            f"twice)")
    base, head = bench_entries[-2], bench_entries[-1]
    only_base = sorted(set(base["families"]) - set(head["families"]))
    only_head = sorted(set(head["families"]) - set(base["families"]))
    if only_base or only_head:
        parts = []
        if only_base:
            parts.append("missing from the current run: "
                         + ", ".join(only_base))
        if only_head:
            parts.append("not in the previous record: "
                         + ", ".join(only_head))
        raise ValueError(
            f"bench history records in {path} cover different families "
            f"({'; '.join(parts)}); re-run 'repro bench --history' to "
            f"re-baseline after a grid change")
    families = []
    regressed = []
    for family in sorted(base["families"]):
        old = base["families"][family]["batch_records_per_sec"]
        new = head["families"][family]["batch_records_per_sec"]
        delta_pct = ((new - old) / old * 100.0) if old else 0.0
        is_regressed = delta_pct < -threshold
        if is_regressed:
            regressed.append(family)
        # Table efficiency is reported, never gated: it moves with
        # deliberate table-shape changes, and older records predate it
        # (.get -> None renders as "--").
        old_eff = base["families"][family].get("table_efficiency")
        new_eff = head["families"][family].get("table_efficiency")
        eff_delta = (round((new_eff - old_eff) / old_eff * 100.0, 2)
                     if old_eff and new_eff is not None else None)
        families.append({
            "family": family,
            "base_records_per_sec": old,
            "head_records_per_sec": new,
            "delta_pct": round(delta_pct, 2),
            "regressed": is_regressed,
            "base_table_efficiency": old_eff,
            "head_table_efficiency": new_eff,
            "efficiency_delta_pct": eff_delta,
        })
    return {
        "schema": HISTORY_SCHEMA,
        "path": path,
        "max_regression_pct": threshold,
        "base": {"git_sha": base.get("git_sha"),
                 "timestamp": base.get("timestamp"),
                 "mode": base.get("mode")},
        "head": {"git_sha": head.get("git_sha"),
                 "timestamp": head.get("timestamp"),
                 "mode": head.get("mode")},
        "families": families,
        "regressed": regressed,
        "passed": not regressed,
    }


def render_history_diff(diff: dict) -> str:
    """Human-readable digest of a :func:`diff_history` result."""
    from repro.harness.report import format_table

    def _ident(rec: dict) -> str:
        sha = (rec.get("git_sha") or "?")[:12]
        return f"{sha} ({rec.get('timestamp') or '?'}, " \
               f"{rec.get('mode') or '?'})"

    rows = [[f["family"], f"{f['base_records_per_sec']:,}",
             f"{f['head_records_per_sec']:,}",
             f"{f['delta_pct']:+.2f}%",
             ("--" if f.get("efficiency_delta_pct") is None
              else f"{f['efficiency_delta_pct']:+.2f}%"),
             "REGRESSED" if f["regressed"] else "ok"]
            for f in diff["families"]]
    lines = [format_table(
        ["family", "base rec/s", "head rec/s", "delta", "eff delta",
         "verdict"], rows,
        title=(f"bench history diff: {_ident(diff['base'])} -> "
               f"{_ident(diff['head'])}"))]
    verdict = "PASS" if diff["passed"] else "FAIL"
    lines.append(f"gate: batch throughput drop <= "
                 f"{diff['max_regression_pct']:g}% per family -- {verdict}")
    if diff["regressed"]:
        lines.append("regressed: " + ", ".join(diff["regressed"]))
    return "\n".join(lines) + "\n"
