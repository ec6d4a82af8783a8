"""Telemetry export surfaces: run discovery, Prometheus text, summaries.

These functions read the on-disk artifacts written by
:class:`repro.telemetry.run.TelemetryRun` -- they never touch the live
registry, so they work on any run directory, including ones produced by
another process (the ``repro telemetry`` CLI is a thin wrapper).

The Prometheus output follows the text exposition format version
0.0.4: ``# HELP``/``# TYPE`` headers, escaped label values, histograms
as cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

__all__ = ["RunInfo", "list_runs", "find_run", "read_events",
           "prometheus_text", "snapshot_prometheus_text",
           "summary_text", "tail_text"]

#: Span names the summary lists (the slowest first).
_SUMMARY_SPANS = 12


@dataclass(frozen=True)
class RunInfo:
    """One discovered run directory and its parsed manifest."""

    dir: Path
    manifest: dict

    @property
    def run_id(self) -> str:
        return self.manifest.get("run_id", self.dir.name)


def list_runs(root) -> List[RunInfo]:
    """Runs under *root*, oldest first (manifest-bearing subdirs)."""
    root = Path(root)
    if not root.is_dir():
        return []
    runs = []
    for child in sorted(root.iterdir()):
        manifest_path = child / "manifest.json"
        if not manifest_path.is_file():
            continue
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        runs.append(RunInfo(dir=child, manifest=manifest))
    runs.sort(key=lambda r: (r.manifest.get("started_unix", 0),
                             r.manifest.get("started_at", ""), r.dir.name))
    return runs


def find_run(root, run_id: Optional[str] = None) -> RunInfo:
    """The named run under *root*, or the latest one.

    Raises :class:`FileNotFoundError` when nothing matches, so the CLI
    can exit with a clean message instead of a traceback.
    """
    runs = list_runs(root)
    if not runs:
        raise FileNotFoundError(f"no telemetry runs under {root}")
    if run_id is None:
        return runs[-1]
    for run in runs:
        if run.run_id == run_id or run.dir.name == run_id:
            return run
    known = ", ".join(r.run_id for r in runs)
    raise FileNotFoundError(f"no run {run_id!r} under {root}; known: {known}")


def read_events(run: RunInfo) -> Iterator[dict]:
    """Parsed events.jsonl lines (skips nothing; raises on bad JSON)."""
    path = run.dir / "events.jsonl"
    if not path.is_file():
        return
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def _read_metrics(run: RunInfo) -> dict:
    path = run.dir / "metrics.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


# ----------------------------------------------------------- prometheus

_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize_name(name: str) -> str:
    """Coerce *name* into a legal Prometheus metric name.

    The live registry already rejects bad names, but snapshots can
    come from other processes or hand-written files -- the exposition
    must stay parseable regardless."""
    name = _NAME_BAD_CHARS.sub("_", name) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def _sanitize_label_name(name: str) -> str:
    name = _LABEL_BAD_CHARS.sub("_", name) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _label_text(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_sanitize_label_name(str(k))}="{_escape_label(str(v))}"'
        for k, v in merged.items())
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


def _exemplar_suffix(exemplars, bound) -> str:
    """OpenMetrics-style exemplar annotation for one bucket line."""
    for exemplar_bound, exemplar in exemplars or []:
        if exemplar_bound == bound and exemplar:
            return (f' # {{trace_id="{_escape_label(str(exemplar["trace_id"]))}"}}'
                    f' {_format_value(exemplar["value"])}')
    return ""


def _histogram_lines(name: str, labels: dict, value: dict,
                     exemplars: bool) -> List[str]:
    lines = []
    count = int(value.get("count", 0))
    exemplar_list = value.get("exemplars") if exemplars else None
    saw_inf = False
    for bound, bucket_count in value["buckets"]:
        inf = bound == "+Inf"
        saw_inf = saw_inf or inf
        le = "+Inf" if inf else _format_value(bound)
        lines.append(
            f"{name}_bucket{_label_text(labels, {'le': le})} "
            f"{int(bucket_count)}"
            + _exemplar_suffix(exemplar_list, bound))
    if not saw_inf:
        # A snapshot may carry finite buckets only; the exposition
        # format still requires the +Inf bucket (== _count).
        lines.append(f"{name}_bucket{_label_text(labels, {'le': '+Inf'})} "
                     f"{count}")
    lines.append(f"{name}_sum{_label_text(labels)} "
                 f"{_format_value(value.get('sum', 0))}")
    lines.append(f"{name}_count{_label_text(labels)} {count}")
    return lines


def snapshot_prometheus_text(snapshot: dict, exemplars: bool = False) -> str:
    """Render a registry :meth:`~MetricsRegistry.snapshot` dict as
    Prometheus text exposition format 0.0.4.

    Metric and label names are sanitised, label values escaped, and
    histograms always emit the ``+Inf`` bucket plus ``_sum`` and
    ``_count`` -- even for snapshots that predate those guarantees.
    With ``exemplars=True``, bucket lines carry their last trace-id
    exemplar as an OpenMetrics-style ``# {trace_id="..."}`` suffix
    (strict 0.0.4 consumers should keep the default).
    """
    lines = []
    for raw_name in sorted(snapshot):
        data = snapshot[raw_name]
        name = _sanitize_name(raw_name)
        kind = data.get("kind", "untyped")
        help_text = data.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in data.get("samples", []):
            labels = sample.get("labels", {})
            value = sample.get("value")
            if kind == "histogram":
                lines.extend(_histogram_lines(name, labels, value,
                                              exemplars))
            else:
                lines.append(f"{name}{_label_text(labels)} "
                             f"{_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def prometheus_text(run: RunInfo) -> str:
    """The run's closing metrics snapshot in Prometheus text format."""
    return snapshot_prometheus_text(_read_metrics(run).get("metrics", {}))


# -------------------------------------------------------------- summary

def summary_text(run: RunInfo) -> str:
    """Human-readable digest: manifest header, span tree, key metrics."""
    manifest = run.manifest
    lines = [f"run {run.run_id}"]
    for key in ("command", "started_at", "finished_at", "duration_s",
                "status", "git_sha", "python"):
        value = manifest.get(key)
        if value is not None:
            lines.append(f"  {key}: {value}")
    config = manifest.get("config") or {}
    if config.get("trace_length") is not None:
        lines.append(f"  trace_length: {config['trace_length']}")

    spans = [e for e in read_events(run) if e.get("type") == "span"]
    if spans:
        lines.append("")
        lines.append(f"spans ({len(spans)} closed; slowest per name):")
        slowest = {}
        for event in spans:
            name = event.get("name", "?")
            best = slowest.get(name)
            if best is None or event.get("duration_s", 0) > best.get(
                    "duration_s", 0):
                slowest[name] = event
        ranked = sorted(slowest.values(),
                        key=lambda e: e.get("duration_s", 0), reverse=True)
        counts = {}
        for event in spans:
            counts[event.get("name", "?")] = counts.get(
                event.get("name", "?"), 0) + 1
        for event in ranked[:_SUMMARY_SPANS]:
            name = event.get("name", "?")
            lines.append(f"  {name:<14} x{counts[name]:<5} "
                         f"max {event.get('duration_s', 0):.4f}s "
                         f"depth {event.get('depth', 0)}")

    probes = [e for e in read_events(run) if e.get("type") == "probe"]
    if probes:
        kinds = {}
        for event in probes:
            kinds[event.get("probe", "?")] = kinds.get(
                event.get("probe", "?"), 0) + 1
        lines.append("")
        lines.append("probes: " + ", ".join(
            f"{kind} x{count}" for kind, count in sorted(kinds.items())))

    delta = _read_metrics(run).get("delta", {})
    counters = []
    for name in sorted(delta):
        data = delta[name]
        if data.get("kind") != "counter":
            continue
        total = sum(s["value"] for s in data.get("samples", []))
        counters.append((name, total))
    if counters:
        lines.append("")
        lines.append("counters (this run):")
        for name, total in counters:
            lines.append(f"  {name:<36} {_format_value(total)}")
    return "\n".join(lines) + "\n"


def tail_text(run: RunInfo, n: int = 20) -> str:
    """The last *n* event lines of the run, verbatim JSONL."""
    path = run.dir / "events.jsonl"
    if not path.is_file():
        return ""
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(lines[-n:]) + ("\n" if lines else "")
