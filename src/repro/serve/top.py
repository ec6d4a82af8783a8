"""``repro top`` -- live terminal dashboard over the obs endpoint.

Polls a running server's observability endpoint (``repro serve
--obs-port``) and renders an ANSI dashboard: overall status, record
throughput and hit-rate with sparklines, latency percentiles over the
rolling window, the server's queue line (depth, batches, requests
batched), firing SLO alerts with burn rates, live table usage
(occupancy / efficiency / aliasing, from ``/tables``), and the current
slowest requests with their stage breakdowns.  Servers running with
``--state-dir`` additionally get a durable-state line (resident /
spilled / evictions / reloads / snapshots); against older servers it
simply does not render.

Pointed at a cluster router's aggregated endpoint (``repro cluster
serve --obs-port``) the same dashboard additionally renders a fleet
panel -- one row per worker (pid, status, sessions, resident /
spilled / evictions, restarts, firing alerts) plus migration and
session-loss counters -- because the router's ``/healthz`` carries a
``workers`` list; its ``/tables`` adds one table-usage row per worker.
A single server reports neither list, and the router has no queue of
its own, so each renders only where its data exists; every other
section works identically against either endpoint.

Rates are computed client-side from counter deltas between polls, so
the server needs no extra bookkeeping for the dashboard.  ``--once``
prints a single plain snapshot (no screen control, no second poll) --
that is what CI smoke tests and scripts use.

Only the standard library is involved: plain HTTP GETs via urllib and
ANSI escape codes for the live mode (no curses dependency, so it works
on dumb terminals and in CI logs).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections import deque
from typing import List, Optional

from repro.serve.tracing import STAGES

__all__ = ["fetch_json", "sparkline", "render_dashboard", "run_top"]

_SPARK = "▁▂▃▄▅▆▇█"
_CLEAR = "\x1b[H\x1b[2J"

#: Slow requests the dashboard lists.
_SLOW_ROWS = 8


def fetch_json(base_url: str, path: str, timeout: float = 5.0) -> dict:
    """GET ``base_url + path`` and parse the JSON body."""
    with urllib.request.urlopen(base_url.rstrip("/") + path,
                                timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def sparkline(values, width: int = 30) -> str:
    """The last *width* values as a unicode block sparkline."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return (_SPARK[0] if hi <= 0 else _SPARK[3]) * len(vals)
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - lo) / span * (len(_SPARK) - 1) + 0.5))]
        for v in vals)


class _History:
    """Counter deltas and rolling series between polls."""

    def __init__(self, depth: int = 60):
        self.t: Optional[float] = None
        self.records: Optional[int] = None
        self.rate_series: deque = deque(maxlen=depth)
        self.hit_series: deque = deque(maxlen=depth)

    def update(self, health: dict, slo: dict) -> dict:
        """Fold one poll in; returns {rate}."""
        now = time.monotonic()
        records = int(health.get("records_served", 0))
        rate = None
        if (self.t is not None and self.records is not None
                and records >= self.records):
            rate = (records - self.records) / max(now - self.t, 1e-9)
            self.rate_series.append(rate)
        hit_rate = slo.get("hit_rate")
        if hit_rate is not None:
            self.hit_series.append(float(hit_rate))
        self.t, self.records = now, records
        return {"rate": rate}


def _fmt_rate(rate: Optional[float]) -> str:
    return f"{rate:,.0f} rec/s" if rate is not None else "--"


def render_dashboard(base_url: str, health: dict, slo: dict, slow: dict,
                     rates: Optional[dict] = None,
                     history: Optional[_History] = None,
                     tables: Optional[dict] = None) -> str:
    """One full dashboard frame as text (no screen control codes)."""
    rates = rates or {}
    lines: List[str] = []
    status = health.get("status", "?")
    lines.append(f"repro top -- {base_url}   status: {status.upper()}   "
                 f"uptime {health.get('uptime_s', 0):g}s   "
                 f"proto v{health.get('protocol_version', '?')}")
    hit_rate = slo.get("hit_rate")
    lines.append(f"sessions {health.get('sessions_open', 0)}   "
                 f"connections {health.get('connections_open', 0)}   "
                 f"records {health.get('records_served', 0):,}   "
                 f"hits {health.get('hits_served', 0):,}"
                 + (f"   hit-rate {hit_rate * 100:.1f}%"
                    if hit_rate is not None else ""))
    # Fleet summary: only a cluster router's aggregated endpoint
    # reports per-worker rows -- single servers never will.
    workers = health.get("workers") or []
    if workers:
        lines.append(
            f"cluster  {sum(1 for w in workers if w.get('alive'))}/"
            f"{len(workers)} workers up   "
            f"migrations {health.get('migrations_total', 0)}   "
            f"lost {health.get('sessions_lost_total', 0)}   "
            f"parked {health.get('sessions_parked', 0)}")
        lines.append("  worker      pid   state  sessions  resident  "
                     "spilled  evict  restarts  alerts")
        for w in workers:
            state = w.get("status", "?") if w.get("alive") else "down"
            lines.append(
                f"  {w.get('worker', '?'):>6}  {w.get('pid', 0):>7}  "
                f"{state:>6}  {w.get('sessions', 0):>8}  "
                f"{w.get('resident', 0):>8}  {w.get('spilled', 0):>7}  "
                f"{w.get('evictions', 0):>5}  {w.get('restarts', 0):>8}  "
                f"{','.join(w.get('alerts', [])) or '-'}")
    # Durable-state summary: only servers running with --state-dir
    # report these fields (older servers never will -- stay quiet).
    if "sessions_resident" in health:
        state_dir = health.get("state_dir")
        lines.append(
            f"state  resident {health.get('sessions_resident', 0)}   "
            f"spilled {health.get('sessions_spilled', 0)}   "
            f"evictions {health.get('evictions_total', 0)}   "
            f"reloads {health.get('reloads_total', 0)}   "
            f"snapshots {health.get('snapshots_total', 0)}"
            + (f"   dir {state_dir}" if state_dir else ""))
    rate_spark = sparkline(history.rate_series) if history else ""
    hit_spark = sparkline(history.hit_series) if history else ""
    lines.append(f"throughput  {_fmt_rate(rates.get('rate')):>16}  "
                 f"{rate_spark}")
    if hit_spark:
        lines.append(f"hit rate    "
                     f"{(hit_rate or 0) * 100:>15.1f}%  {hit_spark}")
    latency = slo.get("latency") or {}
    if latency.get("count"):
        lines.append(f"latency (n={latency['count']})   "
                     f"p50 {latency['p50_ms']:.3f}ms   "
                     f"p90 {latency['p90_ms']:.3f}ms   "
                     f"p99 {latency['p99_ms']:.3f}ms   "
                     f"max {latency['max_ms']:.3f}ms")
    # A server's one queue; the router has none of its own.
    if "queue_depth" in health:
        lines.append(f"queue  depth {health['queue_depth']}   "
                     f"batches {health.get('batches', 0):,}   "
                     f"requests {health.get('requests_batched', 0):,}")
    lines.append("")
    alerts = health.get("alerts") or []
    if alerts:
        burns = {s["name"]: s for s in slo.get("slos", [])}
        parts = []
        for name in alerts:
            s = burns.get(name, {})
            parts.append(f"{name} (fast {s.get('fast_burn', 0):g}x, "
                         f"slow {s.get('slow_burn', 0):g}x)")
        lines.append("ALERTS: " + "; ".join(parts))
    else:
        lines.append("alerts: none")
    slos = slo.get("slos") or []
    if slos:
        lines.append("  slo                    kind         threshold  "
                     "objective   fast   slow  firing")
        for s in slos:
            lines.append(f"  {s['name']:<22} {s['kind']:<12} "
                         f"{s['threshold']:>9g}  {s['objective']:>9g}  "
                         f"{s['fast_burn']:>5g}  {s['slow_burn']:>5g}  "
                         f"{'YES' if s['alerting'] else 'no':>6}")
    totals = (tables or {}).get("totals") or {}
    if totals.get("storage_bits"):
        lines.append("")
        lines.append(
            f"tables  occupancy {totals.get('occupancy', 0) * 100:.1f}%   "
            f"live {totals.get('live_bits', 0):,} / "
            f"{totals.get('storage_bits', 0):,} bits   "
            f"efficiency {totals.get('efficiency', 0):.3g} hits/bit   "
            f"aliasing {totals.get('aliasing_ratio', 0) * 100:.1f}%")
        workers = tables.get("workers") or []
        if workers:
            lines.append("  worker  sessions   live bits  occupancy  "
                         "efficiency  aliasing")
        for row in workers:
            lines.append(
                f"  {row.get('worker', '?'):>6}  "
                f"{row.get('sessions', 0):>8}  "
                f"{row.get('live_bits', 0):>10,}  "
                f"{row.get('occupancy', 0) * 100:>8.1f}%  "
                f"{row.get('efficiency', 0):>10.3g}  "
                f"{row.get('aliasing_ratio', 0) * 100:>7.1f}%")
    slowest = (slow.get("slowest") or [])[:_SLOW_ROWS]
    if slowest:
        lines.append("")
        lines.append(f"slowest requests (of {slow.get('observed', 0)} "
                     "observed)")
        lines.append("  trace_id          type        latency   "
                     "stages (ms)")
        for entry in slowest:
            stages = entry.get("stages_ms", {})
            breakdown = " ".join(f"{stage} {stages[stage]:.2f}"
                                 for stage in STAGES if stage in stages)
            lines.append(f"  {entry.get('trace_id', '?'):<17} "
                         f"{entry.get('type', '?'):<11} "
                         f"{entry.get('latency_ms', 0):>8.3f}ms  "
                         f"{breakdown}")
    return "\n".join(lines) + "\n"


def run_top(base_url: str, interval: float = 1.0,
            iterations: Optional[int] = None, once: bool = False,
            out=None, timeout: float = 5.0) -> int:
    """Poll *base_url* and render; returns a process exit code.

    ``once=True`` prints one plain snapshot and returns.  Otherwise
    renders a full-screen frame every *interval* seconds until
    *iterations* frames (None = until Ctrl-C).
    """
    import sys
    out = out or sys.stdout
    history = _History()
    frames = 0
    try:
        while True:
            try:
                health = fetch_json(base_url, "/healthz", timeout)
                slo = fetch_json(base_url, "/slo", timeout)
                slow = fetch_json(base_url, "/slow", timeout)
            except (urllib.error.URLError, ConnectionError, OSError,
                    json.JSONDecodeError) as exc:
                out.write(f"error: cannot poll {base_url}: {exc}\n")
                return 1
            try:
                tables = fetch_json(base_url, "/tables", timeout)
            except (urllib.error.URLError, ConnectionError, OSError,
                    json.JSONDecodeError):
                tables = None  # older server without the route
            rates = history.update(health, slo)
            frame = render_dashboard(base_url, health, slo, slow,
                                     rates=rates, history=history,
                                     tables=tables)
            if once:
                out.write(frame)
                return 0
            out.write(_CLEAR + frame)
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        out.write("\n")
        return 0
