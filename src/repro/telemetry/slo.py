"""Service-level objectives with multi-window burn-rate alerting.

An :class:`SLO` names a stream of good/bad observations and the
fraction that must be good (the *objective*); the remainder is the
error budget.  Everything the serving layer watches reduces to such a
stream:

- **latency**: a request is good when it finished within ``threshold``
  seconds -- an objective of 0.99 is exactly "p99 <= threshold";
- **queue_depth**: a sample is good when the server's queue is at or
  below the ``threshold`` ceiling.

The :class:`SLOMonitor` keeps a time-bucketed tally per SLO and
evaluates the classic two-window burn-rate rule: the *burn rate* over
a window is ``error_rate / (1 - objective)`` (1.0 = consuming budget
exactly as fast as allowed), and an alert fires only when **both** the
fast (:data:`FAST_WINDOW_S`) and the slow (:data:`SLOW_WINDOW_S`)
window burn at :data:`BURN_RATE` or more -- the fast window makes
alerts quick to clear, the slow window keeps one stray slow request
from paging anyone.

The monitor is deliberately free of I/O and clocks it doesn't own
(inject ``clock`` for tests); the serving layer wires it to telemetry
events, gauges and ``/healthz`` (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["SLO", "SLOMonitor", "default_serve_slos", "FAST_WINDOW_S",
           "SLOW_WINDOW_S", "BURN_RATE"]

#: The streams the serving layer feeds: request latency and queue depth.
_KINDS = ("latency", "queue_depth")

#: The two alerting windows, in seconds, and the burn rate both must
#: reach for an SLO to alert.
FAST_WINDOW_S = 60.0
SLOW_WINDOW_S = 300.0
BURN_RATE = 2.0


@dataclass(frozen=True)
class SLO:
    """One objective over a stream of good/bad observations."""

    name: str
    kind: str                  # "latency" | "queue_depth"
    threshold: float           # seconds bound / depth cap
    objective: float = 0.99    # required good fraction

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"{self.name}: kind must be one of {_KINDS}, "
                             f"got {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"{self.name}: objective must be in (0, 1), "
                             f"got {self.objective}")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "objective": self.objective,
            "fast_window_s": FAST_WINDOW_S,
            "slow_window_s": SLOW_WINDOW_S,
            "burn_rate": BURN_RATE,
        }


class _Stream:
    """Time-ordered [ts, good, bad] tallies for one SLO, one per whole
    second: an observation joins the newest tally when both fall in the
    same second, so window edges move by less than a second and memory
    is bounded by the slow window's length, not the request rate."""

    def __init__(self, slo: SLO):
        self.slo = slo
        self.entries: deque = deque()
        self.total_good = 0
        self.total_bad = 0

    def record(self, good: int, bad: int, now: float) -> None:
        entries = self.entries
        if not entries or math.floor(entries[-1][0]) != math.floor(now):
            entries.append([now, 0, 0])
        entries[-1][1] += good
        entries[-1][2] += bad
        self.total_good += good
        self.total_bad += bad

    def prune(self, now: float) -> None:
        horizon = now - SLOW_WINDOW_S
        entries = self.entries
        while entries and entries[0][0] < horizon:
            entries.popleft()

    def window(self, seconds: float, now: float) -> tuple:
        horizon = now - seconds
        good = bad = 0
        for ts, g, b in reversed(self.entries):
            if ts < horizon:
                break
            good += g
            bad += b
        return good, bad


def _burn(good: int, bad: int, budget: float) -> float:
    total = good + bad
    if not total:
        return 0.0
    return (bad / total) / budget


class SLOMonitor:
    """Multi-window burn-rate evaluation over a set of :class:`SLO`."""

    def __init__(self, slos: Iterable[SLO],
                 clock: Callable[[], float] = time.monotonic):
        self._streams: Dict[str, _Stream] = {}
        for slo in slos:
            if slo.name in self._streams:
                raise ValueError(f"duplicate SLO name {slo.name!r}")
            self._streams[slo.name] = _Stream(slo)
        self._clock = clock
        self._alerting: List[str] = []

    @property
    def slos(self) -> List[SLO]:
        return [stream.slo for stream in self._streams.values()]

    def record(self, name: str, good: int = 0, bad: int = 0,
               now: Optional[float] = None) -> None:
        """Add *good*/*bad* observations to the named stream."""
        stream = self._streams.get(name)
        if stream is None:
            raise KeyError(f"unknown SLO {name!r}")
        if good or bad:
            stream.record(good, bad, self._clock() if now is None else now)

    def evaluate(self, now: Optional[float] = None) -> List[dict]:
        """Burn rates and alert state per SLO (also caches
        :meth:`alerting` for cheap health checks between evaluations)."""
        now = self._clock() if now is None else now
        statuses = []
        alerting = []
        for stream in self._streams.values():
            slo = stream.slo
            stream.prune(now)
            fast_good, fast_bad = stream.window(FAST_WINDOW_S, now)
            slow_good, slow_bad = stream.window(SLOW_WINDOW_S, now)
            fast_burn = _burn(fast_good, fast_bad, slo.budget)
            slow_burn = _burn(slow_good, slow_bad, slo.budget)
            alert = fast_burn >= BURN_RATE and slow_burn >= BURN_RATE
            if alert:
                alerting.append(slo.name)
            statuses.append(dict(slo.describe(), **{
                "fast_burn": round(fast_burn, 4),
                "slow_burn": round(slow_burn, 4),
                "fast_good": fast_good, "fast_bad": fast_bad,
                "slow_good": slow_good, "slow_bad": slow_bad,
                "total_good": stream.total_good,
                "total_bad": stream.total_bad,
                "alerting": alert,
            }))
        self._alerting = alerting
        return statuses

    def alerting(self) -> List[str]:
        """Names alerting as of the last :meth:`evaluate`."""
        return list(self._alerting)

    @property
    def healthy(self) -> bool:
        return not self._alerting


def default_serve_slos(p99_latency_s: float = 0.25,
                       queue_depth_ceiling: float = 512.0) -> List[SLO]:
    """The serving layer's stock objectives: request latency and queue
    depth."""
    return [
        SLO(name="step_latency_p99", kind="latency",
            threshold=p99_latency_s, objective=0.99),
        SLO(name="queue_depth", kind="queue_depth",
            threshold=queue_depth_ceiling, objective=0.9),
    ]
