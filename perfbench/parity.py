"""Correctness gates: served or measured counts against offline replays.

Every gate compares a count the program produced under load with the
count an independent offline replay gives for exactly the same input.
One mismatch fails the whole run: it then reports no metric.

A served session is checked by its own counters (``outcomes`` and
``hits`` from STATS), read after the load, against the offline replay
of every request it was sent and did not refuse with an ERROR frame.
A request that timed out or was cut off may still have been applied,
so it is replayed too: it stays a failed request and a latency miss,
and does not by itself fail the gate.
"""

from __future__ import annotations

from typing import List, Optional


class ParityGate:
    """Collects (label, got, expected) checks; fails on any mismatch."""

    def __init__(self):
        self.checked = 0
        self.mismatches: List[str] = []

    def check(self, label: str, got: int, expected: int) -> bool:
        self.checked += 1
        if got != expected:
            self.mismatches.append(f"{label}: got {got}, expected {expected}")
            return False
        return True

    def merge(self, other: "ParityGate") -> None:
        self.checked += other.checked
        self.mismatches.extend(other.mismatches)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return f"parity: {self.checked} checks match"
        if not self.checked:
            return "parity: nothing was checked"
        shown = "; ".join(self.mismatches[:5])
        return (f"parity: {len(self.mismatches)} of {self.checked} "
                f"checks MISMATCH ({shown})")


def offline_hits(spec, window: int, name: str, pcs, values) -> int:
    """Hits of the offline ``measure_accuracy`` replay of these records.

    A windowed session is replayed as the equivalent ``DelayedSpec``.
    """
    from repro.core.spec import DelayedSpec
    from repro.harness.simulate import measure_accuracy
    from repro.trace.trace import ValueTrace
    offline = DelayedSpec(spec, window) if window else spec
    return measure_accuracy(offline, ValueTrace(name, pcs, values)).correct


def check_session(gate: ParityGate, label: str, counters: dict, spec,
                  window: int, name: str, pcs, values,
                  answered_hits: Optional[int] = None) -> None:
    """A served session's counters against the replay of *pcs*/*values*.

    *answered_hits*, the hits summed over the session's replies, is
    checked as well when every request it was sent got one.
    """
    expected = (offline_hits(spec, window, name, pcs, values)
                if len(pcs) else 0)
    gate.check(f"{label} records", counters["outcomes"], len(pcs))
    gate.check(f"{label} hits", counters["hits"], expected)
    if answered_hits is not None:
        gate.check(f"{label} answered hits", answered_hits, expected)
