"""Value-pattern taxonomy of a trace (Sazeides & Smith-style analysis).

The paper's argument rests on a taxonomy of per-instruction value
streams: *constant* patterns (last value predictable), *stride*
patterns (last + constant difference), and *context* patterns
(repeating subsequences an FCM can learn).  This module measures, for
every static instruction and for a whole trace, which fraction of its
dynamic values is predictable by an **idealised** (unbounded, per-PC,
interference-free) predictor of each class:

- ``constant``  — idealised last value predictor;
- ``stride``    — idealised stride predictor (last + previous diff);
- ``context``   — idealised order-k FCM: an unbounded per-PC table
  mapping the exact history of the last k values to the value that
  followed it most recently;
- ``residual``  — predicted by none of the above.

Because the predictors are unbounded and private per PC, these numbers
are upper bounds *for private-table predictors of each class*.  A real
predictor can fall short of them (finite tables, aliasing) but can also
exceed them: shared tables let one instruction profit from another's
training (the benign ``l2_pc`` sharing of the paper's Figure 13), and a
differential predictor extrapolates stride patterns to values no
per-class oracle has seen for that PC.  Comparing these bounds with the
measured Figure-10 accuracies quantifies both effects.

The classes overlap (a constant pattern is also a stride pattern with
stride 0 and a trivially learnable context pattern); the summary
reports both the raw per-class hit rates and a disjoint attribution in
priority order constant > stride > context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.types import MASK32
from repro.trace.trace import ValueTrace

__all__ = ["PatternBreakdown", "InstructionProfile", "analyze_trace"]


@dataclass(frozen=True)
class PatternBreakdown:
    """Hit counts of the idealised predictor classes over some stream."""

    total: int
    constant_hits: int
    stride_hits: int
    context_hits: int
    disjoint_constant: int
    disjoint_stride: int
    disjoint_context: int

    def rate(self, hits: int) -> float:
        return hits / self.total if self.total else 0.0

    @property
    def constant_rate(self) -> float:
        """Upper bound of any last value predictor on this stream."""
        return self.rate(self.constant_hits)

    @property
    def stride_rate(self) -> float:
        """Upper bound of any stride predictor."""
        return self.rate(self.stride_hits)

    @property
    def context_rate(self) -> float:
        """Upper bound of any order-k FCM (no aliasing, no capacity)."""
        return self.rate(self.context_hits)

    @property
    def residual_rate(self) -> float:
        """Values no idealised class predicts (true novelty)."""
        covered = (self.disjoint_constant + self.disjoint_stride
                   + self.disjoint_context)
        return self.rate(self.total - covered)


@dataclass(frozen=True)
class InstructionProfile:
    """Taxonomy of one static instruction's value stream."""

    pc: int
    breakdown: PatternBreakdown

    @property
    def dominant_class(self) -> str:
        """Disjoint class with the most hits ('residual' if none)."""
        candidates = [
            (self.breakdown.disjoint_constant, "constant"),
            (self.breakdown.disjoint_stride, "stride"),
            (self.breakdown.disjoint_context, "context"),
        ]
        hits, label = max(candidates)
        covered = sum(c for c, _ in candidates)
        if hits == 0 or covered * 2 < self.breakdown.total:
            return "residual"
        return label


class _PerPCState:
    __slots__ = ("last", "prev_diff", "history", "contexts", "count")

    def __init__(self, order: int):
        self.last = None
        self.prev_diff = None
        self.history: Tuple[int, ...] = ()
        self.contexts: Dict[Tuple[int, ...], int] = {}
        self.count = 0


def analyze_trace(trace: ValueTrace, order: int = 3,
                  min_occurrences: int = 1):
    """Per-instruction and whole-trace value-pattern taxonomy.

    Returns ``(profiles, summary)``: a list of
    :class:`InstructionProfile` (PCs with at least *min_occurrences*
    dynamic instances, sorted by dynamic count descending) and the
    pooled :class:`PatternBreakdown`.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    states: Dict[int, _PerPCState] = {}
    per_pc_counts: Dict[int, List[int]] = {}
    totals = [0, 0, 0, 0, 0, 0, 0]  # parallel to PatternBreakdown fields

    for pc, value in trace.records():
        value &= MASK32
        state = states.get(pc)
        if state is None:
            state = _PerPCState(order)
            states[pc] = state
            per_pc_counts[pc] = [0, 0, 0, 0, 0, 0, 0]
        counts = per_pc_counts[pc]
        state.count += 1
        counts[0] += 1
        totals[0] += 1

        constant_hit = state.last == value
        stride_hit = (
            state.last is not None and state.prev_diff is not None
            and (state.last + state.prev_diff) & MASK32 == value)
        context_hit = (
            len(state.history) == order
            and state.contexts.get(state.history) == value)

        for index, hit in ((1, constant_hit), (2, stride_hit),
                           (3, context_hit)):
            if hit:
                counts[index] += 1
                totals[index] += 1
        if constant_hit:
            disjoint = 4
        elif stride_hit:
            disjoint = 5
        elif context_hit:
            disjoint = 6
        else:
            disjoint = None
        if disjoint is not None:
            counts[disjoint] += 1
            totals[disjoint] += 1

        # Train the idealised predictors.
        if state.last is not None:
            state.prev_diff = (value - state.last) & MASK32
        if len(state.history) == order:
            state.contexts[state.history] = value
        state.history = (state.history + (value,))[-order:]
        state.last = value

    profiles = [
        InstructionProfile(pc, PatternBreakdown(*counts))
        for pc, counts in per_pc_counts.items()
        if counts[0] >= min_occurrences
    ]
    profiles.sort(key=lambda p: p.breakdown.total, reverse=True)
    return profiles, PatternBreakdown(*totals)
