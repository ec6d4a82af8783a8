"""Table-usage auditing: occupancy, aliasing, and efficiency metrics.

The paper's core claim is that DFCM wins by *using its tables more
efficiently*: stride patterns collapse onto single level-2 entries,
freeing capacity and cutting hash aliasing (sections 2.4 and 4.2).
This module is the one place that quantifies table usage:

- The paper's original per-figure analyses: :func:`stride_occupancy`
  (Figures 6/9) and the :class:`AliasingAnalyzer` five-way taxonomy
  (Figures 12-14).
- :class:`TableUsageAuditor` -- the general instrument: given a spec
  and a sampled ``(pc, value)`` stream it measures live occupancy,
  cold/dead-entry fractions, constructive-vs-destructive aliasing
  rates, per-level (L1/L2) accuracy attribution, reuse-distance
  histograms, and the headline *efficiency* metric -- correct
  predictions per live table bit -- comparable across families at
  equal storage.

The auditor has two executions of the same bookkeeping, chosen from
the spec:

batch (every spec :meth:`BatchEngine.supports`)
    the sampled stream runs through the vectorised kernels of
    :mod:`repro.core.engines.batch` with a slot-collecting probe on the
    :class:`~repro.core.engines.batch._KernelContext`, so the level-2
    index stream comes straight out of the kernel's own arrays;
scalar (the rest, e.g. non-FS hashes; also the parity reference)
    a stateful predictor replays the stream record by record, reading
    ``l1_index``/``l2_index`` off the instance.

Both feed identical index/correctness arrays into one shared
vectorised accumulator (:class:`_LevelAudit`), so the resulting
reports -- and the ``table_usage`` probe events built from them -- are
*equal by construction*; ``tests/telemetry/test_table_parity.py``
enforces it across families, cold and warm-started (chunked).
The ``table_usage`` probe audits a prefix of
:data:`repro.telemetry.probes.SAMPLE_LIMIT` records, like the other
heavyweight probes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.dfcm import DFCMPredictor
from repro.core.fcm import FCMPredictor
from repro.core.stride import StridePredictor
from repro.core.types import MASK32

__all__ = [
    "ALIAS_CATEGORIES", "AliasReport", "AliasingAnalyzer",
    "OccupancyResult", "stride_occupancy",
    "AUDITED_FAMILIES", "TableUsageAuditor",
    "state_table_specs", "table_stats_from_state", "level1_entries",
    "emit_table_usage",
]

#: Families the auditor can replay (the batch-kernel families).
AUDITED_FAMILIES = ("last_value", "stride", "stride2d", "fcm", "dfcm",
                    "oracle_hybrid")

#: Reuse-distance histogram buckets: bucket k counts re-accesses at
#: distance in [2^k, 2^(k+1)) records; the last bucket absorbs the tail.
REUSE_BUCKETS = 24


# =====================================================================
# Figures 6/9: level-2 occupancy by stride patterns.
# =====================================================================

@dataclass
class OccupancyResult:
    """Sorted per-entry stride-access counts for one predictor."""

    predictor_name: str
    l2_entries: int
    sorted_counts: List[int]  # descending; length == l2_entries
    stride_accesses: int      # total accesses that were part of a stride
    total_accesses: int

    def entries_with_at_least(self, threshold: int) -> int:
        """How many level-2 entries took >= *threshold* stride accesses.

        The paper's headline numbers are of this form ("more than 100
        entries are accessed more than 100 times", "582 entries more
        than 1000 times").
        """
        count = 0
        for accesses in self.sorted_counts:
            if accesses < threshold:
                break
            count += 1
        return count

    def top_share(self, k: int) -> float:
        """Fraction of all stride accesses landing on the top-*k* entries."""
        if self.stride_accesses == 0:
            return 0.0
        return sum(self.sorted_counts[:k]) / self.stride_accesses


def stride_occupancy(
    predictor: Union[FCMPredictor, DFCMPredictor],
    records: Iterable[Tuple[int, int]],
    reference: StridePredictor | None = None,
) -> OccupancyResult:
    """Run *records* through *predictor*, counting stride accesses per
    level-2 entry.

    Parameters
    ----------
    predictor:
        Fresh FCM or DFCM to instrument (it is trained as a side
        effect).
    records:
        The (pc, value) stream.
    reference:
        The stride predictor defining "part of a stride pattern";
        defaults to the paper's 64 K-entry table.
    """
    if not isinstance(predictor, (FCMPredictor, DFCMPredictor)):
        raise TypeError(
            "stride_occupancy instruments FCMPredictor or DFCMPredictor, "
            f"got {type(predictor).__name__}")
    if reference is None:
        reference = StridePredictor(1 << 16)
    counters = [0] * predictor.l2_entries
    stride_accesses = 0
    total = 0
    for pc, value in records:
        value &= MASK32
        total += 1
        if reference.predict(pc) == value:
            counters[predictor.l2_index(pc)] += 1
            stride_accesses += 1
        reference.update(pc, value)
        predictor.update(pc, value)
    counters.sort(reverse=True)
    return OccupancyResult(
        predictor_name=predictor.name,
        l2_entries=predictor.l2_entries,
        sorted_counts=counters,
        stride_accesses=stride_accesses,
        total_accesses=total,
    )


# =====================================================================
# Section 4.2: the five-way aliasing taxonomy.
# =====================================================================

ALIAS_CATEGORIES = ("l1", "hash", "l2_priv", "l2_pc", "none")


@dataclass
class AliasReport:
    """Per-category prediction counts for one predictor on one trace."""

    total: Dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in ALIAS_CATEGORIES})
    correct: Dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in ALIAS_CATEGORIES})

    def record(self, category: str, was_correct: bool) -> None:
        self.total[category] += 1
        if was_correct:
            self.correct[category] += 1

    @property
    def predictions(self) -> int:
        """Total number of classified predictions."""
        return sum(self.total.values())

    def wrong(self, category: str) -> int:
        return self.total[category] - self.correct[category]

    def fraction_of_predictions(self, category: str) -> float:
        """Share of all predictions in *category* (Figure 13)."""
        n = self.predictions
        return self.total[category] / n if n else 0.0

    def accuracy(self, category: str) -> float:
        """Prediction accuracy within *category* (Figure 12)."""
        n = self.total[category]
        return self.correct[category] / n if n else 0.0

    def misprediction_fraction(self, category: str) -> float:
        """Mispredictions in *category* as a share of all predictions
        (Figure 14; the per-benchmark bars stack to the global
        misprediction rate)."""
        n = self.predictions
        return self.wrong(category) / n if n else 0.0

    def overall_accuracy(self) -> float:
        n = self.predictions
        return sum(self.correct.values()) / n if n else 0.0

    def merged_with(self, other: "AliasReport") -> "AliasReport":
        """Pooled report (used for the paper's 'avg' bars)."""
        merged = AliasReport()
        for category in ALIAS_CATEGORIES:
            merged.total[category] = self.total[category] + other.total[category]
            merged.correct[category] = (
                self.correct[category] + other.correct[category])
        return merged


class AliasingAnalyzer:
    """Classify every prediction of an (D)FCM into the alias taxonomy.

    Categories (first matching rule wins): ``l1`` -- a history element
    was produced by a different static instruction; ``hash`` -- two
    different histories collided on the level-2 index; ``l2_priv`` --
    a private per-level-1-entry level-2 table would have predicted
    differently; ``l2_pc`` -- the entry was last updated by a
    different instruction with the same history; ``none``.

    Parameters
    ----------
    predictor:
        A fresh :class:`FCMPredictor` or :class:`DFCMPredictor`.  The
        analyzer drives it; do not update it externally.
    """

    def __init__(self, predictor: Union[FCMPredictor, DFCMPredictor]):
        if not isinstance(predictor, (FCMPredictor, DFCMPredictor)):
            raise TypeError(
                "AliasingAnalyzer instruments FCMPredictor or DFCMPredictor, "
                f"got {type(predictor).__name__}")
        self.predictor = predictor
        self.differential = isinstance(predictor, DFCMPredictor)
        order = predictor.order
        # Shadow level-1: per entry, the last `order` (producer_pc,
        # history element) pairs actually recorded.
        self._shadow_l1 = [deque(maxlen=order) for _ in range(predictor.l1_entries)]
        # Shadow level-2: per entry, the unhashed history stored at the
        # last update (None = never updated) and the updater's PC.
        self._l2_history = [None] * predictor.l2_entries
        self._l2_pc = [None] * predictor.l2_entries
        # Private level-2 tables, one dict per level-1 entry.
        self._private: list = [dict() for _ in range(predictor.l1_entries)]

    def _payload(self, l2_index: int) -> int:
        """Current level-2 payload (value for FCM, stride for DFCM)."""
        return self.predictor._l2[l2_index]

    def classify(self, pc: int) -> str:
        """Alias category the *next* prediction for *pc* falls into."""
        p = self.predictor
        l1_index = p.l1_index(pc)
        l2_index = p.l2_index(pc)
        recorded = self._shadow_l1[l1_index]
        if any(producer != pc for producer, _ in recorded):
            return "l1"
        current_history = tuple(element for _, element in recorded)
        if self._l2_history[l2_index] != current_history:
            return "hash"
        private_payload = self._private[l1_index].get(l2_index, 0)
        if private_payload != self._payload(l2_index):
            return "l2_priv"
        if self._l2_pc[l2_index] != pc:
            return "l2_pc"
        return "none"

    def step(self, pc: int, value: int) -> Tuple[bool, str]:
        """Predict+classify+update for one trace record."""
        value &= MASK32
        p = self.predictor
        category = self.classify(pc)
        correct = p.predict(pc) == value

        # Shadow bookkeeping mirrors the real update: the level-2 entry
        # indexed by the OLD history receives the new payload; the
        # history then grows by one element.
        l1_index = p.l1_index(pc)
        l2_index = p.l2_index(pc)
        old_history = tuple(e for _, e in self._shadow_l1[l1_index])
        if self.differential:
            stride = (value - p.last_value(pc)) & MASK32
            element = stride
            payload = p._store_stride(stride)
        else:
            element = value
            payload = value
        self._l2_history[l2_index] = old_history
        self._l2_pc[l2_index] = pc
        self._private[l1_index][l2_index] = payload
        self._shadow_l1[l1_index].append((pc, element))

        p.update(pc, value)
        return correct, category

    def run(self, records: Iterable[Tuple[int, int]]) -> AliasReport:
        """Classify a whole (pc, value) stream; returns the report."""
        report = AliasReport()
        for pc, value in records:
            correct, category = self.step(pc, value)
            report.record(category, correct)
        return report


# =====================================================================
# Static state audits: live bits from the actual table arrays.
# =====================================================================

def state_table_specs(spec) -> List[Tuple[str, "object"]]:
    """``(state_key, TableSpec)`` pairs aligning a spec's declared
    tables with its :meth:`~repro.core.spec.PredictorSpec.extract_state`
    keys (component tables get their ``c<i>.``/``inner.`` prefixes)."""
    from repro.core.spec import TableSpec
    family = spec.family
    if family in ("oracle_hybrid", "meta_hybrid"):
        out: List[Tuple[str, TableSpec]] = []
        for i, component in enumerate(spec.components):
            out.extend((f"c{i}.{key}", table)
                       for key, table in state_table_specs(component))
        if family == "meta_hybrid":
            out.extend(
                (f"meta{i}", TableSpec(f"meta{i}", spec.meta_entries,
                                       spec.counter_bits))
                for i in range(len(spec.components)))
        return out
    if family == "delayed":
        return [(f"inner.{key}", table)
                for key, table in state_table_specs(spec.inner)]
    return [(table.name, table) for table in spec.tables()]


def table_stats_from_state(spec, state: Dict[str, np.ndarray]) -> dict:
    """Live-entry statistics of an actual table-state snapshot.

    An entry is *live* when it holds a nonzero payload -- the closest
    observable proxy for "would a valid bit be set" on tables that
    reset to zero.  Returns per-table stats plus the pooled
    ``live_bits`` that the efficiency metric divides by.
    """
    tables = {}
    live_bits = 0
    for key, table in state_table_specs(spec):
        arr = state.get(key)
        live = int(np.count_nonzero(arr)) if arr is not None else 0
        bits = live * table.entry_bits
        live_bits += bits
        tables[key] = {
            "entries": table.entries,
            "entry_bits": table.entry_bits,
            "live": live,
            "live_fraction": round(live / table.entries, 6)
            if table.entries else 0.0,
        }
    storage_bits = spec.storage_bits()
    return {
        "tables": tables,
        "live_bits": live_bits,
        "storage_bits": storage_bits,
        "live_fraction": round(live_bits / storage_bits, 6)
        if storage_bits else 0.0,
    }


def level1_entries(spec) -> Optional[int]:
    """Size of the pc-indexed level-1 key space, or ``None``.

    Hybrids report their largest component table (the coarsest
    pc-conflict granularity that covers every component)."""
    family = spec.family
    if family in ("fcm", "dfcm"):
        return spec.l1_entries
    if family in ("last_value", "stride", "stride2d", "last_n"):
        return spec.entries
    if family == "delayed":
        return level1_entries(spec.inner)
    if family in ("oracle_hybrid", "meta_hybrid"):
        sizes = [level1_entries(c) for c in spec.components]
        sizes = [s for s in sizes if s]
        return max(sizes) if sizes else None
    return None


# =====================================================================
# The auditor.
# =====================================================================

class _SlotCollector:
    """Kernel probe that captures the per-record level-2 index stream
    (original record order) keyed by the emitting spec's name."""

    enabled = True

    __slots__ = ("slots",)

    def __init__(self):
        self.slots: Dict[str, np.ndarray] = {}

    def observe_l2(self, spec, slots: np.ndarray) -> None:
        self.slots[spec.name] = slots


class _LevelAudit:
    """Accumulates one table level's access statistics across chunks.

    Fed identical ``(pcs, keys, correct)`` arrays by both auditor
    engines; all arithmetic is vectorised NumPy, and the carried
    arrays (per-entry last writer / last access / access counts) make
    chunk boundaries invisible -- a chunked audit equals a one-shot
    audit bit for bit.
    """

    __slots__ = ("entries", "accesses", "conflicts", "conflict_correct",
                 "clean_correct", "counts", "_last_writer", "_last_access",
                 "reuse", "_seen")

    def __init__(self, entries: int):
        self.entries = entries
        self.accesses = 0
        self.conflicts = 0
        self.conflict_correct = 0
        self.clean_correct = 0
        self.counts = np.zeros(entries, dtype=np.int64)
        self._last_writer = np.full(entries, -1, dtype=np.int64)
        self._last_access = np.full(entries, -1, dtype=np.int64)
        self.reuse = np.zeros(REUSE_BUCKETS, dtype=np.int64)
        self._seen = 0  # records consumed so far (global access index)

    def observe(self, pcs: np.ndarray, keys: np.ndarray,
                correct: np.ndarray) -> None:
        n = len(keys)
        if n == 0:
            return
        index = np.arange(self._seen, self._seen + n, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        ps = pcs[order]
        cs = correct[order]
        idx = index[order]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(ks[1:], ks[:-1], out=is_start[1:])
        is_last = np.empty(n, dtype=bool)
        is_last[-1] = True
        is_last[:-1] = is_start[1:]
        # Previous writer pc / previous access index per record: the
        # prior same-key record in this chunk, else the carried table.
        prev_pc = np.empty(n, dtype=np.int64)
        prev_pc[1:] = ps[:-1]
        prev_pc[is_start] = self._last_writer[ks[is_start]]
        prev_idx = np.empty(n, dtype=np.int64)
        prev_idx[1:] = idx[:-1]
        prev_idx[is_start] = self._last_access[ks[is_start]]
        conflict = (prev_pc >= 0) & (prev_pc != ps)
        self.accesses += n
        self.conflicts += int(conflict.sum())
        self.conflict_correct += int((conflict & cs).sum())
        self.clean_correct += int((~conflict & cs).sum())
        reused = prev_idx >= 0
        if reused.any():
            dist = idx[reused] - prev_idx[reused]
            buckets = np.floor(np.log2(dist)).astype(np.int64)
            np.clip(buckets, 0, REUSE_BUCKETS - 1, out=buckets)
            self.reuse += np.bincount(buckets, minlength=REUSE_BUCKETS)
        np.add.at(self.counts, ks, 1)
        self._last_writer[ks[is_last]] = ps[is_last]
        self._last_access[ks[is_last]] = idx[is_last]
        self._seen += n

    def report(self) -> dict:
        n = self.accesses
        used = int(np.count_nonzero(self.counts))
        dead = int((self.counts == 1).sum())
        top16 = int(np.sort(self.counts)[-16:].sum()) if used else 0
        clean = n - self.conflicts
        return {
            "entries": self.entries,
            "accesses": n,
            "entries_used": used,
            "occupancy_ratio": round(used / self.entries, 6)
            if self.entries else 0.0,
            "cold_fraction": round(1.0 - used / self.entries, 6)
            if self.entries else 0.0,
            "dead_entries": dead,
            "top16_share": round(top16 / n, 6) if n else 0.0,
            "conflicts": self.conflicts,
            "alias_rate": round(self.conflicts / n, 6) if n else 0.0,
            "alias_constructive_rate": round(self.conflict_correct / n, 6)
            if n else 0.0,
            "alias_destructive_rate": round(
                (self.conflicts - self.conflict_correct) / n, 6)
            if n else 0.0,
            "accuracy_clean": round(self.clean_correct / clean, 6)
            if clean else 0.0,
            "accuracy_conflict": round(
                self.conflict_correct / self.conflicts, 6)
            if self.conflicts else 0.0,
            "reuse_histogram": self.reuse.tolist(),
        }


class TableUsageAuditor:
    """Audit one predictor configuration's table usage over a stream.

    Feed ``(pcs, values)`` chunks through :meth:`update` (chunking is
    invisible: carried per-entry state makes a warm-started chunked
    audit identical to a one-shot audit), then :meth:`report`.

    Parameters
    ----------
    spec:
        A :class:`~repro.core.spec.PredictorSpec` whose family is in
        :data:`AUDITED_FAMILIES`.

    The replay is chosen from the spec: the vectorised kernels with a
    slot-collecting probe when :meth:`BatchEngine.supports` it, a
    stateful predictor instance otherwise (e.g. a non-FS hash).  Both
    produce identical reports (the parity suite pins this); ``engine``
    names the one in use.
    """

    def __init__(self, spec):
        if spec.family not in AUDITED_FAMILIES:
            raise ValueError(
                f"{spec.name}: family {spec.family!r} is not auditable; "
                f"expected one of {AUDITED_FAMILIES}")
        from repro.core.engines.batch import BatchEngine
        self.spec = spec
        self.engine = "batch" if BatchEngine.supports(spec) else "scalar"
        self.records = 0
        self.correct = 0
        self._levels: Dict[str, _LevelAudit] = {}
        family = spec.family
        if family in ("fcm", "dfcm"):
            self._levels["l1"] = _LevelAudit(spec.l1_entries)
            self._levels["l2"] = _LevelAudit(spec.l2_entries)
        elif family in ("last_value", "stride", "stride2d"):
            self._levels["l1"] = _LevelAudit(spec.entries)
        # oracle_hybrid: headline + per-table stats only; its components
        # overlay distinct index spaces that have no single level.
        if self.engine == "batch":
            self._state = spec.extract_state(spec.build())
            self._predictor = None
        else:
            self._state = None
            self._predictor = spec.build()

    # ---------------------------------------------------------- update

    def update(self, pcs, values) -> None:
        """Audit one chunk of the sampled stream."""
        pcs = np.asarray(pcs, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64) & MASK32
        if len(pcs) != len(values):
            raise ValueError(f"pcs and values lengths differ: "
                             f"{len(pcs)} vs {len(values)}")
        if not len(pcs):
            return
        if self.engine == "batch":
            correct, l2_keys = self._run_batch(pcs, values)
        else:
            correct, l2_keys = self._run_scalar(pcs, values)
        l1 = self._levels.get("l1")
        if l1 is not None:
            l1.observe(pcs, (pcs >> 2) & (l1.entries - 1), correct)
        l2 = self._levels.get("l2")
        if l2 is not None and l2_keys is not None:
            l2.observe(pcs, l2_keys, correct)
        self.records += len(pcs)
        self.correct += int(correct.sum())

    def _run_batch(self, pcs, values):
        from repro.core.engines.batch import _KERNELS, _KernelContext
        ctx = _KernelContext(pcs, values)
        collector = _SlotCollector()
        ctx.probe = collector
        _, correct, self._state = _KERNELS[self.spec.family](
            self.spec, ctx, self._state, want_predicted=False)
        return correct, collector.slots.get(self.spec.name)

    def _run_scalar(self, pcs, values):
        p = self._predictor
        family = self.spec.family
        n = len(pcs)
        correct = np.empty(n, dtype=bool)
        if family in ("fcm", "dfcm"):
            l2_keys = np.empty(n, dtype=np.int64)
            for i in range(n):
                pc, value = int(pcs[i]), int(values[i])
                l2_keys[i] = p.l2_index(pc)
                correct[i] = p.predict(pc) == value
                p.update(pc, value)
            return correct, l2_keys
        if family == "oracle_hybrid":
            for i in range(n):
                correct[i] = p.step(int(pcs[i]), int(values[i]))
            return correct, None
        for i in range(n):
            pc, value = int(pcs[i]), int(values[i])
            correct[i] = p.predict(pc) == value
            p.update(pc, value)
        return correct, None

    # ---------------------------------------------------------- report

    def state(self) -> Dict[str, np.ndarray]:
        """The audited tables' current state snapshot."""
        if self.engine == "batch":
            return self._state
        return self.spec.extract_state(self._predictor)

    def access_counts(self, level: str) -> np.ndarray:
        """Raw per-entry access counts for *level* (``'l1'``/``'l2'``)."""
        return self._levels[level].counts

    def report(self) -> dict:
        """The ``table_usage`` report: headline efficiency + per-table
        liveness + per-level access statistics."""
        stats = table_stats_from_state(self.spec, self.state())
        live_bits = stats["live_bits"]
        out = {
            "predictor": self.spec.name,
            "family": self.spec.family,
            "sampled_records": self.records,
            "correct": self.correct,
            "accuracy": round(self.correct / self.records, 6)
            if self.records else 0.0,
            "storage_bits": stats["storage_bits"],
            "live_bits": live_bits,
            "live_fraction": stats["live_fraction"],
            "efficiency": round(self.correct / live_bits, 9)
            if live_bits else 0.0,
            "tables": stats["tables"],
            "levels": {name: audit.report()
                       for name, audit in self._levels.items()},
        }
        return out


# =====================================================================
# Event + gauge emission for the ``table_usage`` probe.
# =====================================================================

def emit_table_usage(run, report: dict, trace_name: str) -> None:
    """Registry gauges + one ``table_usage`` probe event for *report*."""
    from repro.telemetry.registry import registry
    reg = registry()
    labels = dict(predictor=report["predictor"], trace=trace_name)
    reg.gauge("repro_table_efficiency",
              "Correct predictions per live table bit (sampled prefix)",
              labels=("predictor", "trace")).set(report["efficiency"],
                                                 **labels)
    reg.gauge("repro_table_live_fraction",
              "Live (nonzero) fraction of modelled predictor storage "
              "(sampled prefix)", labels=("predictor", "trace")
              ).set(report["live_fraction"], **labels)
    l2 = report["levels"].get("l2")
    if l2 is not None:
        reg.gauge("repro_table_alias_destructive_rate",
                  "Level-2 accesses whose entry was last written by a "
                  "different pc and whose prediction missed (sampled "
                  "prefix)", labels=("predictor", "trace")
                  ).set(l2["alias_destructive_rate"], **labels)
    event = {"type": "probe", "probe": "table_usage", "trace": trace_name}
    event.update(report)
    run.emit(event)
