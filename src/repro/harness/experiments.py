"""The per-figure experiment registry.

Every table and figure of the paper's evaluation section has a
registered experiment that regenerates it:

===========  =========================================================
id           paper artifact
===========  =========================================================
table1       Table 1 (benchmark descriptions and prediction counts)
fig3         Figure 3 (LVP / stride / FCM accuracy vs size)
fig6_9       Figures 6 & 9 (stride occupancy of the level-2 table)
fig10        Figure 10 (FCM vs DFCM accuracy; per-benchmark split)
fig11        Figure 11 (DFCM size curves; FCM vs DFCM Pareto fronts)
fig12_14     Figures 12-14 (aliasing taxonomy)
fig16        Figure 16 (perfect hybrids)
sec4_4       Section 4.4 (partial-stride level-2 widths)
fig17        Figure 17 (delayed update)
ablation_*   design-choice ablations called out in DESIGN.md
ext_*        extensions beyond the paper: the §4.2 confidence
             estimator, value-pattern taxonomy, optimisation-level and
             input-seed robustness, controlled pattern-mix sweep
===========  =========================================================

Each experiment takes the benchmark traces plus a ``fast`` flag: fast
mode shrinks sweeps to a representative subset (used by the pytest
benchmarks); full mode reproduces the paper's whole grid (used by
``examples/paper_figures.py``).
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.dfcm import DFCMPredictor
from repro.core.fcm import FCMPredictor
from repro.core.spec import (DFCMSpec, DelayedSpec, FCMSpec, HashSpec,
                             LastValueSpec, MetaHybridSpec, OracleHybridSpec,
                             StrideSpec)
from repro.core.stride import StridePredictor
from repro.harness.config import single_trace, suite_traces
from repro.harness.report import ExperimentResult, Table
from repro.harness.simulate import measure_suite
from repro.harness.sweep import SweepPoint, pareto_front, sweep
from repro.telemetry.spans import span
from repro.telemetry.tables import (ALIAS_CATEGORIES, AliasingAnalyzer,
                                    AliasReport, stride_occupancy)
from repro.trace.trace import ValueTrace

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids",
           "UnknownExperimentError"]

EXPERIMENTS: Dict[str, Callable] = {}


class UnknownExperimentError(KeyError):
    """Lookup of an experiment id that isn't registered."""


def _experiment(experiment_id: str):
    def register(fn):
        EXPERIMENTS[experiment_id] = fn
        return fn
    return register


def experiment_ids() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str,
                   traces: Optional[Sequence[ValueTrace]] = None,
                   fast: bool = False,
                   limit: Optional[int] = None,
                   jobs: Optional[int] = None) -> ExperimentResult:
    """Run one registered experiment; traces default to the full suite.

    *jobs* installs the process default for the duration (the CLI's
    ``--jobs`` flag); ``None`` leaves whatever default is already in
    force untouched.
    """
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(experiment_ids())}") from None
    with contextlib.ExitStack() as stack:
        if jobs is not None:
            from repro.harness.executor import executor_default
            stack.enter_context(executor_default(jobs=jobs))
        with span("experiment", experiment=experiment_id, fast=fast,
                  limit=limit):
            if traces is None:
                with span("load_traces", limit=limit):
                    traces = suite_traces(limit)
            return fn(traces, fast=fast)


# ---------------------------------------------------------------- table 1

@_experiment("table1")
def table1(traces, fast: bool = False) -> ExperimentResult:
    """Table 1: benchmark descriptions and prediction counts."""
    from repro.workloads.registry import get_workload
    result = ExperimentResult("table1", "Benchmark description")
    table = Table("Benchmarks (paper Table 1 analogue)",
                  ["benchmark", "paper options", "mini-kernel",
                   "predictions", "static instrs", "distinct values"])
    for trace in traces:
        workload = get_workload(trace.name)
        stats = trace.stats()
        table.add(trace.name, workload.paper_options, workload.description,
                  stats.predictions, stats.static_instructions,
                  stats.distinct_values)
    result.tables.append(table)
    result.notes.append(
        "paper traces are 122-157M predictions from SimpleScalar; these "
        "are MinC mini-kernels at the configured REPRO_TRACE_LEN")
    return result


# ---------------------------------------------------------------- figure 3

def _log_range(fast_values, full_values, fast):
    return fast_values if fast else full_values


@_experiment("fig3")
def fig3(traces, fast: bool = False) -> ExperimentResult:
    """Figure 3: LVP, stride and FCM accuracy vs storage size."""
    result = ExperimentResult(
        "fig3", "LV, Stride and FCM predictors: accuracy vs. size")

    simple_bits = _log_range([8, 12, 16], [6, 8, 10, 12, 14, 16], fast)
    table = Table("LVP and stride predictors",
                  ["predictor", "entries", "size_kbit", "accuracy"])
    for bits in simple_bits:
        for kind, spec in (("lvp", LastValueSpec(1 << bits)),
                           ("stride", StrideSpec(1 << bits))):
            point = sweep([spec], traces)[0]
            table.add(kind, 1 << bits, point.size_kbit, point.accuracy)
    result.tables.append(table)

    l1_bits = _log_range([4, 10, 16], [0, 4, 6, 8, 10, 12, 14, 16], fast)
    l2_bits = _log_range([8, 12, 16], [8, 10, 12, 14, 16, 18, 20], fast)
    fcm_table = Table("FCM grid (one curve per level-1 size)",
                      ["l1_entries", "l2_entries", "order", "size_kbit",
                       "accuracy"])
    for l1 in l1_bits:
        for l2 in l2_bits:
            spec = FCMSpec(1 << l1, 1 << l2)
            point = sweep([spec], traces)[0]
            fcm_table.add(1 << l1, 1 << l2, spec.hash.order,
                          point.size_kbit, point.accuracy)
    result.tables.append(fcm_table)
    result.notes.append(
        "paper: FCM is the most accurate but needs huge level-2 tables; "
        "check accuracy(FCM, large L2) > accuracy(stride) > accuracy(lvp)")
    return result


# ------------------------------------------------------------ figures 6 & 9

@_experiment("fig6_9")
def fig6_9(traces, fast: bool = False) -> ExperimentResult:
    """Figures 6 & 9: stride-pattern occupancy of the level-2 table."""
    result = ExperimentResult(
        "fig6_9", "Stride accesses per (sorted) level-2 entry: FCM vs DFCM")
    l1, l2 = (1 << 16, 1 << 12)
    for bench in ("norm", "li"):
        trace = single_trace(bench, 30_000 if fast else None)
        records = trace.records()
        fcm = stride_occupancy(FCMPredictor(l1, l2), records,
                               StridePredictor(1 << 16))
        dfcm = stride_occupancy(DFCMPredictor(l1, l2), records,
                                StridePredictor(1 << 16))
        table = Table(f"occupancy summary for {bench}",
                      ["predictor", "stride_accesses", "entries_used",
                       "entries_ge_100", "entries_ge_1000", "top16_share"])
        for occ in (fcm, dfcm):
            table.add(occ.predictor_name, occ.stride_accesses,
                      occ.entries_with_at_least(1),
                      occ.entries_with_at_least(100),
                      occ.entries_with_at_least(1000),
                      occ.top_share(16))
        result.tables.append(table)

        curve = Table(f"sorted occupancy curve for {bench} "
                      "(every 64th entry)",
                      ["rank", "fcm_accesses", "dfcm_accesses"])
        for rank in range(0, l2, 64):
            curve.add(rank, fcm.sorted_counts[rank], dfcm.sorted_counts[rank])
        result.tables.append(curve)
    result.notes.append(
        "paper: DFCM concentrates stride accesses on a handful of hot "
        "entries while FCM spreads them over most of the table")
    return result


# ---------------------------------------------------------------- figure 10

@_experiment("fig10")
def fig10(traces, fast: bool = False) -> ExperimentResult:
    """Figure 10: FCM vs DFCM, L1 = 2^16, level-2 swept; per-benchmark."""
    result = ExperimentResult("fig10", "Prediction accuracy of FCM vs DFCM")
    l1 = 1 << 16
    l2_bits = _log_range([8, 12, 16], [8, 10, 12, 14, 16, 18, 20], fast)

    table = Table("accuracy vs level-2 size (L1 = 2^16)",
                  ["log2_l2", "fcm", "dfcm", "relative_gain"])
    for bits in l2_bits:
        fcm = measure_suite(FCMSpec(l1, 1 << bits), traces)
        dfcm = measure_suite(DFCMSpec(l1, 1 << bits), traces)
        gain = (dfcm.accuracy - fcm.accuracy) / fcm.accuracy if fcm.accuracy else 0.0
        table.add(bits, fcm.accuracy, dfcm.accuracy, gain)
    result.tables.append(table)

    per_bench = Table("per-benchmark accuracy (L1 = 2^16, L2 = 2^12)",
                      ["benchmark", "fcm", "dfcm"])
    fcm = measure_suite(FCMSpec(l1, 1 << 12), traces)
    dfcm = measure_suite(DFCMSpec(l1, 1 << 12), traces)
    for trace in traces:
        per_bench.add(trace.name, fcm.accuracy_of(trace.name),
                      dfcm.accuracy_of(trace.name))
    per_bench.add("weighted_avg", fcm.accuracy, dfcm.accuracy)
    result.tables.append(per_bench)
    result.notes.append(
        "paper: +8% relative for very large tables, up to +33% for small "
        "ones; +19% at L2=2^12, every benchmark improves")
    return result


# ---------------------------------------------------------------- figure 11

@_experiment("fig11")
def fig11(traces, fast: bool = False) -> ExperimentResult:
    """Figure 11: DFCM accuracy vs total size; FCM/DFCM Pareto fronts."""
    result = ExperimentResult(
        "fig11", "Prediction accuracy vs size; Pareto graphs")
    l1_bits = _log_range([10, 16], [10, 12, 14, 16], fast)
    l2_bits = _log_range([8, 12, 16], [8, 10, 12, 14, 16, 18, 20], fast)

    dfcm_points: List[SweepPoint] = []
    fcm_points: List[SweepPoint] = []
    curve = Table("DFCM accuracy vs size (one curve per L1)",
                  ["l1_entries", "l2_entries", "size_kbit", "accuracy"])
    for l1 in l1_bits:
        for l2 in l2_bits:
            dfcm_point = sweep([DFCMSpec(1 << l1, 1 << l2)], traces)[0]
            fcm_point = sweep([FCMSpec(1 << l1, 1 << l2)], traces)[0]
            dfcm_points.append(dfcm_point)
            fcm_points.append(fcm_point)
            curve.add(1 << l1, 1 << l2, dfcm_point.size_kbit,
                      dfcm_point.accuracy)
    result.tables.append(curve)

    front = Table("Pareto fronts (accuracy vs Kbit)",
                  ["predictor", "size_kbit", "accuracy", "label"])
    for point in pareto_front(fcm_points):
        front.add("fcm", point.size_kbit, point.accuracy, point.label)
    for point in pareto_front(dfcm_points):
        front.add("dfcm", point.size_kbit, point.accuracy, point.label)
    result.tables.append(front)
    result.notes.append(
        "paper: DFCM's Pareto front sits .06-.09 above FCM's except at "
        "the smallest sizes (~.09 at ~200 Kbit, a 15% relative gain)")
    return result


# ------------------------------------------------------------ figures 12-14

def _alias_report_rows(table: Table, name: str, report: AliasReport,
                       fractions_of) -> None:
    row = [name]
    for category in ALIAS_CATEGORIES:
        row.append(fractions_of(report, category))
    table.add(*row)


@_experiment("fig12_14")
def fig12_14(traces, fast: bool = False) -> ExperimentResult:
    """Figures 12-14: the aliasing taxonomy, FCM vs DFCM."""
    result = ExperimentResult(
        "fig12_14", "Alias analysis (l1 / hash / l2_priv / l2_pc / none)")
    l1, l2 = 1 << 12, 1 << 12
    reports = {}
    for kind, cls in (("fcm", FCMPredictor), ("dfcm", DFCMPredictor)):
        per_bench = {}
        pooled = AliasReport()
        for trace in traces:
            analyzer = AliasingAnalyzer(cls(l1, l2))
            report = analyzer.run(trace.records())
            per_bench[trace.name] = report
            pooled = pooled.merged_with(report)
        reports[kind] = (per_bench, pooled)

    fig12 = Table("Figure 12: accuracy within each aliasing type (FCM, avg)",
                  ["category", "fraction_of_predictions", "accuracy"])
    pooled_fcm = reports["fcm"][1]
    for category in ALIAS_CATEGORIES:
        fig12.add(category, pooled_fcm.fraction_of_predictions(category),
                  pooled_fcm.accuracy(category))
    result.tables.append(fig12)

    for kind in ("fcm", "dfcm"):
        per_bench, pooled = reports[kind]
        fig13 = Table(f"Figure 13 ({kind}): alias mix, all predictions",
                      ["benchmark"] + list(ALIAS_CATEGORIES))
        for name, report in per_bench.items():
            _alias_report_rows(fig13, name, report,
                               AliasReport.fraction_of_predictions)
        _alias_report_rows(fig13, "avg", pooled,
                           AliasReport.fraction_of_predictions)
        result.tables.append(fig13)

        fig14 = Table(f"Figure 14 ({kind}): alias mix of mispredictions "
                      "(fraction of all predictions)",
                      ["benchmark"] + list(ALIAS_CATEGORIES))
        for name, report in per_bench.items():
            _alias_report_rows(fig14, name, report,
                               AliasReport.misprediction_fraction)
        _alias_report_rows(fig14, "avg", pooled,
                           AliasReport.misprediction_fraction)
        result.tables.append(fig14)

    result.notes.append(
        "paper: DFCM trades quasi-random hash aliasing for predictable "
        "l2_pc sharing; hash remains the dominant misprediction source")
    return result


# ---------------------------------------------------------------- figure 16

@_experiment("fig16")
def fig16(traces, fast: bool = False) -> ExperimentResult:
    """Figure 16: DFCM vs perfect hybrid predictors."""
    result = ExperimentResult("fig16", "Hybrid predictors (perfect meta)")
    l1 = 1 << 16
    stride_entries = 1 << 16
    l2_bits = _log_range([8, 12, 16], [8, 10, 12, 14, 16, 18, 20], fast)
    table = Table("accuracy vs level-2 size",
                  ["log2_l2", "fcm", "dfcm", "stride+fcm", "stride+dfcm"])
    for bits in l2_bits:
        fcm = measure_suite(FCMSpec(l1, 1 << bits), traces)
        dfcm = measure_suite(DFCMSpec(l1, 1 << bits), traces)
        hybrid_fcm = measure_suite(
            OracleHybridSpec((StrideSpec(stride_entries),
                              FCMSpec(l1, 1 << bits)), label="stride+fcm"),
            traces)
        hybrid_dfcm = measure_suite(
            OracleHybridSpec((StrideSpec(stride_entries),
                              DFCMSpec(l1, 1 << bits)), label="stride+dfcm"),
            traces)
        table.add(bits, fcm.accuracy, dfcm.accuracy, hybrid_fcm.accuracy,
                  hybrid_dfcm.accuracy)
    result.tables.append(table)
    result.notes.append(
        "paper: DFCM >= perfect STRIDE+FCM everywhere; perfect "
        "STRIDE+DFCM adds only .02-.04 over plain DFCM")
    return result


# -------------------------------------------------------------- section 4.4

@_experiment("sec4_4")
def sec4_4(traces, fast: bool = False) -> ExperimentResult:
    """Section 4.4: partial strides in the level-2 table."""
    result = ExperimentResult(
        "sec4_4", "Size of difference values stored in level 2")
    l1 = 1 << 16
    l2_bits = _log_range([12], [10, 12, 14, 16], fast)
    table = Table("accuracy and size by stride width",
                  ["log2_l2", "stride_bits", "size_kbit", "accuracy",
                   "accuracy_drop_vs_32"])
    for bits in l2_bits:
        baseline = None
        for width in (32, 16, 8):
            point = sweep([DFCMSpec(l1, 1 << bits, stride_bits=width)],
                          traces)[0]
            if width == 32:
                baseline = point.accuracy
            table.add(bits, width, point.size_kbit, point.accuracy,
                      baseline - point.accuracy)
    result.tables.append(table)
    result.notes.append(
        "paper: 16-bit strides cost .01-.03 accuracy, 8-bit .05-.08; "
        "shrinking the entry count is the better trade")
    return result


# ---------------------------------------------------------------- figure 17

@_experiment("fig17")
def fig17(traces, fast: bool = False) -> ExperimentResult:
    """Figure 17: prediction accuracy under delayed update."""
    result = ExperimentResult("fig17", "Delayed update")
    l1, l2 = 1 << 16, 1 << 12
    delays = [0, 16, 64] if fast else [0, 16, 32, 64, 128, 256, 512]
    table = Table("accuracy vs update delay (L1=2^16, L2=2^12)",
                  ["delay", "fcm", "dfcm"])
    for delay in delays:
        fcm = measure_suite(DelayedSpec(FCMSpec(l1, l2), delay), traces)
        dfcm = measure_suite(DelayedSpec(DFCMSpec(l1, l2), delay), traces)
        table.add(delay, fcm.accuracy, dfcm.accuracy)
    result.tables.append(table)
    result.notes.append(
        "paper: both predictors degrade significantly with delay, DFCM "
        "slightly more, with the same overall behaviour")
    return result


# ---------------------------------------------------------------- ablations

@_experiment("ablation_hash")
def ablation_hash(traces, fast: bool = False) -> ExperimentResult:
    """Hash-function ablation: FS(R-5) vs FS(R-3) vs plain XOR fold."""
    result = ExperimentResult(
        "ablation_hash", "History hash ablation (paper fixes FS R-5)")
    l1, l2 = 1 << 16, 1 << 12
    index_bits = 12
    variants = [
        ("fs_r5", HashSpec(index_bits, "fs", shift=5)),
        ("fs_r3", HashSpec(index_bits, "fs", shift=3)),
        ("fs_r1", HashSpec(index_bits, "fs", shift=1)),
        ("xor_o3", HashSpec(index_bits, "xor", order=3)),
    ]
    table = Table("accuracy by hash function (L1=2^16, L2=2^12)",
                  ["hash", "order", "fcm", "dfcm"])
    for name, hash_spec in variants:
        fcm = measure_suite(FCMSpec(l1, l2, hash=hash_spec), traces)
        dfcm = measure_suite(DFCMSpec(l1, l2, hash=hash_spec), traces)
        table.add(name, hash_spec.order, fcm.accuracy, dfcm.accuracy)
    result.tables.append(table)
    return result


@_experiment("ablation_order")
def ablation_order(traces, fast: bool = False) -> ExperimentResult:
    """Order ablation: decouple history length from the table size."""
    result = ExperimentResult(
        "ablation_order", "Predictor order ablation (paper couples "
        "order = ceil(n/5))")
    l1, l2 = 1 << 16, 1 << 12
    index_bits = 12
    table = Table("accuracy by order (L1=2^16, L2=2^12)",
                  ["order", "shift", "fcm", "dfcm"])
    for order in (1, 2, 3, 4):
        # Keep the hash incremental: shift = ceil(index_bits / order).
        shift = math.ceil(index_bits / order)
        hash_spec = HashSpec(index_bits, "fs", order=order, shift=shift)
        fcm = measure_suite(FCMSpec(l1, l2, hash=hash_spec), traces)
        dfcm = measure_suite(DFCMSpec(l1, l2, hash=hash_spec), traces)
        table.add(order, shift, fcm.accuracy, dfcm.accuracy)
    result.tables.append(table)
    return result


@_experiment("ext_confidence")
def ext_confidence(traces, fast: bool = False) -> ExperimentResult:
    """Extension: the confidence estimator the paper suggests but does
    not evaluate (section 4.2: tag level 2 with an orthogonal hash)."""
    from repro.core.estimator import (CounterConfidencePredictor,
                                      TaggedDFCMPredictor,
                                      measure_confidence)
    result = ExperimentResult(
        "ext_confidence",
        "Confidence estimation: saturating counters vs orthogonal-hash "
        "level-2 tags (paper section 4.2 suggestion)")
    l1, l2 = 1 << 16, 1 << 12
    schemes = [
        ("counter(3b,thr=7)", lambda: CounterConfidencePredictor(
            DFCMPredictor(l1, l2), 1 << 12)),
        ("tag(4b)", lambda: TaggedDFCMPredictor(l1, l2, tag_bits=4)),
        ("tag(8b)", lambda: TaggedDFCMPredictor(l1, l2, tag_bits=8)),
        ("counter+tag(4b)", lambda: CounterConfidencePredictor(
            TaggedDFCMPredictor(l1, l2, tag_bits=4), 1 << 12)),
    ]
    table = Table("coverage / accuracy-when-confident (DFCM base)",
                  ["scheme", "overall", "coverage",
                   "accuracy_when_confident"])
    for label, make in schemes:
        total = confident = confident_correct = overall_correct = 0
        for trace in traces:
            outcome = measure_confidence(make(), trace)
            total += outcome.total
            confident += outcome.confident
            confident_correct += outcome.confident_correct
            overall_correct += outcome.overall_correct
        table.add(label,
                  overall_correct / total if total else 0.0,
                  confident / total if total else 0.0,
                  confident_correct / confident if confident else 0.0)
    result.tables.append(table)
    result.notes.append(
        "paper suggestion verified: tags from a second, orthogonal hash "
        "detect hash aliasing and lift accuracy inside the confident set "
        "at much higher coverage than counters alone")
    return result


@_experiment("ext_l1_pressure")
def ext_l1_pressure(traces, fast: bool = False) -> ExperimentResult:
    """Extension: restore the paper's level-1 sensitivity at scale.

    The MinC mini-kernels have a few hundred static instructions, so
    the Figure-3 level-1 family collapses at 2^10 entries (the paper's
    SPEC binaries, with tens of thousands of statics, separate up to
    2^14).  A synthetic trace with ~16k static instructions restores
    the paper's shape: accuracy climbs with the level-1 size until the
    static working set fits, for both FCM and DFCM.
    """
    from repro.workloads.synthetic import PatternMix, mixed_trace
    result = ExperimentResult(
        "ext_l1_pressure",
        "Level-1 size sensitivity under a large static working set")
    statics = 4_096 if fast else 16_384
    length = 60_000 if fast else 200_000
    mix = PatternMix(constant=0.25, stride=0.3, context=0.35, random=0.1,
                     seed=11)
    synthetic = [mixed_trace(mix, instructions=statics, length=length,
                             name="l1_pressure")]
    l1_bits = [8, 12, 16] if fast else [8, 10, 12, 14, 16]
    table = Table(f"accuracy vs level-1 size ({statics} static "
                  "instructions, L2=2^12)",
                  ["log2_l1", "fcm", "dfcm"])
    for bits in l1_bits:
        fcm = measure_suite(FCMSpec(1 << bits, 1 << 12), synthetic)
        dfcm = measure_suite(DFCMSpec(1 << bits, 1 << 12), synthetic)
        table.add(bits, fcm.accuracy, dfcm.accuracy)
    result.tables.append(table)
    result.notes.append(
        "repairs the scale gap of the MinC traces: with a SPEC-sized "
        "static working set the level-1 family separates as in the "
        "paper's Figure 3")
    return result


@_experiment("ext_mix")
def ext_mix(traces, fast: bool = False) -> ExperimentResult:
    """Extension: the DFCM gap as a function of the stride share.

    Synthetic traces with a controlled pattern mix isolate the paper's
    mechanism: holding constants and noise fixed, the stride share of
    the workload is traded against the context share.  The DFCM's
    advantage over the FCM must grow with the stride share (strides
    are what crowd the FCM's level-2 table), and vanish when the
    workload is pure context.
    """
    from repro.workloads.synthetic import PatternMix, mixed_trace
    result = ExperimentResult(
        "ext_mix", "FCM vs DFCM vs stride share of the workload")
    length = 20_000 if fast else 60_000
    stride_shares = [0.0, 0.4, 0.8] if fast else [0.0, 0.2, 0.4, 0.6, 0.8]
    table = Table("accuracy vs stride share (constant=.1, random=.1, "
                  "L1=2^12, L2=2^10)",
                  ["stride_share", "context_share", "stride_pred", "fcm",
                   "dfcm", "dfcm_minus_fcm"])
    for share in stride_shares:
        context_share = 0.8 - share
        mix = PatternMix(constant=0.1, stride=share,
                         context=context_share, random=0.1, seed=7)
        synthetic = [mixed_trace(mix, instructions=96, length=length,
                                 name=f"mix_{share:.1f}")]
        stride = measure_suite(StrideSpec(1 << 12), synthetic)
        fcm = measure_suite(FCMSpec(1 << 12, 1 << 10), synthetic)
        dfcm = measure_suite(DFCMSpec(1 << 12, 1 << 10), synthetic)
        table.add(share, round(context_share, 1), stride.accuracy,
                  fcm.accuracy, dfcm.accuracy,
                  dfcm.accuracy - fcm.accuracy)
    result.tables.append(table)
    result.notes.append(
        "isolates the paper's mechanism: more stride patterns -> more "
        "FCM level-2 crowding -> larger DFCM advantage")
    return result


@_experiment("ext_seeds")
def ext_seeds(traces, fast: bool = False) -> ExperimentResult:
    """Extension: robustness of the DFCM win across workload inputs.

    The paper evaluates one input per benchmark.  Here every workload
    is re-run with different PRNG seeds (i.e. different concrete
    inputs of the same character) and the FCM-vs-DFCM comparison is
    repeated -- the headline ordering should not be an artifact of one
    particular input.
    """
    from repro.trace.capture import capture_source
    from repro.workloads.registry import get_workload
    result = ExperimentResult(
        "ext_seeds", "FCM vs DFCM across workload input seeds")
    seeds = [123456789, 42, 2_000_000_011] if not fast else [123456789, 42]
    limit = min(len(traces[0]) if traces else 30_000, 30_000)
    names = [trace.name for trace in traces]
    table = Table("suite accuracy per seed (L1=2^16, L2=2^12)",
                  ["seed", "fcm", "dfcm", "dfcm_wins"])
    for seed in seeds:
        seeded = []
        for name in names:
            source = get_workload(name).source.replace(
                "int __rand_state = 123456789;",
                f"int __rand_state = {seed};")
            seeded.append(capture_source(name, source, limit))
        fcm = measure_suite(FCMSpec(1 << 16, 1 << 12), seeded)
        dfcm = measure_suite(DFCMSpec(1 << 16, 1 << 12), seeded)
        table.add(seed, fcm.accuracy, dfcm.accuracy,
                  "yes" if dfcm.accuracy > fcm.accuracy else "no")
    result.tables.append(table)
    result.notes.append(
        "traces are re-captured per seed (not cached); the DFCM must "
        "win on every input for the reproduction to be robust")
    return result


@_experiment("ext_optlevel")
def ext_optlevel(traces, fast: bool = False) -> ExperimentResult:
    """Extension: value predictability vs compiler optimisation level.

    The paper's traces come from gcc -O2; ours from a stack-discipline
    compiler (-O0-like).  This experiment quantifies the effect: the
    same workloads compiled with the peephole optimizer enabled
    (store-load forwarding, frame-slot caching, immediate fusion --
    which removes trivially predictable loads and ``li`` constants)
    are predicted with slightly lower accuracy across all predictors,
    confirming that better code shifts the mix away from easy patterns.
    """
    from repro.trace.cache import cached_trace
    result = ExperimentResult(
        "ext_optlevel",
        "Value predictability vs compiler optimisation level")
    limit = len(traces[0]) if traces else None
    names = [trace.name for trace in traces]
    suites = {
        "O0": list(traces),
        "O1": [cached_trace(name, limit, optimize=1) for name in names],
        "O2": [cached_trace(name, limit, optimize=2) for name in names],
    }
    table = Table("suite accuracy by optimisation level (L1=2^16, L2=2^12)",
                  ["predictor", "O0", "O1", "O2", "delta_O2_vs_O0"])
    contenders = [
        ("lvp", LastValueSpec(1 << 12)),
        ("stride", StrideSpec(1 << 12)),
        ("fcm", FCMSpec(1 << 16, 1 << 12)),
        ("dfcm", DFCMSpec(1 << 16, 1 << 12)),
    ]
    for label, spec in contenders:
        accuracy = {level: measure_suite(spec, suite).accuracy
                    for level, suite in suites.items()}
        table.add(label, accuracy["O0"], accuracy["O1"], accuracy["O2"],
                  accuracy["O2"] - accuracy["O0"])
    result.tables.append(table)
    result.notes.append(
        "the paper's absolute accuracies (gcc -O2 traces) sit below "
        "ours; this experiment shows the direction of that gap on our "
        "own compiler's optimisation axis")
    return result


@_experiment("ext_taxonomy")
def ext_taxonomy(traces, fast: bool = False) -> ExperimentResult:
    """Extension: value-pattern taxonomy of the benchmark traces.

    The Sazeides-style predictability characterisation underlying the
    paper's motivation: per benchmark, the fraction of predictions an
    *idealised* (unbounded, per-PC) predictor of each class would get
    right, and the disjoint attribution constant > stride > context.
    The gap between the 'context' upper bound and the measured FCM of
    Figure 10 is exactly the table-pressure loss the DFCM attacks.
    """
    from repro.trace.analysis import analyze_trace
    result = ExperimentResult(
        "ext_taxonomy", "Idealised value-pattern taxonomy per benchmark")
    table = Table("upper bounds and disjoint mix (idealised predictors)",
                  ["benchmark", "constant_ub", "stride_ub", "context_ub",
                   "dj_constant", "dj_stride", "dj_context", "residual"])
    pooled = [0] * 7
    for trace in traces:
        _, summary = analyze_trace(trace)
        table.add(trace.name, summary.constant_rate, summary.stride_rate,
                  summary.context_rate,
                  summary.rate(summary.disjoint_constant),
                  summary.rate(summary.disjoint_stride),
                  summary.rate(summary.disjoint_context),
                  summary.residual_rate)
        for i, field in enumerate((summary.total, summary.constant_hits,
                                   summary.stride_hits,
                                   summary.context_hits,
                                   summary.disjoint_constant,
                                   summary.disjoint_stride,
                                   summary.disjoint_context)):
            pooled[i] += field
    total = pooled[0] or 1
    table.add("weighted_avg", pooled[1] / total, pooled[2] / total,
              pooled[3] / total, pooled[4] / total, pooled[5] / total,
              pooled[6] / total,
              (pooled[0] - pooled[4] - pooled[5] - pooled[6]) / total)
    result.tables.append(table)
    result.notes.append(
        "bounds are per-instruction (private unbounded tables); a real "
        "shared-table (D)FCM can exceed them through constructive "
        "cross-instruction sharing (the benign l2_pc category of "
        "Figure 13) and, for the DFCM, by predicting never-seen values "
        "on fresh stride patterns")
    return result


@_experiment("ablation_meta")
def ablation_meta(traces, fast: bool = False) -> ExperimentResult:
    """Extension of Figure 16: oracle vs realisable meta-predictor."""
    result = ExperimentResult(
        "ablation_meta",
        "Hybrid selection: perfect meta vs saturating-counter meta")
    l1 = 1 << 16
    stride_entries = 1 << 16
    l2_bits = [12] if fast else [10, 12, 14]
    table = Table("accuracy by selection mechanism",
                  ["log2_l2", "fcm", "dfcm", "meta(stride+fcm)",
                   "oracle(stride+fcm)"])
    for bits in l2_bits:
        fcm = measure_suite(FCMSpec(l1, 1 << bits), traces)
        dfcm = measure_suite(DFCMSpec(l1, 1 << bits), traces)
        meta = measure_suite(
            MetaHybridSpec((StrideSpec(stride_entries),
                            FCMSpec(l1, 1 << bits)), 1 << 14),
            traces)
        oracle = measure_suite(
            OracleHybridSpec((StrideSpec(stride_entries),
                              FCMSpec(l1, 1 << bits))),
            traces)
        table.add(bits, fcm.accuracy, dfcm.accuracy, meta.accuracy,
                  oracle.accuracy)
    result.tables.append(table)
    result.notes.append(
        "paper argument quantified: a realisable meta-predictor gives "
        "away part of the oracle hybrid's edge, while the DFCM needs no "
        "selector at all")
    return result


@_experiment("ablation_confidence")
def ablation_confidence(traces, fast: bool = False) -> ExperimentResult:
    """Stride confidence-counter ablation (paper: 3 bits, +1/-2)."""
    result = ExperimentResult(
        "ablation_confidence", "Stride predictor confidence counter")
    entries = 1 << 12
    table = Table("stride predictor accuracy by counter shape",
                  ["bits", "inc", "dec", "accuracy"])
    shapes = [(3, 1, 2), (3, 1, 1), (2, 1, 2), (1, 1, 1), (4, 1, 2)]
    for bits, inc, dec in shapes:
        suite = measure_suite(
            StrideSpec(entries, counter_bits=bits, counter_inc=inc,
                       counter_dec=dec),
            traces)
        table.add(bits, inc, dec, suite.accuracy)
    result.tables.append(table)
    return result
