#!/usr/bin/env python3
"""Why the DFCM wins: aliasing and occupancy analysis on one benchmark.

Walks through the two diagnostic instruments of the paper's section 4.2
and 2.4 on a single benchmark:

1. the five-way alias taxonomy (l1 / hash / l2_priv / l2_pc / none) for
   the FCM and the DFCM -- showing the shift from destructive ``hash``
   collisions to benign ``l2_pc`` sharing;
2. the level-2 stride-occupancy curve (Figures 6/9) -- showing how the
   DFCM funnels whole stride patterns through a handful of entries.

Usage:
    python examples/alias_analysis.py [benchmark] [trace_length]
"""

import sys

import _bootstrap  # noqa: F401  (inserts <repo>/src on sys.path if needed)
from repro.core.dfcm import DFCMPredictor
from repro.core.fcm import FCMPredictor
from repro.core.stride import StridePredictor
from repro.harness.ascii_plot import render_series
from repro.telemetry.tables import (ALIAS_CATEGORIES, AliasingAnalyzer,
                                    stride_occupancy)
from repro.trace.cache import cached_trace


def main() -> int:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "norm"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 50_000
    trace = cached_trace(benchmark, length)
    records = trace.records()
    l1, l2 = 1 << 12, 1 << 12

    print(f"== alias taxonomy on '{benchmark}' "
          f"({length} predictions, L1=L2=2^12) ==\n")
    header = (f"{'':6s}" + "".join(f"{c:>9s}" for c in ALIAS_CATEGORIES)
              + f"{'accuracy':>10s}")
    print("fraction of predictions per category:")
    print(header)
    reports = {}
    for kind, cls in (("FCM", FCMPredictor), ("DFCM", DFCMPredictor)):
        report = AliasingAnalyzer(cls(l1, l2)).run(records)
        reports[kind] = report
        row = f"{kind:6s}" + "".join(
            f"{report.fraction_of_predictions(c):9.3f}"
            for c in ALIAS_CATEGORIES)
        print(row + f"{report.overall_accuracy():10.3f}")

    print("\nmispredictions per category (share of all predictions):")
    print(header.rsplit("accuracy", 1)[0])
    for kind, report in reports.items():
        print(f"{kind:6s}" + "".join(
            f"{report.misprediction_fraction(c):9.3f}"
            for c in ALIAS_CATEGORIES))
    hash_drop = (reports["FCM"].misprediction_fraction("hash")
                 - reports["DFCM"].misprediction_fraction("hash"))
    print(f"\nhash-aliasing mispredictions removed by the DFCM: "
          f"{hash_drop:.3f} of all predictions\n")

    print(f"== level-2 stride occupancy (Figures 6/9 view) ==\n")
    fcm_occ = stride_occupancy(FCMPredictor(1 << 16, l2), records,
                               StridePredictor(1 << 16))
    dfcm_occ = stride_occupancy(DFCMPredictor(1 << 16, l2), records,
                                StridePredictor(1 << 16))
    for occ in (fcm_occ, dfcm_occ):
        print(f"{occ.predictor_name}: {occ.entries_with_at_least(1)} "
              f"entries hold stride accesses; top 16 entries absorb "
              f"{occ.top_share(16):.1%}")
    ranks = list(range(1, 257))
    print()
    print(render_series(
        {"FCM": (ranks, [fcm_occ.sorted_counts[r - 1] + 1 for r in ranks]),
         "DFCM": (ranks, [dfcm_occ.sorted_counts[r - 1] + 1 for r in ranks])},
        logx=True, height=14,
        title="stride accesses per level-2 entry (+1), sorted, first 256"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
