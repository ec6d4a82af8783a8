"""The table-usage auditor's accounting, taken apart metric by metric."""

import numpy as np
import pytest

from repro.core.spec import (DFCMSpec, FCMSpec, LastNSpec, LastValueSpec,
                             OracleHybridSpec, StrideSpec)
from repro.telemetry.tables import (REUSE_BUCKETS, TableUsageAuditor,
                                    level1_entries, state_table_specs,
                                    table_stats_from_state)
from tests.conftest import stride_trace


class TestConstruction:
    def test_unauditable_family_rejected(self):
        spec = LastNSpec(64, 4)
        with pytest.raises(ValueError, match="not auditable"):
            TableUsageAuditor(spec)

    def test_length_mismatch_rejected(self):
        auditor = TableUsageAuditor(StrideSpec(64))
        with pytest.raises(ValueError, match="lengths differ"):
            auditor.update([1, 2], [3])


class TestHeadlineMetrics:
    def test_accuracy_and_efficiency_formulae(self):
        # A perfect stride stream after the two-record warm-up.
        trace = stride_trace("s", 0x40, 0, 4, 100)
        auditor = TableUsageAuditor(StrideSpec(64))
        auditor.update(trace.pcs, trace.values)
        report = auditor.report()
        assert report["sampled_records"] == 100
        assert 90 <= report["correct"] < 100  # only the warm-up misses
        assert report["accuracy"] == round(report["correct"] / 100, 6)
        assert report["live_bits"] > 0
        assert report["efficiency"] == round(
            report["correct"] / report["live_bits"], 9)

    def test_efficiency_zero_when_nothing_live(self):
        # A single all-zero record leaves every table word zero.
        auditor = TableUsageAuditor(LastValueSpec(64))
        auditor.update([0x40], [0])
        report = auditor.report()
        assert report["live_bits"] == 0
        assert report["efficiency"] == 0.0

    def test_l1_accesses_equal_records(self):
        trace = stride_trace("s", 0x40, 0, 4, 50)
        auditor = TableUsageAuditor(DFCMSpec(64, 64))
        auditor.update(trace.pcs, trace.values)
        assert auditor.access_counts("l1").sum() == 50
        assert auditor.access_counts("l2").sum() == 50


class TestLevelAudit:
    def test_single_pc_occupies_one_l1_entry(self):
        trace = stride_trace("s", 0x40, 0, 4, 64)
        auditor = TableUsageAuditor(LastValueSpec(64))
        auditor.update(trace.pcs, trace.values)
        level = auditor.report()["levels"]["l1"]
        assert level["entries_used"] == 1
        assert level["occupancy_ratio"] == round(1 / 64, 6)
        assert level["cold_fraction"] == round(1 - 1 / 64, 6)
        assert level["conflicts"] == 0
        assert level["alias_rate"] == 0.0

    def test_colliding_pcs_are_counted_as_conflicts(self):
        # Two pcs, 8-entry table: (pc >> 2) & 7 maps 0x40 and 0x60 to
        # the same entry, so every access after the first conflicts.
        pcs = [0x40, 0x60] * 20
        values = list(range(40))
        auditor = TableUsageAuditor(LastValueSpec(8))
        auditor.update(pcs, values)
        level = auditor.report()["levels"]["l1"]
        assert level["conflicts"] == 39
        assert level["alias_rate"] == round(39 / 40, 6)
        # Constructive + destructive partition the conflicts exactly.
        assert (level["alias_constructive_rate"]
                + level["alias_destructive_rate"]) == level["alias_rate"]

    def test_reuse_histogram_buckets_log2_distances(self):
        # One pc re-accessed every record: all reuse distances are 1,
        # which lands in bucket 0 ([1, 2)).
        trace = stride_trace("s", 0x40, 0, 4, 33)
        auditor = TableUsageAuditor(LastValueSpec(64))
        auditor.update(trace.pcs, trace.values)
        histogram = auditor.report()["levels"]["l1"]["reuse_histogram"]
        assert len(histogram) == REUSE_BUCKETS
        assert histogram[0] == 32  # 33 accesses, 32 revisits
        assert sum(histogram[1:]) == 0

    def test_dead_entries_are_single_access(self):
        pcs = [0x40, 0x44, 0x44]  # 0x40 touched once, 0x44 twice
        auditor = TableUsageAuditor(LastValueSpec(64))
        auditor.update(pcs, [1, 2, 3])
        level = auditor.report()["levels"]["l1"]
        assert level["entries_used"] == 2
        assert level["dead_entries"] == 1


class TestStateStats:
    def test_live_bits_count_nonzero_entries(self):
        spec = LastValueSpec(8)
        [(key, table)] = state_table_specs(spec)
        state = {key: np.array([0, 5, 0, 9, 0, 0, 0, 1])}
        stats = table_stats_from_state(spec, state)
        assert stats["tables"][key]["live"] == 3
        assert stats["live_bits"] == 3 * table.entry_bits
        assert stats["storage_bits"] == spec.storage_bits()
        assert stats["live_fraction"] == round(
            stats["live_bits"] / stats["storage_bits"], 6)

    def test_hybrid_state_keys_are_prefixed(self):
        spec = OracleHybridSpec((StrideSpec(8), DFCMSpec(16, 8)))
        keys = [key for key, _ in state_table_specs(spec)]
        assert all(key.startswith(("c0.", "c1.")) for key in keys)
        auditor = TableUsageAuditor(spec)
        trace = stride_trace("s", 0x40, 0, 4, 32)
        auditor.update(trace.pcs, trace.values)
        assert set(auditor.report()["tables"]) == set(keys)


class TestLevel1Entries:
    def test_per_family_sizes(self):
        assert level1_entries(LastValueSpec(64)) == 64
        assert level1_entries(StrideSpec(32)) == 32
        assert level1_entries(FCMSpec(128, 512)) == 128
        assert level1_entries(DFCMSpec(256, 64)) == 256

    def test_hybrid_reports_largest_component(self):
        spec = OracleHybridSpec((StrideSpec(32), DFCMSpec(128, 64)))
        assert level1_entries(spec) == 128
