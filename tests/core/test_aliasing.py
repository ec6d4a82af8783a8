"""Tests for the alias taxonomy (paper section 4.2)."""

import pytest

from repro.core.dfcm import DFCMPredictor
from repro.core.fcm import FCMPredictor
from repro.core.last_value import LastValuePredictor
from repro.telemetry.tables import (ALIAS_CATEGORIES, AliasReport,
                                    AliasingAnalyzer)
from tests.conftest import interleaved, repeating_trace, stride_trace


class TestAliasReport:
    def test_fractions_sum_to_one(self):
        report = AliasReport()
        report.record("none", True)
        report.record("hash", False)
        report.record("l2_pc", True)
        report.record("l2_pc", False)
        total = sum(report.fraction_of_predictions(c) for c in ALIAS_CATEGORIES)
        assert total == pytest.approx(1.0)

    def test_misprediction_fractions_stack_to_global_rate(self):
        report = AliasReport()
        report.record("none", True)
        report.record("hash", False)
        report.record("l1", False)
        stacked = sum(report.misprediction_fraction(c) for c in ALIAS_CATEGORIES)
        assert stacked == pytest.approx(1 - report.overall_accuracy())

    def test_merge_pools_counts(self):
        a, b = AliasReport(), AliasReport()
        a.record("none", True)
        b.record("none", False)
        b.record("hash", False)
        merged = a.merged_with(b)
        assert merged.total["none"] == 2 and merged.correct["none"] == 1
        assert merged.predictions == 3

    def test_empty_report_is_safe(self):
        report = AliasReport()
        assert report.overall_accuracy() == 0.0
        assert report.accuracy("none") == 0.0
        assert report.fraction_of_predictions("l1") == 0.0


class TestAliasingAnalyzerFCM:
    def test_only_instruments_context_predictors(self):
        with pytest.raises(TypeError):
            AliasingAnalyzer(LastValuePredictor(16))

    def test_single_repeating_pattern_is_alias_free_in_steady_state(self):
        # One instruction, private tables by construction: after the
        # learning phase everything should classify none/l2_pc-free.
        pattern = [4, 9, 1, 7, 12]
        analyzer = AliasingAnalyzer(FCMPredictor(64, 1 << 12))
        trace = repeating_trace("c", 0x1000, pattern, 40)
        report = analyzer.run(trace.records())
        # No other instruction exists: l1 and l2_pc are impossible.
        assert report.total["l1"] == 0
        assert report.total["l2_pc"] == 0
        assert report.total["none"] > 0

    def test_none_category_is_highly_accurate(self):
        # Figure 12: no detected aliasing => the FCM principle works.
        pattern = [4, 9, 1, 7, 12, 3, 8]
        analyzer = AliasingAnalyzer(FCMPredictor(64, 1 << 14))
        trace = repeating_trace("c", 0x1000, pattern, 60)
        report = analyzer.run(trace.records())
        assert report.accuracy("none") > 0.95

    def test_l1_aliasing_detected_on_level1_conflict(self):
        # Two instructions forced into a single L1 entry contaminate
        # each other's history.
        analyzer = AliasingAnalyzer(FCMPredictor(1, 1 << 12))
        a = repeating_trace("a", 0x1000, [3, 1, 4], 30)
        b = repeating_trace("b", 0x2000, [2, 7, 2], 30)
        report = analyzer.run(interleaved(a, b).records())
        # With one L1 entry shared by two PCs, essentially every
        # prediction uses a contaminated history.
        assert report.total["l1"] > 150

    def test_l1_aliasing_with_nonperiodic_interference_mispredicts(self):
        # When the interfering instruction never repeats (a ramp), the
        # contaminated joint history is unpredictable.
        analyzer = AliasingAnalyzer(FCMPredictor(1, 1 << 12))
        a = repeating_trace("a", 0x1000, [3, 1, 4], 40)
        b = stride_trace("b", 0x2000, 1, 17, 120)
        report = analyzer.run(interleaved(a, b).records())
        assert report.total["l1"] > 100
        assert report.accuracy("l1") < 0.5

    def test_l2_pc_detected_for_identical_patterns(self):
        # Two instructions with the *same* pattern and separate L1
        # entries share L2 entries constructively: tag mismatch, but
        # histories match.
        analyzer = AliasingAnalyzer(FCMPredictor(1 << 10, 1 << 12))
        a = repeating_trace("a", 0x1000, [5, 9, 2], 30)
        b = repeating_trace("b", 0x1004, [5, 9, 2], 30)
        report = analyzer.run(interleaved(a, b).records())
        assert report.total["l2_pc"] > 0
        # Paper: "aliasing between identical patterns originating from
        # different instructions is not destructive".
        assert report.accuracy("l2_pc") > 0.8

    def test_first_rule_wins_ordering(self):
        # A prediction with both an L1 conflict and a hash mismatch
        # counts as l1 only (categories are mutually exclusive).
        analyzer = AliasingAnalyzer(FCMPredictor(1, 1 << 8))
        a = stride_trace("a", 0x1000, 0, 3, 50)
        b = stride_trace("b", 0x2000, 7, 11, 50)
        report = analyzer.run(interleaved(a, b).records())
        assert report.predictions == 100
        assert sum(report.total.values()) == 100


class TestAliasingAnalyzerDFCM:
    def test_runs_and_classifies_every_prediction(self):
        analyzer = AliasingAnalyzer(DFCMPredictor(64, 1 << 10))
        trace = stride_trace("s", 0x1000, 0, 2, 100)
        report = analyzer.run(trace.records())
        assert report.predictions == 100

    def test_dfcm_shifts_hash_aliasing_to_l2_pc(self):
        # Section 4.2's key observation: for stride-heavy workloads the
        # DFCM intentionally maps many contexts to the same entry
        # (l2_pc) instead of colliding quasi-randomly (hash).
        records = interleaved(
            stride_trace("a", 0x1000, 0, 1, 200),
            stride_trace("b", 0x1004, 10_000, 1, 200),
            stride_trace("c", 0x1008, 123, 1, 200),
        ).records()
        fcm_report = AliasingAnalyzer(FCMPredictor(1 << 10, 1 << 8)).run(records)
        dfcm_report = AliasingAnalyzer(DFCMPredictor(1 << 10, 1 << 8)).run(records)
        assert dfcm_report.total["l2_pc"] > fcm_report.total["l2_pc"]
        assert dfcm_report.total["hash"] < fcm_report.total["hash"]

    def test_dfcm_l2_pc_sharing_is_not_destructive(self):
        records = interleaved(
            stride_trace("a", 0x1000, 0, 1, 150),
            stride_trace("b", 0x1004, 999, 1, 150),
        ).records()
        report = AliasingAnalyzer(DFCMPredictor(1 << 10, 1 << 10)).run(records)
        assert report.accuracy("l2_pc") > 0.9

    def test_analyzer_accuracy_matches_uninstrumented_predictor(self):
        # The shadow bookkeeping must not change predictions.
        from repro.harness.simulate import measure_accuracy
        trace = interleaved(
            stride_trace("a", 0x1000, 5, 3, 120),
            repeating_trace("b", 0x1004, [7, 1, 7, 2], 30),
        )
        plain = measure_accuracy(DFCMPredictor(64, 1 << 10), trace)
        report = AliasingAnalyzer(DFCMPredictor(64, 1 << 10)).run(trace.records())
        assert report.overall_accuracy() == pytest.approx(plain.accuracy)
