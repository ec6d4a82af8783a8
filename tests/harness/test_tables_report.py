"""The ``repro tables`` sweep: matched specs, report shape, rendering."""

import pytest

from repro.core.engines.batch import BatchEngine
from repro.core.spec import DFCMSpec, FCMSpec, OracleHybridSpec, StrideSpec
from repro.harness.tables_report import (DEFAULT_BUDGETS_KBIT,
                                         DEFAULT_FAMILIES, matched_spec,
                                         render_tables_report,
                                         run_tables_report)
from tests.conftest import interleaved, repeating_trace, stride_trace


def mixed_trace(n_each=400):
    return interleaved(
        stride_trace("s", 0x1000, 0, 4, n_each),
        repeating_trace("ctx", 0x1004, [3, 8, 1, 9, 4, 7], n_each // 6),
    )


class TestMatchedSpec:
    @pytest.mark.parametrize("family", DEFAULT_FAMILIES)
    @pytest.mark.parametrize("budget", DEFAULT_BUDGETS_KBIT)
    def test_storage_lands_near_the_budget(self, family, budget):
        spec = matched_spec(family, budget)
        # Power-of-two sizing can at worst straddle the budget by ~2x
        # in either direction; anything further off means the search
        # walked away from the target.
        assert budget / 2.5 <= spec.storage_kbit() <= budget * 2.5

    def test_context_specs_keep_the_paper_shape(self):
        for family, cls in (("fcm", FCMSpec), ("dfcm", DFCMSpec)):
            for budget in DEFAULT_BUDGETS_KBIT:
                spec = matched_spec(family, budget)
                assert isinstance(spec, cls)
                ratio = spec.l1_entries // spec.l2_entries
                assert ratio in (8, 16, 32), (
                    f"{spec.name} left the level-1:level-2 ratio band")

    def test_hybrid_splits_stride_plus_dfcm(self):
        spec = matched_spec("hybrid", 256.0)
        assert isinstance(spec, OracleHybridSpec)
        stride, dfcm = spec.components
        assert isinstance(stride, StrideSpec)
        assert isinstance(dfcm, DFCMSpec)
        # The DFCM takes three quarters of the budget.
        assert dfcm.storage_kbit() > stride.storage_kbit()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            matched_spec("tage", 64.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            matched_spec("fcm", 0.0)


class TestRunTablesReport:
    def test_report_shape_and_comparison(self):
        trace = mixed_trace()
        report = run_tables_report(trace, budgets_kbit=[32.0, 64.0],
                                   families=["fcm", "dfcm"])
        assert report["schema"] == 1
        assert report["command"] == "tables"
        assert report["benchmark"] == trace.name
        assert report["sampled_records"] == len(trace)
        assert len(report["cells"]) == 4
        for cell in report["cells"]:
            assert cell["family"] in ("fcm", "dfcm")
            assert cell["budget_kbit"] in (32.0, 64.0)
            assert 0 <= cell["accuracy"] <= 1
            assert cell["efficiency"] >= 0
            assert cell["engine"] in ("batch", "scalar")
        assert len(report["comparison"]) == 2
        assert report["dfcm_beats_fcm"] in (True, False)
        for row in report["comparison"]:
            assert row["dfcm_beats_fcm"] == (
                row["dfcm_efficiency"] > row["fcm_efficiency"])

    def test_cells_are_keyed_by_sweep_family(self):
        # The sweep key ("lvp"), not the spec family ("last_value"):
        # the renderer's grids look cells up by sweep key.
        report = run_tables_report(mixed_trace(60), budgets_kbit=[32.0],
                                   families=["lvp"])
        [cell] = report["cells"]
        assert cell["family"] == "lvp"
        assert cell["spec"].startswith("lvp_")

    def test_no_verdict_without_both_context_families(self):
        report = run_tables_report(mixed_trace(60), budgets_kbit=[32.0],
                                   families=["lvp", "stride"])
        assert report["comparison"] == []
        assert report["dfcm_beats_fcm"] is None

    def test_sample_bounds_the_replay(self):
        report = run_tables_report(mixed_trace(), budgets_kbit=[32.0],
                                   families=["dfcm"], sample=100)
        assert report["sampled_records"] == 100
        assert report["cells"][0]["sampled_records"] == 100

    def test_empty_trace_rejected(self):
        from repro.trace.trace import ValueTrace
        with pytest.raises(ValueError, match="no records"):
            run_tables_report(ValueTrace("empty", [], []))

    def test_scalar_engine_matches_batch(self, monkeypatch):
        trace = mixed_trace(120)
        kwargs = dict(budgets_kbit=[32.0], families=["fcm", "dfcm"])
        batch = run_tables_report(trace, **kwargs)
        # The auditor's scalar replay, reached through the spec check.
        monkeypatch.setattr(BatchEngine, "supports",
                            classmethod(lambda cls, spec: False))
        scalar = run_tables_report(trace, **kwargs)
        assert {c["engine"] for c in batch["cells"]} == {"batch"}
        assert {c["engine"] for c in scalar["cells"]} == {"scalar"}
        for b_cell, s_cell in zip(batch["cells"], scalar["cells"]):
            assert b_cell["efficiency"] == s_cell["efficiency"]
            assert b_cell["accuracy"] == s_cell["accuracy"]


class TestRenderTablesReport:
    def test_table_heatmaps_and_verdict(self):
        report = run_tables_report(mixed_trace(), budgets_kbit=[32.0, 64.0],
                                   families=["fcm", "dfcm"])
        text = render_tables_report(report)
        assert "table usage on" in text
        assert "occupancy (entries used / entries)" in text
        assert "destructive aliasing rate" in text
        assert "efficiency (correct per live bit)" in text
        assert "scale:" in text
        assert ("DFCM beats FCM" in text
                or "DFCM does NOT beat FCM" in text)

    def test_no_verdict_line_without_comparison(self):
        report = run_tables_report(mixed_trace(60), budgets_kbit=[32.0],
                                   families=["stride"])
        text = render_tables_report(report)
        assert "DFCM" not in text
