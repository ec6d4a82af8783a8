"""Bench history: append/read round trip and the regression gate."""

import json

import pytest

from repro.harness.bench import (MAX_REGRESSION_PCT, append_history,
                                 diff_history, history_entry, read_history,
                                 render_history_diff,
                                 resolve_max_regression_pct)


def make_report(batch=100_000, scalar=10_000, family="dfcm",
                efficiency=None):
    """The slice of a run_bench report that history cares about."""
    entry = {
        "family": family,
        "predictor": f"{family}_x",
        "batch_records_per_sec": batch,
        "scalar_records_per_sec": scalar,
        "speedup": round(batch / scalar, 2),
    }
    if efficiency is not None:
        entry["table_efficiency"] = efficiency
    return {
        "mode": "python",
        "anchor": {"benchmark": "synth", "records": 5000},
        "python": "3.11.0",
        "machine": "x86_64",
        "families": [entry],
        "suite": {"speedup": 9.5},
    }


def append(tmp_path, batch, family="dfcm"):
    path = tmp_path / "BENCH_history.jsonl"
    append_history(history_entry(make_report(batch=batch, family=family)),
                   str(path))
    return str(path)


class TestThresholdResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_MAX_REGRESSION_PCT", raising=False)
        assert resolve_max_regression_pct() == MAX_REGRESSION_PCT

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MAX_REGRESSION_PCT", "25")
        assert resolve_max_regression_pct(5.0) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_max_regression_pct(-1.0)


class TestHistoryRecords:
    def test_entry_shape(self):
        entry = history_entry(make_report())
        assert entry["schema"] == 1
        assert entry["mode"] == "python"
        assert entry["families"]["dfcm"]["batch_records_per_sec"] == 100_000
        assert entry["suite_speedup"] == 9.5
        # Run from a git checkout, the sha is recorded.
        assert entry["git_sha"] is None or len(entry["git_sha"]) == 40
        assert "T" in entry["timestamp"]

    def test_append_read_round_trip(self, tmp_path):
        path = append(tmp_path, 100_000)
        append(tmp_path, 120_000)
        entries = read_history(path)
        assert len(entries) == 2
        assert [e["families"]["dfcm"]["batch_records_per_sec"]
                for e in entries] == [100_000, 120_000]

    def test_entries_are_json_lines(self, tmp_path):
        path = append(tmp_path, 100_000)
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])


class TestDiffGate:
    def test_needs_two_records(self, tmp_path):
        path = append(tmp_path, 100_000)
        with pytest.raises(ValueError, match="at least 2"):
            diff_history(path)

    def test_improvement_passes(self, tmp_path):
        path = append(tmp_path, 100_000)
        append(tmp_path, 120_000)
        diff = diff_history(path)
        assert diff["passed"] is True
        (family,) = diff["families"]
        assert family["delta_pct"] == 20.0
        assert not family["regressed"]

    def test_regression_beyond_threshold_fails(self, tmp_path):
        path = append(tmp_path, 100_000)
        append(tmp_path, 80_000)  # -20% against a 10% default gate
        diff = diff_history(path)
        assert diff["passed"] is False
        assert diff["regressed"] == ["dfcm"]
        assert diff["families"][0]["delta_pct"] == -20.0

    def test_threshold_argument_loosens_gate(self, tmp_path):
        path = append(tmp_path, 100_000)
        append(tmp_path, 80_000)
        assert diff_history(path, max_regression_pct=30.0)["passed"]

    def test_diffs_last_two_records_only(self, tmp_path):
        path = append(tmp_path, 50_000)   # old slow record
        append(tmp_path, 100_000)
        append(tmp_path, 99_000)          # -1% vs previous: fine
        assert diff_history(path)["passed"] is True

    def test_family_mismatch_raises_both_named(self, tmp_path):
        # A family silently appearing in or vanishing from the grid
        # would dodge the gate, so either direction is an error.
        path = append(tmp_path, 100_000, family="dfcm")
        append(tmp_path, 100, family="stride")
        with pytest.raises(ValueError) as err:
            diff_history(path)
        message = str(err.value)
        assert "missing from the current run: dfcm" in message
        assert "not in the previous record: stride" in message
        assert "re-baseline" in message

    def test_family_vanishing_raises(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        report = make_report(family="dfcm")
        report["families"].append(make_report(family="stride")["families"][0])
        append_history(history_entry(report), str(path))
        append_history(history_entry(make_report(family="dfcm")), str(path))
        with pytest.raises(ValueError, match="missing from the current run: "
                                             "stride"):
            diff_history(str(path))

    def test_family_appearing_raises(self, tmp_path):
        path = append(tmp_path, 100_000, family="dfcm")
        report = make_report(family="dfcm")
        report["families"].append(make_report(family="stride")["families"][0])
        append_history(history_entry(report), str(path))
        with pytest.raises(ValueError, match="not in the previous record: "
                                             "stride"):
            diff_history(path)

    def test_efficiency_is_reported_but_never_gates(self, tmp_path):
        # A 50% efficiency collapse with steady throughput still passes:
        # efficiency moves with deliberate table-shape changes.
        path = tmp_path / "BENCH_history.jsonl"
        append_history(history_entry(make_report(efficiency=2.0)), str(path))
        append_history(history_entry(make_report(efficiency=1.0)), str(path))
        diff = diff_history(str(path))
        assert diff["passed"] is True
        (family,) = diff["families"]
        assert family["base_table_efficiency"] == 2.0
        assert family["head_table_efficiency"] == 1.0
        assert family["efficiency_delta_pct"] == -50.0
        assert not family["regressed"]
        text = render_history_diff(diff)
        assert "-50.00%" in text and "PASS" in text

    def test_old_records_without_efficiency_render_as_dash(self, tmp_path):
        # Records written before the efficiency column predate the
        # field; the diff degrades to "--" instead of crashing.
        path = tmp_path / "BENCH_history.jsonl"
        append_history(history_entry(make_report()), str(path))
        append_history(history_entry(make_report(efficiency=1.5)), str(path))
        diff = diff_history(str(path))
        (family,) = diff["families"]
        assert family["base_table_efficiency"] is None
        assert family["efficiency_delta_pct"] is None
        assert "--" in render_history_diff(diff)

    def test_history_entry_carries_efficiency(self):
        entry = history_entry(make_report(efficiency=0.25))
        assert entry["families"]["dfcm"]["table_efficiency"] == 0.25

    def test_render_mentions_verdict(self, tmp_path):
        path = append(tmp_path, 100_000)
        append(tmp_path, 80_000)
        text = render_history_diff(diff_history(path))
        assert "REGRESSED" in text
        assert "FAIL" in text
        text_ok = render_history_diff(
            diff_history(path, max_regression_pct=90.0))
        assert "PASS" in text_ok
