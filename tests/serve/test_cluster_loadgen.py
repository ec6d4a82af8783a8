"""Scaling loadgen: report shape, parity, and its scaling gate.

The scaling run itself is expensive (it spawns a fleet per point), so
one module-scoped run feeds every report-shape test; the history test
checks that ``bench diff`` skips the report's kind.
"""

import copy

import numpy as np
import pytest

from repro.core.spec import DFCMSpec
from repro.harness import bench
from repro.serve.cluster.loadgen import render_scaling, run_scaling_loadgen
from repro.trace.trace import ValueTrace


def make_trace(n=600):
    pcs = (0x400 + (np.arange(n) % 13) * 4).astype(np.uint32)
    values = ((np.arange(n) * 3) % 97).astype(np.uint32)
    return ValueTrace("scaling-test", pcs, values)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("scaling-state")
    return run_scaling_loadgen(DFCMSpec(64, 256), make_trace(),
                               workers=(1, 2), sessions=2, block=128,
                               state_dir=str(state_dir))


FAKE_BENCH = {
    "mode": "fast", "anchor": None, "python": "x", "machine": "y",
    "families": [{"family": "dfcm", "batch_records_per_sec": 100.0,
                  "scalar_records_per_sec": 10.0, "speedup": 10.0}],
    "suite": {"speedup": 10.0},
}


class TestScalingReport:
    def test_shape(self, report):
        assert report["schema"] == 1
        assert report["kind"] == "cluster_scaling"
        assert report["sessions"] == 2
        assert [p["workers"] for p in report["points"]] == [1, 2]
        for point in report["points"]:
            assert point["records"] == 600 * 2
            assert point["records_per_s"] > 0
            assert {"p50_ms", "p90_ms", "p99_ms"} <= \
                point["latency"].keys()

    def test_every_point_matches_offline(self, report):
        assert report["parity_ok"] is True
        assert all(p["parity_ok"] for p in report["points"])
        hits = {h for p in report["points"]
                for h in p["session_hits"].values()}
        assert len(hits) == 1  # fleet size never changes the answer
        assert hits == {report["points"][0]["offline_hits"]}

    def test_speedup_is_largest_over_single(self, report):
        p1 = next(p for p in report["points"] if p["workers"] == 1)
        p2 = next(p for p in report["points"] if p["workers"] == 2)
        assert report["speedup"] == round(
            p2["records_per_s"] / p1["records_per_s"], 2)
        assert report["speedup_workers"] == 2

    def test_no_losses_during_clean_runs(self, report):
        for point in report["points"]:
            assert point["sessions_lost_total"] == 0

    def test_render_scaling_table(self, report):
        text = render_scaling(report)
        assert "workers" in text and "rec/s" in text
        assert "ok" in text and "MISMATCH" not in text

    def test_scaling_gate_failure_is_reported(self, tmp_path):
        gated = run_scaling_loadgen(DFCMSpec(64, 256), make_trace(200),
                                    workers=(1, 2), sessions=1,
                                    block=64, state_dir=str(tmp_path),
                                    min_scaling=100.0)
        # Nothing scales 100x -- the gate must say so without raising
        # (callers decide the exit code).
        assert gated["scaling_ok"] is False
        assert gated["min_scaling"] == 100.0
        assert gated["parity_ok"] is True


class TestClusterHistory:
    def test_mixed_history_diffs_both_kinds(self, report, tmp_path):
        # Scaling and soak reports gate themselves; a history file that
        # still holds records of those (or any other) kinds diffs its
        # bench records only.
        path = tmp_path / "hist.jsonl"
        bench.append_history(bench.history_entry(copy.deepcopy(FAKE_BENCH)),
                             str(path))
        bench.append_history(report, str(path))
        bench.append_history({"kind": "cluster_soak", "soak_ok": True},
                             str(path))
        newer = copy.deepcopy(FAKE_BENCH)
        newer["families"][0]["batch_records_per_sec"] = 104.0
        bench.append_history(bench.history_entry(newer), str(path))
        diff = bench.diff_history(str(path), max_regression_pct=10)
        assert diff["passed"] is True
        assert [f["family"] for f in diff["families"]] == ["dfcm"]
        assert diff["families"][0]["head_records_per_sec"] == 104.0
        assert set(diff) == {"schema", "path", "max_regression_pct",
                             "base", "head", "families", "regressed",
                             "passed"}
        assert "cluster" not in bench.render_history_diff(diff)
