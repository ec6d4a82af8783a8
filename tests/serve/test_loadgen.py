"""Load-generator report shape and offline verification."""

import numpy as np
import pytest

from repro.core.spec import DFCMSpec
from repro.serve.loadgen import run_loadgen
from repro.serve.server import ServerThread
from repro.serve.tracing import latency_summary, percentile
from repro.trace.trace import ValueTrace


def make_trace(n=300):
    pcs = np.tile(np.asarray([0x40, 0x44, 0x48], dtype=np.int64), n // 3)
    values = (np.arange(n, dtype=np.int64) * 5) & 0xFFFFFFFF
    return ValueTrace("loadgen-test", pcs[:n], values[:n])


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single(self):
        assert percentile([7.0], 99) == 7.0

    def test_nearest_rank(self):
        values = [float(i) for i in range(100)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 100) == 99.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 100, 101])
    @pytest.mark.parametrize("p", [0, 1, 25, 50, 75, 90, 99, 100])
    def test_matches_numpy_nearest(self, n, p):
        """Our nearest-rank is exactly NumPy's method="nearest"."""
        rng = np.random.default_rng(n * 1000 + p)
        values = sorted(rng.uniform(0, 100, size=n).tolist())
        expected = float(np.percentile(values, p, method="nearest"))
        assert percentile(values, p) == expected

    def test_random_sweep_matches_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            p = float(rng.uniform(0, 100))
            values = sorted(rng.normal(size=n).tolist())
            assert percentile(values, p) == \
                float(np.percentile(values, p, method="nearest"))

    def test_even_and_odd_pick_a_real_sample(self):
        even = [1.0, 2.0, 3.0, 4.0]
        odd = [1.0, 2.0, 3.0]
        for values in (even, odd):
            for p in range(0, 101, 5):
                assert percentile(values, p) in values


class TestLatencySummary:
    def test_rounds_to_4_decimal_ms(self):
        summary = latency_summary([0.00123456, 0.00123456])
        assert summary["p50_ms"] == 1.2346
        assert summary["mean_ms"] == 1.2346

    def test_single_sample_is_every_percentile(self):
        summary = latency_summary([0.002])
        assert summary["p50_ms"] == summary["p90_ms"] == \
            summary["p99_ms"] == summary["mean_ms"] == 2.0

    def test_empty_is_all_zero(self):
        summary = latency_summary([])
        assert set(summary) == {"count", "p50_ms", "p90_ms", "p99_ms",
                                "mean_ms", "max_ms"}
        assert all(v == 0 for v in summary.values())

    def test_percentiles_are_monotone(self):
        rng = np.random.default_rng(3)
        summary = latency_summary(rng.uniform(0, 1, 500).tolist())
        assert summary["p50_ms"] <= summary["p90_ms"] <= summary["p99_ms"]


class TestRunLoadgen:
    def test_report_shape_and_verify(self):
        spec = DFCMSpec(256, 1024)
        trace = make_trace()
        with ServerThread() as server:
            report = run_loadgen(spec, trace, "127.0.0.1", server.port,
                                 mode="both", block=64, min_speedup=0.01)
        assert report["schema"] == 1
        assert report["trace"] == "loadgen-test"
        assert report["records"] == len(trace)
        assert report["spec_config"]["family"] == "dfcm"
        assert set(report["modes"]) == {"naive", "batched"}
        for mode in report["modes"].values():
            assert mode["records"] == len(trace)
            assert mode["latency"]["p99_ms"] >= mode["latency"]["p50_ms"]
        # Both modes replay the same records, so hit counts agree...
        assert (report["modes"]["naive"]["hits"]
                == report["modes"]["batched"]["hits"])
        # ...and match the offline engines bit-for-bit.
        assert report["verify"]["matched"] is True
        assert report["speedup"] > 0
        assert report["speedup_ok"] is True  # 0.01x floor always passes

    def test_windowed_verify(self):
        spec = DFCMSpec(256, 1024)
        with ServerThread() as server:
            report = run_loadgen(spec, make_trace(), "127.0.0.1",
                                 server.port, window=4, mode="batched",
                                 block=50)
        assert report["window"] == 4
        assert report["verify"]["offline_spec"].endswith("_d4")
        assert report["verify"]["matched"] is True
        assert "speedup" not in report  # single mode: no ratio

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            run_loadgen(DFCMSpec(64, 256), make_trace(), "127.0.0.1", 1,
                        mode="bogus")
        with pytest.raises(ValueError, match="block"):
            run_loadgen(DFCMSpec(64, 256), make_trace(), "127.0.0.1", 1,
                        block=0)

    def test_no_verify_skips_offline_replay(self):
        spec = DFCMSpec(256, 1024)
        with ServerThread() as server:
            report = run_loadgen(spec, make_trace(120), "127.0.0.1",
                                 server.port, mode="naive", verify=False)
        assert "verify" not in report
        assert report["modes"]["naive"]["records"] == 120

    def test_zero_copy_large_blocks_parity(self):
        # Blocks of 1024 records put ~8 KiB frames on the wire in both
        # directions -- larger than the reader's initial receive buffer
        # -- so this drives the recv_into growth path and the server's
        # single-allocation response framing, and still demands
        # bit-exact parity with the offline engines.
        spec = DFCMSpec(256, 1024)
        trace = make_trace(4098)
        with ServerThread() as server:
            report = run_loadgen(spec, trace, "127.0.0.1", server.port,
                                 mode="batched", block=1024)
        assert report["modes"]["batched"]["records"] == 4098
        assert report["verify"]["matched"] is True
