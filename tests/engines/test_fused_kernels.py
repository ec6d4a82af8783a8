"""Fused-kernel internals: conf scan, stride paths, shared context.

The public equivalence suite (test_equivalence / test_resume) pins the
batch engine to the scalar reference from the outside; these tests aim
at the fused machinery itself -- the clipped-counter prefix scan, the
fixpoint vs rounds stride paths (including lane populations straddling
``_STRIDE_LANE_CUTOFF`` and blocks straddling the fixpoint size gate),
the shared group decomposition hybrids reuse, and the warm-start
threading of live tables through the large-block path.
"""

import numpy as np
import pytest

from repro.core.engines import BatchEngine, ScalarEngine
from repro.core.engines import batch as batch_mod
from repro.core.engines.batch import (_STRIDE_FIXPOINT_MIN_N,
                                      _STRIDE_LANE_CUTOFF, _Groups,
                                      _KernelContext, _conf_scan,
                                      _run_stride, _stride_fixpoint,
                                      _stride_rounds)
from repro.core.engines.resume import initial_state, step_block
from repro.core.spec import DFCMSpec, OracleHybridSpec, StrideSpec
from repro.trace.trace import ValueTrace


def naive_conf_scan(correct_sorted, keys_sorted, inc, dec, counter_max,
                    initial):
    """Reference: per-group saturating counter, one record at a time."""
    counters = {}
    out = np.empty(len(correct_sorted), dtype=np.int64)
    for i, (ok, key) in enumerate(zip(correct_sorted, keys_sorted)):
        key = int(key)
        if key not in counters:
            counters[key] = (int(initial[i])
                             if isinstance(initial, np.ndarray) else initial)
        value = counters[key] + (inc if ok else -dec)
        counters[key] = min(max(value, 0), counter_max)
        out[i] = counters[key]
    return out


class TestConfScan:
    @pytest.mark.parametrize("inc,dec,counter_bits", [
        (1, 2, 3),    # the paper's asymmetric default
        (1, 1, 2),
        (3, 1, 3),
        (2, 3, 8),    # forces the int16 triple dtype
        (1, 2, 15),   # forces the int32 triple dtype
        (100, 100, 3),  # steps far beyond the domain: clamp must be exact
    ])
    def test_matches_naive_scan(self, inc, dec, counter_bits):
        rng = np.random.default_rng(counter_bits * 100 + inc * 10 + dec)
        keys = rng.integers(0, 7, size=600)
        groups = _Groups(keys, 8)
        correct = rng.random(600) < 0.6
        counter_max = (1 << counter_bits) - 1
        got = _conf_scan(correct, groups.rank, inc, dec, counter_max, 0,
                         int(groups.group_sizes.max()))
        want = naive_conf_scan(correct, groups.keys_sorted, inc, dec,
                               counter_max, 0)
        np.testing.assert_array_equal(got, want)

    def test_warm_initial_array(self):
        rng = np.random.default_rng(42)
        keys = rng.integers(0, 16, size=400)
        groups = _Groups(keys, 16)
        correct = rng.random(400) < 0.5
        counter_max = 7
        table = rng.integers(0, counter_max + 1, size=16)
        initial = table[groups.keys_sorted]
        got = _conf_scan(correct, groups.rank, 1, 2, counter_max, initial,
                         int(groups.group_sizes.max()))
        want = naive_conf_scan(correct, groups.keys_sorted, 1, 2,
                               counter_max, initial)
        np.testing.assert_array_equal(got, want)

    def test_single_group_long_run(self):
        # One group longer than any doubling step boundary.
        rng = np.random.default_rng(3)
        n = 1000
        groups = _Groups(np.zeros(n, dtype=np.int64), 1)
        correct = rng.random(n) < 0.5
        got = _conf_scan(correct, groups.rank, 1, 2, 7, 0, n)
        want = naive_conf_scan(correct, groups.keys_sorted, 1, 2, 7, 0)
        np.testing.assert_array_equal(got, want)


def straddling_trace(seed, n, pcs_pool=40):
    """Lane sizes from 1 to hundreds: some above the lane cutoff, some
    below it, with strided/noisy value phases per pc."""
    rng = np.random.default_rng(seed)
    # Zipf-flavoured pc draw: a few very hot pcs, a long cold tail.
    weights = 1.0 / np.arange(1, pcs_pool + 1)
    pcs = (rng.choice(pcs_pool, size=n, p=weights / weights.sum())
           * 4 + 0x1000)
    values = np.where(
        rng.random(n) < 0.6,
        (pcs >> 2) * 7 + np.arange(n) * ((pcs >> 2) % 5 + 1),
        rng.integers(0, 1 << 32, size=n),
    ) & 0xFFFFFFFF
    return pcs.astype(np.int64), values.astype(np.int64)


SPEC = StrideSpec(64)


class TestStridePaths:
    def assert_same_result(self, left, right):
        l_pred, l_correct, l_tables = left
        r_pred, r_correct, r_tables = right
        np.testing.assert_array_equal(l_pred, r_pred)
        np.testing.assert_array_equal(l_correct, r_correct)
        assert l_tables.keys() == r_tables.keys()
        for key in l_tables:
            np.testing.assert_array_equal(l_tables[key], r_tables[key],
                                          err_msg=key)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fixpoint_equals_rounds_cold(self, seed):
        pcs, values = straddling_trace(seed, 4000)
        ctx = _KernelContext(pcs, values)
        groups, values_sorted = ctx.pc_groups(SPEC.entries)
        assert groups.group_sizes.min() < _STRIDE_LANE_CUTOFF
        assert groups.group_sizes.max() > _STRIDE_LANE_CUTOFF
        fixpoint = _stride_fixpoint(SPEC, groups, values_sorted, None, True)
        assert fixpoint is not None, "fixpoint failed to converge"
        rounds = _stride_rounds(SPEC, groups, values_sorted, None, True)
        self.assert_same_result(fixpoint, rounds)

    def test_fixpoint_equals_rounds_warm(self):
        pcs, values = straddling_trace(7, 3000)
        rng = np.random.default_rng(7)
        state = {
            "last": rng.integers(0, 1 << 32, size=SPEC.entries),
            "stride": rng.integers(0, 1 << 32, size=SPEC.entries),
            "conf": rng.integers(0, 8, size=SPEC.entries),
        }
        ctx = _KernelContext(pcs, values)
        groups, values_sorted = ctx.pc_groups(SPEC.entries)
        # Kernels advance a warm state in place: each path gets its own.
        fixpoint = _stride_fixpoint(SPEC, groups, values_sorted,
                                    {k: v.copy() for k, v in state.items()},
                                    True)
        assert fixpoint is not None
        rounds = _stride_rounds(SPEC, groups, values_sorted,
                                {k: v.copy() for k, v in state.items()},
                                True)
        self.assert_same_result(fixpoint, rounds)

    @pytest.mark.parametrize("n", [_STRIDE_FIXPOINT_MIN_N - 1,
                                   _STRIDE_FIXPOINT_MIN_N,
                                   3 * _STRIDE_FIXPOINT_MIN_N])
    def test_both_size_regimes_match_scalar(self, n):
        # Below the gate the rounds path runs; at and above it the
        # fixpoint path does.  Either way: scalar counts AND tables.
        pcs, values = straddling_trace(11, n)
        trace = ValueTrace(f"straddle{n}", pcs, values)
        scalar = ScalarEngine().run(SPEC, trace, want_state=True)
        batch = BatchEngine().run(SPEC, trace, want_state=True)
        assert (batch.correct, batch.total) == (scalar.correct, scalar.total)
        for key in scalar.state:
            np.testing.assert_array_equal(scalar.state[key],
                                          batch.state[key], err_msg=key)

    def test_nonconvergence_falls_back_to_rounds(self, monkeypatch):
        # With the iteration budget forced to 1 the fixpoint can never
        # verify, so _run_stride must hand the block to the rounds path
        # and still produce the exact answer.
        pcs, values = straddling_trace(13, 4000)
        ctx = _KernelContext(pcs, values)
        want = _run_stride(SPEC, ctx, None, True)
        monkeypatch.setattr(batch_mod, "_STRIDE_MAX_ITERS", 1)
        groups, values_sorted = ctx.pc_groups(SPEC.entries)
        assert _stride_fixpoint(SPEC, groups, values_sorted, None,
                                True) is None
        got = _run_stride(SPEC, ctx, None, True)
        self.assert_same_result(want, got)

    def test_fixpoint_converges_in_few_iterations(self, monkeypatch):
        # The iteration count is a perf property worth pinning: the
        # observed workloads settle in two or three passes, and a
        # regression to O(group length) passes would show up here.
        calls = []
        real = batch_mod._conf_scan

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "_conf_scan", counting)
        pcs, values = straddling_trace(17, 8000)
        ctx = _KernelContext(pcs, values)
        groups, values_sorted = ctx.pc_groups(SPEC.entries)
        assert _stride_fixpoint(SPEC, groups, values_sorted, None,
                                False) is not None
        assert len(calls) <= 6


class TestSharedContext:
    def test_pc_groups_memoised_per_entries(self):
        pcs, values = straddling_trace(1, 500)
        ctx = _KernelContext(pcs, values)
        assert ctx.pc_groups(64) is ctx.pc_groups(64)
        assert ctx.pc_groups(64) is not ctx.pc_groups(128)

    def test_hybrid_components_share_one_decomposition(self):
        # Stride(64) and DFCM(l1=64) key level 1 identically, so the
        # fused hybrid must build exactly one argsort for both.
        spec = OracleHybridSpec((StrideSpec(64), DFCMSpec(64, 256)))
        pcs, values = straddling_trace(2, 600)
        ctx = _KernelContext(pcs, values)
        batch_mod._KERNELS["oracle_hybrid"](spec, ctx, None, False)
        assert len(ctx._pc_groups) == 1

    def test_mixed_entry_hybrid_still_exact(self):
        # Components with different table sizes get distinct
        # decompositions -- sharing must never conflate them.
        spec = OracleHybridSpec((StrideSpec(32), DFCMSpec(128, 256)))
        pcs, values = straddling_trace(3, 2600)
        trace = ValueTrace("mixed", pcs, values)
        scalar = ScalarEngine().run(spec, trace, want_state=True)
        batch = BatchEngine().run(spec, trace, want_state=True)
        assert (batch.correct, batch.total) == (scalar.correct, scalar.total)
        for key in scalar.state:
            np.testing.assert_array_equal(scalar.state[key],
                                          batch.state[key], err_msg=key)

    @pytest.mark.parametrize("spec", [
        StrideSpec(64),
        DFCMSpec(64, 256),
        OracleHybridSpec((StrideSpec(64), DFCMSpec(64, 256))),
    ], ids=lambda s: s.family)
    def test_want_predicted_false_same_counts_and_tables(self, spec):
        pcs, values = straddling_trace(5, 3000)
        with_pred = batch_mod._KERNELS[spec.family](
            spec, _KernelContext(pcs, values), None, want_predicted=True)
        without = batch_mod._KERNELS[spec.family](
            spec, _KernelContext(pcs, values), None, want_predicted=False)
        assert with_pred[0] is not None
        assert without[0] is None
        np.testing.assert_array_equal(with_pred[1], without[1])
        for key in with_pred[2]:
            np.testing.assert_array_equal(with_pred[2][key], without[2][key])


class TestFixpointWarmStart:
    """Resume round trips whose blocks cross the fixpoint size gate."""

    @pytest.mark.parametrize("boundaries", [
        [2500],                  # warm fixpoint block after a cold one
        [1000],                  # cold rounds, then warm fixpoint
        [3000, 3500, 4990],      # fixpoint, rounds, rounds mix
    ])
    def test_chunked_equals_whole(self, boundaries):
        spec = StrideSpec(64)
        pcs, values = straddling_trace(23, 5000)
        whole, want_state = step_block(spec, initial_state(spec), pcs,
                                       values)
        state = initial_state(spec)
        edges = [0] + boundaries + [len(pcs)]
        got = []
        for lo, hi in zip(edges, edges[1:]):
            predicted, state = step_block(spec, state, pcs[lo:hi],
                                          values[lo:hi])
            got.append(predicted)
        np.testing.assert_array_equal(np.concatenate(got), whole)
        for key in want_state:
            np.testing.assert_array_equal(state[key], want_state[key])

    def test_scalar_reference_parity(self):
        spec = StrideSpec(64)
        pcs, values = straddling_trace(29, 2600)
        predictor = spec.build()
        want = []
        for pc, value in zip(pcs.tolist(), values.tolist()):
            want.append(predictor.predict(pc))
            predictor.update(pc, value)
        predicted, state = step_block(spec, initial_state(spec), pcs,
                                      values)
        np.testing.assert_array_equal(predicted,
                                      np.asarray(want, dtype=np.int64))
        want_state = spec.extract_state(predictor)
        for key in want_state:
            np.testing.assert_array_equal(state[key], want_state[key])
