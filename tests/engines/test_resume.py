"""Resumable (warm-start) batch stepping vs the scalar reference.

The contract under test: chunking a trace arbitrarily and threading the
state through ``step_block`` produces, for every supported family,
bit-identical per-record predictions AND bit-identical final tables to
stepping a stateful scalar predictor record by record.
"""

import numpy as np
import pytest

from repro.core.engines import run_spec
from repro.core.engines.resume import (RESUMABLE_FAMILIES, initial_state,
                                       step_block, supports_resume)
from repro.core.spec import (DFCMSpec, FCMSpec, HashSpec, LastValueSpec,
                             OracleHybridSpec, StrideSpec, TwoDeltaStrideSpec)

SPECS = [
    LastValueSpec(64),
    StrideSpec(64),
    TwoDeltaStrideSpec(64),
    FCMSpec(64, 256),
    DFCMSpec(64, 256),
    DFCMSpec(64, 256, stride_bits=8),
]


def random_trace(seed, n=800, pcs_pool=40):
    rng = np.random.default_rng(seed)
    pc_choices = rng.integers(0, 1 << 20, size=pcs_pool) << 2
    pcs = rng.choice(pc_choices, size=n)
    # A mix of strided, repeating and random values, so every update
    # rule (promotion, confidence gates, hash paths) gets exercised.
    values = np.where(
        rng.random(n) < 0.5,
        (pcs >> 2) * 3 + np.arange(n) * rng.integers(1, 5),
        rng.integers(0, 1 << 32, size=n),
    ) & 0xFFFFFFFF
    return pcs.astype(np.int64), values.astype(np.int64)


def scalar_reference(spec, pcs, values):
    predictor = spec.build()
    predicted = []
    for pc, value in zip(pcs.tolist(), values.tolist()):
        predicted.append(predictor.predict(pc))
        predictor.update(pc, value)
    return np.asarray(predicted, dtype=np.int64), spec.extract_state(predictor)


def chunks(n, boundaries):
    edges = [0] + sorted(boundaries) + [n]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


class TestSupports:
    def test_supported_families(self):
        for spec in SPECS:
            assert supports_resume(spec)
        assert set(s.family for s in SPECS) <= set(RESUMABLE_FAMILIES)

    def test_hybrid_not_resumable(self):
        hybrid = OracleHybridSpec((LastValueSpec(64),))
        assert not supports_resume(hybrid)
        with pytest.raises(ValueError):
            initial_state(hybrid)

    def test_non_fs_hash_not_resumable(self):
        spec = FCMSpec(64, 256, HashSpec(8, "xor", order=2))
        assert not supports_resume(spec)

    def test_families_partition_the_spec_registry(self):
        # Every registered family must be explicitly classified: a new
        # family added to SPEC_FAMILIES without a resumability decision
        # would otherwise silently fall through supports_resume (and
        # the serve durability layer) as non-resumable.
        from repro.core.engines.resume import NON_RESUMABLE_FAMILIES
        from repro.core.spec import SPEC_FAMILIES
        resumable = set(RESUMABLE_FAMILIES)
        non_resumable = set(NON_RESUMABLE_FAMILIES)
        assert not resumable & non_resumable
        assert resumable | non_resumable == set(SPEC_FAMILIES)


class TestColdStartMatchesBatch:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_whole_trace_equals_batch_engine(self, spec):
        from repro.trace.trace import ValueTrace
        pcs, values = random_trace(1)
        trace = ValueTrace("t", pcs, values)
        outcome = run_spec(spec, trace, engine="batch", want_state=True)
        predicted, state = step_block(spec, initial_state(spec), pcs, values)
        assert int((predicted == values).sum()) == outcome.correct
        assert state.keys() == outcome.state.keys()
        for key in state:
            np.testing.assert_array_equal(state[key], outcome.state[key])


class TestChunkedParity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", [2, 3])
    def test_chunked_predictions_and_state(self, spec, seed):
        pcs, values = random_trace(seed)
        want_predicted, want_state = scalar_reference(spec, pcs, values)
        rng = np.random.default_rng(seed + 100)
        boundaries = sorted(rng.integers(1, len(pcs), size=7).tolist())
        state = initial_state(spec)
        got = []
        for lo, hi in chunks(len(pcs), boundaries):
            predicted, state = step_block(spec, state, pcs[lo:hi],
                                          values[lo:hi])
            got.append(predicted)
        np.testing.assert_array_equal(np.concatenate(got), want_predicted)
        assert state.keys() == want_state.keys()
        for key in state:
            np.testing.assert_array_equal(state[key], want_state[key])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_single_record_chunks(self, spec):
        pcs, values = random_trace(7, n=120, pcs_pool=6)
        want_predicted, want_state = scalar_reference(spec, pcs, values)
        state = initial_state(spec)
        got = []
        for i in range(len(pcs)):
            predicted, state = step_block(spec, state, pcs[i:i + 1],
                                          values[i:i + 1])
            got.append(int(predicted[0]))
        np.testing.assert_array_equal(np.asarray(got, dtype=np.int64),
                                      want_predicted)
        for key in want_state:
            np.testing.assert_array_equal(state[key], want_state[key])


class TestStepBlockContract:
    def test_empty_block_returns_state_unchanged(self):
        spec = LastValueSpec(16)
        state = initial_state(spec)
        predicted, after = step_block(spec, state, np.zeros(0, np.int64),
                                      np.zeros(0, np.int64))
        assert len(predicted) == 0 and after is state

    def test_read_only_state_not_mutated(self):
        # A read-only state (an arena's mmap views) is never written:
        # each table step_block writes is replaced in the dict by a
        # private copy, which advances exactly like a writable copy.
        # 3000 stride records take the fixpoint path, 200 the rounds.
        for spec, n in [(spec, 200) for spec in SPECS] + [(StrideSpec(64),
                                                           3000)]:
            self.check_read_only_state(spec, n)

    @staticmethod
    def check_read_only_state(spec, n):
        state = initial_state(spec)
        step_block(spec, state, *random_trace(12, n=300, pcs_pool=5))
        frozen = {}
        for key, table in state.items():
            table.flags.writeable = False
            frozen[key] = table
        before = {k: v.copy() for k, v in frozen.items()}
        writable = {k: v.copy() for k, v in frozen.items()}
        pcs, values = random_trace(11, n=n, pcs_pool=5)
        predicted, after = step_block(spec, dict(frozen), pcs, values)
        want_predicted, want = step_block(spec, writable, pcs, values)
        np.testing.assert_array_equal(predicted, want_predicted)
        assert after.keys() == frozen.keys()
        for key in frozen:
            np.testing.assert_array_equal(frozen[key], before[key],
                                          err_msg=f"{spec.name} {key}")
            np.testing.assert_array_equal(after[key], want[key],
                                          err_msg=f"{spec.name} {key}")
            assert after[key].flags.writeable

    def test_writable_state_advances_in_place(self):
        spec = DFCMSpec(16, 64)
        state = initial_state(spec)
        tables = dict(state)
        pcs, values = random_trace(11, n=200, pcs_pool=5)
        _, want = scalar_reference(spec, pcs, values)
        _, after = step_block(spec, state, pcs, values)
        assert after is state
        for key, table in tables.items():
            assert state[key] is table
            np.testing.assert_array_equal(table, want[key])

    def test_length_mismatch_raises(self):
        spec = LastValueSpec(16)
        with pytest.raises(ValueError):
            step_block(spec, initial_state(spec),
                       np.zeros(3, np.int64), np.zeros(2, np.int64))
