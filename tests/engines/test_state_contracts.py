"""The warm-start state contracts behind open and PREDICT.

- ``initial_state(spec)`` is derived from the declared table layout
  (one zero int64 table per ``spec.tables()`` entry) and must equal,
  key for key, the canonical ``extract_state`` of a freshly built
  predictor for every resumable spec -- without building one.
- ``predict_record`` is the read-only kernel pass: it returns what
  ``step_block`` on a copy of the state predicts for the record, and
  writes (or copies) nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engines.resume import (RESUMABLE_FAMILIES, initial_state,
                                       predict_record, step_block)
from repro.core.spec import (SPEC_FAMILIES, DFCMSpec, FCMSpec, HashSpec,
                             LastValueSpec, StrideSpec, TwoDeltaStrideSpec)

#: Every resumable family of the spec registry, at several shapes.
REGISTRY_SPECS = [
    LastValueSpec(1),
    LastValueSpec(64),
    LastValueSpec(1 << 12),
    StrideSpec(64),
    StrideSpec(256, counter_bits=2, counter_inc=2, counter_dec=1),
    TwoDeltaStrideSpec(64),
    TwoDeltaStrideSpec(1 << 12),
    FCMSpec(64, 256),
    FCMSpec(1 << 10, 1 << 12, HashSpec(12, "fs", shift=3)),
    DFCMSpec(64, 256),
    DFCMSpec(64, 256, stride_bits=8),
    DFCMSpec(1 << 10, 1 << 12, HashSpec(12, "fs", shift=4)),
]

#: One small spec per resumable family, for the property tests.
FAMILY_SPECS = [
    LastValueSpec(16),
    StrideSpec(16),
    TwoDeltaStrideSpec(16),
    FCMSpec(16, 64),
    DFCMSpec(16, 64),
]


def ids(spec):
    return spec.name


def test_registry_specs_cover_every_resumable_family():
    assert set(RESUMABLE_FAMILIES) <= set(SPEC_FAMILIES)
    assert {spec.family for spec in REGISTRY_SPECS} == \
        set(RESUMABLE_FAMILIES)
    assert {spec.family for spec in FAMILY_SPECS} == \
        set(RESUMABLE_FAMILIES)


class TestInitialState:
    @pytest.mark.parametrize("spec", REGISTRY_SPECS, ids=ids)
    def test_equals_a_built_predictors_state(self, spec):
        zero = initial_state(spec)
        built = spec.extract_state(spec.build())
        assert list(zero) == list(built)
        for key, table in built.items():
            assert zero[key].dtype == table.dtype, key
            np.testing.assert_array_equal(zero[key], table, err_msg=key)

    @pytest.mark.parametrize("spec", REGISTRY_SPECS, ids=ids)
    def test_tables_are_writable_contiguous_int64(self, spec):
        for key, table in initial_state(spec).items():
            assert table.dtype == np.int64, key
            assert table.flags.c_contiguous, key
            assert table.flags.writeable, key
            assert table.flags.owndata, key

    def test_builds_no_predictor(self, monkeypatch):
        def refuse(self):
            raise AssertionError("initial_state built a predictor")

        for spec in FAMILY_SPECS:
            monkeypatch.setattr(type(spec), "build", refuse)
            assert initial_state(spec)

    def test_calls_share_no_table(self):
        spec = DFCMSpec(64, 256)
        first, second = initial_state(spec), initial_state(spec)
        for key in first:
            assert not np.shares_memory(first[key], second[key]), key


def warm_state(spec, seed, n=200, pool=12):
    rng = np.random.default_rng(seed)
    pcs = (rng.integers(0, 64, size=pool) << 2)[rng.integers(0, pool,
                                                             size=n)]
    values = np.where(rng.random(n) < 0.6,
                      (pcs >> 2) * 5 + np.arange(n) * 3,
                      rng.integers(0, 1 << 32, size=n)) & 0xFFFFFFFF
    _, state = step_block(spec, initial_state(spec),
                          pcs.astype(np.int64), values.astype(np.int64))
    return state


pcs_strategy = st.lists(st.integers(0, (1 << 12) - 1), min_size=1,
                        max_size=12)


class TestPredictRecord:
    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(FAMILY_SPECS), seed=st.integers(0, 99),
           pcs=pcs_strategy, read_only=st.booleans())
    def test_matches_step_block_on_a_copy_and_writes_nothing(
            self, family, seed, pcs, read_only):
        spec = family
        state = warm_state(spec, seed)
        if read_only:  # an arena's mmap views: must not be copied
            for table in state.values():
                table.flags.writeable = False
        tables = dict(state)
        before = {key: table.copy() for key, table in state.items()}
        for pc in pcs:
            copy = {key: table.copy() for key, table in before.items()}
            want, _ = step_block(spec, copy, np.array([pc], np.int64),
                                 np.zeros(1, np.int64))
            assert predict_record(spec, state, pc) == int(want[0])
        assert state.keys() == tables.keys()
        for key, table in tables.items():
            assert state[key] is table, key
            np.testing.assert_array_equal(table, before[key],
                                          err_msg=f"{spec.name} {key}")

    def test_non_resumable_spec_is_refused(self):
        spec = FCMSpec(64, 256, HashSpec(8, "xor", order=2))
        with pytest.raises(ValueError, match="not resumable"):
            predict_record(spec, {}, 0x400)
