"""Session semantics: mode selection, accounting, engine/scalar parity,
in-place tables."""

import tracemalloc

import numpy as np
import pytest

from repro.core.spec import (DFCMSpec, FCMSpec, HashSpec, LastValueSpec,
                             StrideSpec)
from repro.serve.session import Session


def reference_session(spec, window=0):
    """A scalar-mode twin of the same spec (forced off the engine)."""
    session = Session.__new__(Session)
    Session.__init__(session, 999, spec, window)
    if session.mode == "engine":
        session.mode = "scalar"
        session._state = None
        session._predictor = spec.build()
    return session


class TestModeSelection:
    def test_resumable_window_zero_uses_engine(self):
        assert Session(1, DFCMSpec(64, 256)).mode == "engine"
        assert Session(1, FCMSpec(64, 256)).mode == "engine"
        assert Session(1, StrideSpec(64)).mode == "engine"

    def test_window_forces_scalar(self):
        session = Session(1, DFCMSpec(64, 256), window=4)
        assert session.mode == "scalar"
        assert session.window == 4

    def test_unsupported_hash_forces_scalar(self):
        spec = FCMSpec(64, 256, hash=HashSpec(8, "xor", 4))
        assert Session(1, spec).mode == "scalar"

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            Session(1, FCMSpec(64, 256), window=-1)


class TestAccounting:
    def test_predict_outcome_pairing(self):
        session = Session(1, StrideSpec(64))
        session.predict(0x40)
        session.outcome(0x40, 5)
        predicted = session.predict(0x40)
        hit = session.outcome(0x40, predicted)
        assert hit == 1
        assert session.predictions == 2
        assert session.outcomes == 2
        assert session.hits == 1  # first outcome was a cold miss

    def test_outcome_without_prediction(self):
        session = Session(1, LastValueSpec(64))
        assert session.outcome(0x40, 7) == Session.NO_PREDICTION
        assert session.outcomes == 0
        # ... but the tables trained: the next predict sees the value.
        assert session.predict(0x40) == 7

    def test_per_pc_fifo(self):
        session = Session(1, StrideSpec(64))
        first = session.predict(0x40)
        session.predict(0x40)
        assert session.outstanding_predictions() == 2
        session.outcome(0x40, first)
        assert session.outstanding_predictions() == 1
        assert session.hits == 1

    def test_step_block_counts_every_record(self):
        session = Session(1, StrideSpec(64))
        predicted, hits = session.step_block([4, 4, 4], [1, 2, 3])
        assert len(predicted) == 3
        assert session.predictions == 3
        assert session.outcomes == 3
        assert session.hits == hits
        assert 0 <= hits <= 3

    def test_step_block_length_mismatch(self):
        with pytest.raises(ValueError):
            Session(1, StrideSpec(64)).step_block([1], [])

    def test_empty_block(self):
        assert Session(1, StrideSpec(64)).step_block([], []) == ([], 0)

    def test_stats_shape(self):
        session = Session(7, DFCMSpec(64, 256), window=2)
        session.step(4, 9)
        stats = session.stats()
        assert stats["session"] == 7
        assert stats["family"] == "dfcm"
        assert stats["window"] == 2
        assert stats["mode"] == "scalar"
        assert stats["predictions"] == 1
        assert stats["pending_updates"] == 1  # the one update, still queued
        assert stats["accuracy"] == stats["hits"] / stats["outcomes"]

    def test_accuracy_none_before_outcomes(self):
        assert Session(1, StrideSpec(64)).stats()["accuracy"] is None


def stride_values(n):
    """A mixed workload two pcs can disagree on."""
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x40 if i % 3 else 0x44)
        values.append((7 * i + (i % 5)) & 0xFFFFFFFF)
    return pcs, values


class TestEngineScalarParity:
    @pytest.mark.parametrize("spec", [
        FCMSpec(64, 256), DFCMSpec(64, 256), StrideSpec(64),
    ], ids=lambda s: s.family)
    def test_mixed_ops_match_scalar_reference(self, spec):
        engine = Session(1, spec)
        scalar = reference_session(spec)
        assert engine.mode == "engine"
        pcs, values = stride_values(120)
        for i, (pc, value) in enumerate(zip(pcs, values)):
            kind = i % 3
            if kind == 0:
                assert engine.predict(pc) == scalar.predict(pc)
                assert engine.outcome(pc, value) == scalar.outcome(pc, value)
            elif kind == 1:
                assert engine.step(pc, value) == scalar.step(pc, value)
            else:
                block = ([pc, pc ^ 4], [value, (value * 3) & 0xFFFFFFFF])
                engine_pred, engine_hits = engine.step_block(*block)
                scalar_pred, scalar_hits = scalar.step_block(*block)
                assert list(engine_pred) == list(scalar_pred)
                assert engine_hits == scalar_hits
        assert engine.hits == scalar.hits
        assert engine.stats()["hits"] == scalar.stats()["hits"]


class TestInPlaceTables:
    """A warm block costs what it touches, not a rebuild of the tables."""

    SPEC = DFCMSpec(1 << 16, 1 << 12)  # ~1.06 MB of int64 tables

    @staticmethod
    def block(seed, n=64):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, 1 << 20, size=n) << 2,
                rng.integers(0, 1 << 32, size=n))

    def test_warm_block_allocates_no_table(self):
        session = Session(1, self.SPEC)
        session.step_block(*self.block(1))
        tables = dict(session.table_state())
        pcs, values = self.block(2)
        tracemalloc.start()
        try:
            session.step_block(pcs, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"peak {peak} bytes for 64 records"
        for key, table in tables.items():
            assert session.table_state()[key] is table, key

    def test_predict_does_not_train(self):
        session = Session(1, self.SPEC)
        session.step_block(*self.block(3))
        tables = dict(session.table_state())
        before = {key: table.copy() for key, table in tables.items()}
        first = session.predict(0x400)
        assert session.predict(0x400) == first
        for key, table in tables.items():
            assert session.table_state()[key] is table, key
            np.testing.assert_array_equal(table, before[key], err_msg=key)

    def test_predict_allocates_what_one_record_touches(self, tmp_path):
        # Neither a live session nor one re-seated on its arena's
        # read-only views copies a table to answer a PREDICT.
        from repro.core.state import ArenaStore
        session = Session(1, self.SPEC)
        session.step_block(*self.block(4))
        store = ArenaStore(tmp_path)
        store.save(1, self.SPEC.to_config(), *session.snapshot())
        arena = store.load(1)
        restored = Session.restore(1, self.SPEC, arena.state(), arena.meta)
        for live in (session, restored):
            tables = dict(live.table_state())
            live.predict(0x400)  # first call pays imports and caches
            tracemalloc.start()
            try:
                live.predict(0x404)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, f"peak {peak} bytes for one PREDICT"
            for key, table in tables.items():
                assert live.table_state()[key] is table, key
        assert restored.predict(0x408) == session.predict(0x408)


class TestRestore:
    SPEC = DFCMSpec(256, 1024)

    def test_restore_builds_no_session(self, tmp_path, monkeypatch):
        # Restore seats the session on the arena's arrays directly: no
        # zero tables, no predictor, nothing thrown away.
        from repro.core.state import ArenaStore
        from repro.serve import session as session_module
        live = Session(1, self.SPEC)
        rng = np.random.default_rng(8)
        pcs = rng.integers(0, 1 << 12, size=300) << 2
        values = rng.integers(0, 1 << 32, size=300)
        live.step_block(pcs[:200], values[:200])
        store = ArenaStore(tmp_path)
        store.save(1, self.SPEC.to_config(), *live.snapshot())

        def refuse(*args, **kwargs):
            raise AssertionError("restore built a fresh session")

        monkeypatch.setattr(session_module, "initial_state", refuse)
        monkeypatch.setattr(DFCMSpec, "build", refuse)
        arena = store.load(1)
        restored = Session.restore(1, self.SPEC, arena.state(), arena.meta)
        assert restored.predict(int(pcs[0])) == live.predict(int(pcs[0]))
        got = restored.step_block(pcs[200:], values[200:])
        want = live.step_block(pcs[200:], values[200:])
        assert list(got[0]) == list(want[0]) and got[1] == want[1]
        assert restored.table_stats()["aliasing"] == \
            live.table_stats()["aliasing"]
