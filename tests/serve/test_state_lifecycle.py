"""Durable session state: snapshot/restore, LRU spill, restart parity.

The contract under test: a session round-trips through its arena
bit-identically (counts AND tables); the LRU evictor spills cold
sessions and the resolver reloads them transparently -- the client
sees zero protocol errors on the happy path; a drained server's
sessions survive into a fresh process on the same state directory;
and the state-version gate turns a mixed-deploy restore into an
explicit ``STATE_VERSION`` error instead of misread tables.
"""

import numpy as np
import pytest

from repro.core.spec import DFCMSpec, StrideSpec, spec_from_config
from repro.core.state import (STATE_VERSION, ArenaStore, open_arena,
                              write_arena)
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServerThread
from repro.serve.session import Session


def workload(n, seed=0):
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x400 + 4 * ((i + seed) % 7))
        values.append((11 * i + seed * 3 + (i % 4)) & 0xFFFFFFFF)
    return pcs, values


class TestSessionSnapshotRestore:
    def test_round_trip_through_store_is_bit_identical(self, tmp_path):
        spec = DFCMSpec(64, 256)
        session = Session(1, spec)
        pcs, values = workload(120)
        session.step_block(pcs[:80], values[:80])
        session.predict(0x400)  # leave an outstanding prediction

        store = ArenaStore(tmp_path)
        arrays, meta = session.snapshot()
        store.save(1, spec.to_config(), arrays, meta)
        arena = store.load(1)
        restored = Session.restore(
            1, spec_from_config(arena.spec_config), arena.state(),
            arena.meta)

        assert restored.predictions == session.predictions
        assert restored.outcomes == session.outcomes
        assert restored.hits == session.hits
        assert restored.outstanding_predictions() == \
            session.outstanding_predictions()
        # Identical futures: both halves continue in lockstep.
        rest = (pcs[80:], values[80:])
        want_pred, want_hits = session.step_block(*rest)
        got_pred, got_hits = restored.step_block(*rest)
        assert list(got_pred) == list(want_pred)
        assert got_hits == want_hits
        for key, arr in session.table_state().items():
            np.testing.assert_array_equal(restored.table_state()[key], arr)

    def test_snapshot_and_stats_carry_no_hit_window(self):
        # Sessions keep hit counts only; no rolling hit window is fed,
        # spilled or reported.
        session = Session(1, DFCMSpec(64, 256))
        session.step_block(*workload(40))
        arrays, _meta = session.snapshot()
        assert "__recent" not in arrays
        assert "recent_accuracy" not in session.stats()

    def test_restored_session_copies_on_write(self, tmp_path):
        # Writable means yours.  A sparse entry decodes into a fresh
        # array the restored session owns: it is stepped in place from
        # the first block, no copy.  A dense entry is a read-only view
        # of the map: the first block copies it once (copy-on-write).
        # Either way the arena is never written, and stepped twice the
        # session matches a never-spilled twin.
        spec = DFCMSpec(64, 256)
        session, twin = Session(1, spec), Session(2, spec)
        # Every level-1 entry live (dense), few level-2 ones (sparse).
        pcs = [0x400 + 4 * (i % 64) for i in range(384)]
        values = [1000 * (i % 64) + 3 * (i // 64) + 1 for i in range(384)]
        for live in (session, twin):
            live.step_block(pcs[:128], values[:128])
        store = ArenaStore(tmp_path)
        store.save(1, spec.to_config(), *session.snapshot())
        path = store.path_for(1)
        on_disk, verified = path.read_bytes(), store.verify()
        arena = store.load(1)
        sparse = {entry["key"] for entry in arena.header["arrays"]
                  if "nnz" in entry and not entry["key"].startswith("__")}
        assert sparse == {"l2"}
        mapped = arena.table_state()
        restored = Session.restore(1, spec_from_config(arena.spec_config),
                                   arena.state(), arena.meta)
        seated = dict(restored.table_state())
        for key, table in seated.items():
            assert table.flags.writeable == (key in sparse), key
        tables = None
        for lo, hi in ((128, 256), (256, 384)):
            assert tuple_of(restored.step_block(pcs[lo:hi], values[lo:hi])) \
                == tuple_of(twin.step_block(pcs[lo:hi], values[lo:hi]))
            if tables is None:
                tables = dict(restored.table_state())
        for key, table in twin.table_state().items():
            np.testing.assert_array_equal(restored.table_state()[key], table)
            # The first block's table is the one kept after it.
            assert restored.table_state()[key] is tables[key], key
            assert not np.shares_memory(tables[key], mapped[key]), key
            if key in sparse:  # stepped in place: never copied
                assert tables[key] is seated[key], key
            else:  # one private copy, made by the first block
                assert not np.shares_memory(tables[key], seated[key]), key
        assert path.read_bytes() == on_disk
        assert store.verify() == verified

    def test_outstanding_outcome_scores_after_restore(self, tmp_path):
        spec = StrideSpec(64)
        session = Session(1, spec)
        predicted = session.predict(0x400)
        store = ArenaStore(tmp_path)
        store.save(1, spec.to_config(), *session.snapshot())
        arena = store.load(1)
        restored = Session.restore(1, spec, arena.state(), arena.meta)
        assert restored.outcome(0x400, predicted) == 1
        assert restored.outcome(0x400, 1) == Session.NO_PREDICTION

    def test_scalar_session_is_not_spillable(self):
        windowed = Session(1, DFCMSpec(64, 256), window=4)
        assert not windowed.spillable
        with pytest.raises(ValueError, match="scalar-mode"):
            windowed.snapshot()

    def test_restore_refuses_scalar_shape(self):
        with pytest.raises(ValueError, match="does not restore"):
            Session.restore(1, DFCMSpec(64, 256), {}, {"window": 4})


class TestSnapshotFrame:
    def test_snapshot_writes_arena_and_session_keeps_serving(
            self, tmp_path):
        spec = DFCMSpec(64, 256)
        reference = Session(0, spec)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(spec)
            pcs, values = workload(40)
            half = (pcs[:20], values[:20])
            assert client.step_block(session, *half) == \
                tuple_of(reference.step_block(*half))
            report = client.snapshot(session)
            assert report["schema"] == 1
            assert report["session"] == session
            assert report["state_version"] == STATE_VERSION
            store = ArenaStore(tmp_path)
            assert store.session_ids() == [session]
            # The barrier does not stop the session.
            rest = (pcs[20:], values[20:])
            assert client.step_block(session, *rest) == \
                tuple_of(reference.step_block(*rest))
            stats = client.stats(0)
            assert stats["snapshots_total"] == 1

    def test_snapshot_without_state_dir_is_state_unavailable(self):
        with ServerThread() as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(DFCMSpec(64, 256))
            with pytest.raises(ServeError) as err:
                client.snapshot(session)
            assert err.value.code == protocol.ErrorCode.STATE_UNAVAILABLE

    def test_snapshot_unknown_session(self, tmp_path):
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient(port=server.port) as client:
            with pytest.raises(ServeError) as err:
                client.snapshot(999)
            assert err.value.code == protocol.ErrorCode.UNKNOWN_SESSION

    def test_snapshot_scalar_session_is_bad_frame(self, tmp_path):
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(DFCMSpec(64, 256), window=4)
            with pytest.raises(ServeError) as err:
                client.snapshot(session)
            assert err.value.code == protocol.ErrorCode.BAD_FRAME


class TestLRUEviction:
    def test_spill_and_transparent_reload_under_load(self, tmp_path):
        spec = DFCMSpec(64, 256)
        references = {}
        with ServerThread(state_dir=tmp_path,
                          max_resident=1) as server:
            with ServeClient(port=server.port) as client:
                sessions = [client.open_session(spec) for _ in range(3)]
                for sid in sessions:
                    references[sid] = Session(0, spec)
                # Round-robin across sessions: with one resident slot,
                # almost every touch reloads a spilled session.  The
                # happy path must stay error-free and bit-identical.
                for i in range(30):
                    sid = sessions[i % 3]
                    pcs, values = workload(5, seed=i)
                    got = client.step_block(sid, pcs, values)
                    want = references[sid].step_block(pcs, values)
                    assert got == tuple_of(want)
                stats = client.stats(0)
                assert stats["sessions_resident"] <= 1
                assert stats["sessions_open"] == 3
                assert stats["evictions_total"] >= 2
                assert stats["reloads_total"] >= 2
                for sid in sessions:
                    closed = client.close_session(sid)
                    assert closed["hits"] == references[sid].hits
        # Every request above succeeded (an ERROR frame raises
        # ServeError), so the spill/reload path served with zero
        # protocol errors; nothing was left behind on close.
        assert ArenaStore(tmp_path).session_ids() == []

    def test_scalar_sessions_never_evict(self, tmp_path):
        with ServerThread(state_dir=tmp_path, max_resident=1) as server, \
                ServeClient(port=server.port) as client:
            scalar = [client.open_session(DFCMSpec(64, 256), window=2)
                      for _ in range(3)]
            for sid in scalar:
                client.step(sid, 0x400, 7)
            stats = client.stats(0)
            assert stats["sessions_resident"] == 3
            assert stats["evictions_total"] == 0
            assert ArenaStore(tmp_path).session_ids() == []

    def test_close_deletes_the_arena(self, tmp_path):
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient(port=server.port) as client:
            session = client.open_session(DFCMSpec(64, 256))
            client.step(session, 0x400, 7)
            client.snapshot(session)
            assert ArenaStore(tmp_path).session_ids() == [session]
            client.close_session(session)
            assert ArenaStore(tmp_path).session_ids() == []

    def test_max_resident_validation(self, tmp_path):
        from repro.serve.server import PredictionServer
        with pytest.raises(ValueError, match="max_resident"):
            PredictionServer(state_dir=tmp_path, max_resident=0)

    def test_max_resident_requires_a_state_dir(self):
        # A cap with nowhere to spill to would never evict.
        from repro.serve.server import PredictionServer
        with pytest.raises(ValueError, match="state_dir"):
            PredictionServer(max_resident=2)


class TestRestartParity:
    def test_drain_spills_and_a_new_process_resumes(self, tmp_path):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(200, seed=3)
        reference = Session(0, spec)

        with ServerThread(state_dir=tmp_path) as first:
            with ServeClient(port=first.port) as client:
                session = client.open_session(spec)
                first_half = (pcs[:100], values[:100])
                got = client.step_block(session, *first_half)
                assert got == tuple_of(reference.step_block(*first_half))
        # Graceful drain spilled the open session instead of dropping it.
        assert first.final_stats["sessions_spilled_on_drain"] == 1
        assert ArenaStore(tmp_path).session_ids() == [session]

        with ServerThread(state_dir=tmp_path) as second:
            with ServeClient(port=second.port) as client:
                stats = client.stats(0)
                assert stats["sessions_open"] == 1
                assert stats["sessions_spilled"] == 1
                rest = (pcs[100:], values[100:])
                got = client.step_block(session, *rest)
                assert got == tuple_of(reference.step_block(*rest))
                closed = client.close_session(session)
                assert closed["hits"] == reference.hits
                assert closed["predictions"] == reference.predictions
                # New sessions never collide with adopted ids.
                assert client.open_session(spec) > session

    def test_adopted_tables_match_offline_bit_for_bit(self, tmp_path):
        spec = DFCMSpec(64, 256)
        pcs, values = workload(150, seed=5)
        with ServerThread(state_dir=tmp_path) as first:
            with ServeClient(port=first.port) as client:
                session = client.open_session(spec)
                client.step_block(session, pcs[:75], values[:75])

        with ServerThread(state_dir=tmp_path) as second:
            with ServeClient(port=second.port) as client:
                client.step_block(session, pcs[75:], values[75:])
                client.snapshot(session)

        offline = Session(0, spec)
        offline.step_block(pcs, values)
        arena = open_arena(ArenaStore(tmp_path).path_for(session))
        for key, want in offline.table_state().items():
            np.testing.assert_array_equal(arena.table_state()[key], want)


class TestStateVersionGate:
    def test_stale_arena_refuses_with_state_version_error(self, tmp_path):
        spec = DFCMSpec(64, 256)
        donor = Session(1, spec)
        donor.step_block(*workload(30))
        arrays, meta = donor.snapshot()
        store = ArenaStore(tmp_path)
        write_arena(store.path_for(1), spec.to_config(), arrays, meta,
                    state_version=STATE_VERSION + 1)

        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient(port=server.port) as client:
            assert client.stats(0)["sessions_spilled"] == 1
            with pytest.raises(ServeError) as err:
                client.step(1, 0x400, 7)
            assert err.value.code == protocol.ErrorCode.STATE_VERSION
            assert f"v{STATE_VERSION + 1}" in err.value.message
            # The arena was not quarantined: the old deploy still owns it.
            assert store.session_ids() == [1]


def tuple_of(step_block_result):
    """Normalise a Session.step_block result for == against the wire."""
    predicted, hits = step_block_result
    return list(predicted), hits
