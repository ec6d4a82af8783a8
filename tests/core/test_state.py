"""Durable arena layer: format round-trips, integrity, the store.

The contract under test: an arena file round-trips table state
bit-identically, dense entries through zero-copy mmap views and sparse
ones through fresh decoded arrays; every corruption mode is detected
before any array is handed out; a state-version mismatch is a
*distinct*, non-quarantining refusal; a format-1 arena still restores;
and the store's verify/compact sweeps classify files the way
``repro state`` reports them.
"""

import json
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.engines.resume import initial_state, step_block
from repro.core.spec import DFCMSpec, StrideSpec, spec_from_config
from repro.core.state import (ARENA_FORMAT_VERSION, ARENA_MAGIC,
                              STATE_VERSION, Arena, ArenaError, ArenaStore,
                              StateVersionError, arena_bytes, arena_info,
                              atomic_write_bytes, open_arena, quarantine_file,
                              spec_digest, verify_arena, write_arena)


def trained_state(spec, n=300, seed=7):
    rng = np.random.default_rng(seed)
    pcs = (rng.integers(0, 1 << 16, size=n) << 2).astype(np.int64)
    values = rng.integers(0, 1 << 32, size=n).astype(np.int64)
    _, state = step_block(spec, initial_state(spec), pcs, values)
    return state


class TestRoundTrip:
    def test_state_round_trips_bit_identically(self, tmp_path):
        spec = DFCMSpec(64, 256)
        state = trained_state(spec)
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), state, meta={"hits": 41})
        arena = open_arena(path)
        assert arena.spec_config == spec.to_config()
        assert arena.meta == {"hits": 41}
        assert arena.state_version == STATE_VERSION
        got = arena.state()
        assert got.keys() == state.keys()
        for key in state:
            np.testing.assert_array_equal(got[key], state[key])
            assert got[key].dtype == state[key].dtype

    def test_views_are_zero_copy_and_feed_step_block(self, tmp_path):
        spec = DFCMSpec(64, 256)
        state = trained_state(spec)
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), state)
        arena = open_arena(path)
        views = arena.state()
        for arr in views.values():
            # A view over the read-only map: no payload copy was made.
            assert not arr.flags.writeable
            assert arr.base is not None
        # The warm-start kernels accept the views directly and must
        # produce exactly what the in-memory state produces.
        pcs = np.asarray([0x400, 0x404, 0x400], dtype=np.int64)
        values = np.asarray([5, 9, 11], dtype=np.int64)
        want_pred, want_state = step_block(spec, state, pcs, values)
        got_pred, got_state = step_block(spec, views, pcs, values)
        np.testing.assert_array_equal(got_pred, want_pred)
        for key in want_state:
            np.testing.assert_array_equal(got_state[key], want_state[key])

    def test_aux_arrays_are_separated_from_tables(self, tmp_path):
        spec = StrideSpec(64)
        state = dict(trained_state(spec))
        state["__recent"] = np.asarray([1, 0, 1], dtype=np.int64)
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), state)
        arena = open_arena(path)
        assert "__recent" not in arena.table_state()
        np.testing.assert_array_equal(arena.aux("recent"), [1, 0, 1])
        assert arena.aux("nope") is None

    def test_spec_config_restores_an_equal_spec(self, tmp_path):
        spec = DFCMSpec(64, 256, stride_bits=8)
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), trained_state(spec))
        arena = open_arena(path)
        assert spec_from_config(arena.spec_config) == spec
        # to_config was not consumed: a second resolve still works.
        assert spec_from_config(arena.spec_config) == spec

    def test_empty_and_zero_size_arrays(self, tmp_path):
        spec = StrideSpec(64)
        state = {"table": np.zeros((0, 3), dtype=np.int64)}
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), state)
        got = open_arena(path).state()["table"]
        assert got.shape == (0, 3)
        assert got.dtype == np.int64


class TestIntegrity:
    def _write(self, tmp_path, name="s.arena"):
        spec = StrideSpec(64)
        path = tmp_path / name
        write_arena(path, spec.to_config(), trained_state(spec))
        return path

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTARENA"
        path.write_bytes(raw)
        with pytest.raises(ArenaError, match="bad magic"):
            open_arena(path)

    def test_unknown_format_version(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (ARENA_FORMAT_VERSION + 1).to_bytes(4, "big")
        path.write_bytes(raw)
        with pytest.raises(ArenaError, match="arena format"):
            open_arena(path)

    def test_truncation(self, tmp_path):
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(ArenaError, match="truncated"):
            open_arena(path)

    def test_payload_bitflip_fails_crc(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40
        path.write_bytes(raw)
        with pytest.raises(ArenaError, match="CRC mismatch"):
            open_arena(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.arena"
        path.write_bytes(b"")
        with pytest.raises(ArenaError, match="empty"):
            open_arena(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArenaError, match="cannot open"):
            open_arena(tmp_path / "nope.arena")

    def test_verify_arena_names_the_defect(self, tmp_path):
        path = self._write(tmp_path)
        assert verify_arena(path) is None
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40
        path.write_bytes(raw)
        assert "CRC mismatch" in verify_arena(path)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "x.bin"
        assert atomic_write_bytes(path, b"hello") == 5
        assert path.read_bytes() == b"hello"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_quarantine_moves_aside(self, tmp_path):
        path = tmp_path / "x.arena"
        path.write_bytes(b"junk")
        target = quarantine_file(path)
        assert not path.exists()
        assert target.name == "x.arena.corrupt"
        assert target.read_bytes() == b"junk"


def session_arena():
    """(spec config, arrays, meta) of a real engine-mode session
    snapshot: DFCM(64, 256) tables plus the session's aux arrays."""
    from repro.serve.session import Session
    spec = DFCMSpec(64, 256)
    session = Session(1, spec)
    rng = np.random.default_rng(3)
    pcs = (rng.integers(0, 1 << 12, size=500) << 2).astype(np.int64)
    values = rng.integers(0, 1 << 32, size=500).astype(np.int64)
    session.step_block(pcs, values)
    arrays, meta = session.snapshot()
    assert any(key.startswith("__") for key in arrays)
    return spec.to_config(), arrays, meta


def refusal(path):
    """How :func:`open_arena` treats *path*: ``"refused"`` for an
    :class:`ArenaError`, else what escaped."""
    try:
        open_arena(path)
    except StateVersionError:
        return "state version"
    except ArenaError:
        return "refused"
    return "opened"


class TestCorruption:
    """Every single-bit flip and every truncation of a real session
    arena is refused as corrupt: never read back as state, never
    mistaken for a sound arena from another deploy generation."""

    def test_every_bit_flip_is_refused(self, tmp_path):
        raw = bytes(arena_bytes(*session_arena()))
        path = tmp_path / "s.arena"
        path.write_bytes(raw)
        escaped = []
        with open(path, "r+b") as handle:
            for offset, byte in enumerate(raw):
                for bit in range(8):
                    os.pwrite(handle.fileno(), bytes([byte ^ (1 << bit)]),
                              offset)
                    outcome = refusal(path)
                    if outcome != "refused":
                        escaped.append((offset, bit, outcome))
                os.pwrite(handle.fileno(), bytes([byte]), offset)
        assert escaped == []
        assert refusal(path) == "opened"  # restored byte for byte

    def test_every_truncation_is_refused(self, tmp_path):
        raw = bytes(arena_bytes(*session_arena()))
        path = tmp_path / "s.arena"
        path.write_bytes(raw)
        escaped = []
        # Shortest last, so each cut leaves a true prefix of the file.
        for length in range(len(raw) - 1, -1, -1):
            os.truncate(path, length)
            outcome = refusal(path)
            if outcome != "refused":
                escaped.append((length, outcome))
        assert escaped == []

    def test_sampled_flips_are_quarantined_by_the_store(self, tmp_path):
        config, arrays, meta = session_arena()
        store = ArenaStore(tmp_path)
        size = store.save(1, config, arrays, meta)
        # Each prefix field (magic, format, state version, header
        # length, CRC, payload length) at both ends, the last byte,
        # and a spread through header and payload.
        offsets = {0, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 31, size - 1}
        offsets |= set(np.random.default_rng(11).integers(
            32, size, 16).tolist())
        for n, offset in enumerate(sorted(offsets), start=1):
            store.save(n, config, arrays, meta)
            path = store.path_for(n)
            raw = bytearray(path.read_bytes())
            raw[offset] ^= 1 << (n % 8)
            path.write_bytes(raw)
            assert store.load(n) is None, offset
            assert not path.exists()
            assert path.with_name(path.name + ".corrupt").exists()


class TestStateVersionGate:
    def test_mismatch_refuses_with_both_sides_named(self, tmp_path):
        spec = StrideSpec(64)
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), trained_state(spec),
                    state_version=STATE_VERSION + 1)
        with pytest.raises(StateVersionError) as err:
            open_arena(path)
        message = str(err.value)
        assert f"v{STATE_VERSION + 1}" in message
        assert f"v{STATE_VERSION}" in message

    def test_mismatch_is_not_a_defect(self, tmp_path):
        spec = StrideSpec(64)
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), trained_state(spec),
                    state_version=STATE_VERSION + 1)
        # The file is sound: verify passes, inspection tools open it.
        assert verify_arena(path) is None
        arena = open_arena(path, check_state_version=False)
        assert isinstance(arena, Arena)
        assert arena.state_version == STATE_VERSION + 1

    def test_store_load_propagates_and_does_not_quarantine(self, tmp_path):
        store = ArenaStore(tmp_path)
        spec = StrideSpec(64)
        write_arena(store.path_for(3), spec.to_config(),
                    trained_state(spec), state_version=STATE_VERSION + 1)
        with pytest.raises(StateVersionError):
            store.load(3)
        assert store.path_for(3).exists()
        assert list(tmp_path.glob("*.corrupt")) == []


class TestStore:
    def test_save_load_delete_cycle(self, tmp_path):
        store = ArenaStore(tmp_path)
        spec = DFCMSpec(64, 256)
        state = trained_state(spec)
        store.save(7, spec.to_config(), state, meta={"hits": 3})
        assert store.session_ids() == [7]
        arena = store.load(7)
        assert arena.meta["hits"] == 3
        for key in state:
            np.testing.assert_array_equal(arena.state()[key], state[key])
        assert store.delete(7) is True
        assert store.delete(7) is False
        assert store.load(7) is None

    def test_session_id_naming(self, tmp_path):
        store = ArenaStore(tmp_path)
        path = store.path_for(42)
        assert path.name == f"session-{42:016d}.arena"
        assert ArenaStore.session_id_of(path) == 42
        assert ArenaStore.session_id_of(tmp_path / "other.arena") is None
        assert ArenaStore.session_id_of(tmp_path / "session-x.arena") is None

    def test_corrupt_arena_is_quarantined_on_load(self, tmp_path):
        store = ArenaStore(tmp_path)
        spec = StrideSpec(64)
        store.save(5, spec.to_config(), trained_state(spec))
        path = store.path_for(5)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(raw)
        assert store.load(5) is None
        assert not path.exists()
        assert (tmp_path / (path.name + ".corrupt")).exists()

    def test_verify_classifies_defective_and_stale(self, tmp_path):
        store = ArenaStore(tmp_path)
        spec = StrideSpec(64)
        store.save(1, spec.to_config(), trained_state(spec))
        store.save(2, spec.to_config(), trained_state(spec))
        write_arena(store.path_for(3), spec.to_config(),
                    trained_state(spec), state_version=STATE_VERSION + 9)
        bad = store.path_for(2)
        bad.write_bytes(bad.read_bytes()[:40])
        result = store.verify()
        assert result["checked"] == 3
        assert [p.name for p, _ in result["defects"]] == [bad.name]
        assert [(p.name, v) for p, v in result["stale"]] == \
            [(store.path_for(3).name, STATE_VERSION + 9)]

    def test_compact_removes_litter_keeps_sound_and_stale(self, tmp_path):
        store = ArenaStore(tmp_path)
        spec = StrideSpec(64)
        store.save(1, spec.to_config(), trained_state(spec))
        write_arena(store.path_for(2), spec.to_config(),
                    trained_state(spec), state_version=STATE_VERSION + 1)
        (tmp_path / "stray.arena.tmp").write_bytes(b"half a write")
        (tmp_path / "old.arena.corrupt").write_bytes(b"quarantined")
        defective = store.path_for(9)
        defective.write_bytes(b"RPROARNA" + b"\x00" * 8)
        result = store.compact()
        assert result["removed"] == {"tmp": 1, "corrupt": 1, "defective": 1}
        assert result["reclaimed_bytes"] > 0
        assert result["kept"] == 2
        assert sorted(store.session_ids()) == [1, 2]

    def test_infos_skips_defective(self, tmp_path):
        store = ArenaStore(tmp_path)
        spec = DFCMSpec(64, 256)
        store.save(4, spec.to_config(), trained_state(spec),
                   meta={"spec_name": spec.name})
        store.path_for(6).write_bytes(b"junk")
        infos = store.infos()
        assert len(infos) == 1
        info = infos[0]
        assert info.spec_name == spec.name
        assert info.state_version == STATE_VERSION
        assert info.arrays == len(trained_state(spec))
        assert info.nbytes == store.path_for(4).stat().st_size


class TestHelpers:
    def test_spec_digest_is_stable_and_order_blind(self):
        a = {"family": "dfcm", "l1": 64, "l2": 256}
        b = {"l2": 256, "l1": 64, "family": "dfcm"}
        assert spec_digest(a) == spec_digest(b)
        assert spec_digest(a) != spec_digest(dict(a, l1=128))

    def test_arena_bytes_prefix_fields(self):
        spec = StrideSpec(64)
        raw = arena_bytes(spec.to_config(),
                          {"t": np.arange(4, dtype=np.int64)})
        assert bytes(raw[:8]) == ARENA_MAGIC
        assert int.from_bytes(raw[8:12], "big") == ARENA_FORMAT_VERSION
        assert int.from_bytes(raw[12:16], "big") == STATE_VERSION

    def test_arena_info_summary(self, tmp_path):
        spec = StrideSpec(64)
        path = tmp_path / "s.arena"
        write_arena(path, spec.to_config(), trained_state(spec),
                    meta={"spec_name": spec.name, "predictions": 300})
        info = arena_info(path)
        assert info.spec_name == spec.name
        assert info.meta["predictions"] == 300
        assert info.spec_digest == spec_digest(spec.to_config())


# ------------------------------------------------------- sparse entries

def sparse_session_arena():
    """(spec config, arrays, meta) of a DFCM(2^16, 2^12) session that
    touched 24 pcs: its tables, and most aux arrays, are stored sparse."""
    from repro.serve.session import Session
    spec = DFCMSpec(1 << 16, 1 << 12)
    session = Session(1, spec)
    rng = np.random.default_rng(3)
    pcs = (0x400 + (rng.integers(0, 24, size=100) << 2)).astype(np.int64)
    values = rng.integers(0, 1 << 32, size=100).astype(np.int64)
    session.step_block(pcs, values)
    arrays, meta = session.snapshot()
    return spec.to_config(), arrays, meta


def header_of(raw):
    """The header JSON of arena bytes *raw*."""
    header_len = int.from_bytes(raw[16:20], "big")
    return json.loads(bytes(raw[32:32 + header_len]))


def with_fresh_crc(raw):
    """*raw* with the prefix CRC recomputed: a file whose checksum is
    sound whatever its entries say."""
    raw = bytearray(raw)
    raw[20:24] = (zlib.crc32(raw[32:]) & 0xFFFFFFFF).to_bytes(4, "big")
    return bytes(raw)


class TestSparse:
    def test_mostly_empty_tables_are_stored_sparse(self, tmp_path):
        config, arrays, meta = sparse_session_arena()
        path = tmp_path / "s.arena"
        written = write_arena(path, config, arrays, meta)
        dense_bytes = sum(a.nbytes for a in arrays.values())
        assert written < dense_bytes / 20
        arena = open_arena(path)
        entries = {e["key"]: e for e in arena.header["arrays"]}
        for key in ("last", "hist", "l2", "__alias_last_writer"):
            entry = entries[key]
            assert entry["nbytes"] == 16 * entry["nnz"], key
            assert entry["fill"] == arrays[key].min(), key
        assert entries["__alias_last_writer"]["fill"] == -1
        got = arena.state()
        for key, array in arrays.items():
            np.testing.assert_array_equal(got[key], array, err_msg=key)
            assert got[key].dtype == array.dtype, key
            assert got[key].shape == array.shape, key

    def test_density_decides_the_encoding(self, tmp_path):
        # Sparse only when (index, value) pairs are smaller than the
        # array; anything but a 1-D little-endian int64 array is dense.
        half = np.zeros(64, dtype=np.int64)
        half[::2] = 7  # 32 of 64 entries: pairs are no smaller
        arrays = {
            "under_half": np.where(np.arange(64) < 31, 5, 0),
            "half": half,
            "full": np.arange(1, 65, dtype=np.int64),
            "big_endian": np.zeros(64, dtype=">i8"),
            "int32": np.zeros(64, dtype=np.int32),
            "flags": np.zeros(64, dtype=bool),
            "matrix": np.zeros((8, 8), dtype=np.int64),
            "negative_fill": np.full(64, -9, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int64),
        }
        path = tmp_path / "s.arena"
        write_arena(path, {"family": "test"}, arrays)
        arena = open_arena(path)
        stored = {e["key"]: e.get("nnz") for e in arena.header["arrays"]}
        assert stored == {"under_half": 31, "half": None, "full": None,
                          "big_endian": None, "int32": None,
                          "flags": None, "matrix": None,
                          "negative_fill": 0, "empty": None}
        for key, array in arrays.items():
            np.testing.assert_array_equal(arena.state()[key], array,
                                          err_msg=key)

    def test_each_call_decodes_fresh_writable_arrays(self, tmp_path):
        config, arrays, meta = sparse_session_arena()
        path = tmp_path / "s.arena"
        write_arena(path, config, arrays, meta)
        arena = open_arena(path)
        first, second = arena.state(), arena.state()
        for key in ("last", "hist", "l2"):
            assert first[key].flags.writeable, key
            assert not np.shares_memory(first[key], second[key]), key
            first[key][:] = 1  # the caller's own: the arena is unmoved
            np.testing.assert_array_equal(arena.state()[key], arrays[key])
        assert arena.table_state().keys() == {"last", "hist", "l2"}
        np.testing.assert_array_equal(arena.aux("alias_last_writer"),
                                      arrays["__alias_last_writer"])

    def test_every_bit_flip_is_refused(self, tmp_path):
        raw = bytes(arena_bytes(*sparse_session_arena()))
        assert len(raw) < 8192  # keeps the sweep cheap
        path = tmp_path / "s.arena"
        path.write_bytes(raw)
        escaped = []
        with open(path, "r+b") as handle:
            for offset, byte in enumerate(raw):
                for bit in range(8):
                    os.pwrite(handle.fileno(), bytes([byte ^ (1 << bit)]),
                              offset)
                    outcome = refusal(path)
                    if outcome != "refused":
                        escaped.append((offset, bit, outcome))
                os.pwrite(handle.fileno(), bytes([byte]), offset)
        assert escaped == []
        assert refusal(path) == "opened"  # restored byte for byte

    def test_every_truncation_is_refused(self, tmp_path):
        raw = bytes(arena_bytes(*sparse_session_arena()))
        path = tmp_path / "s.arena"
        path.write_bytes(raw)
        escaped = []
        for length in range(len(raw) - 1, -1, -1):
            os.truncate(path, length)
            outcome = refusal(path)
            if outcome != "refused":
                escaped.append((length, outcome))
        assert escaped == []


# Each defect edits the "last" entry or its payload (indices, then
# values) in place; header edits keep the header's length.

def out_of_range_index(payload, entry):
    payload[entry["nnz"] - 1] = entry["shape"][0]


def indices_not_increasing(payload, entry):
    payload[[0, 1]] = payload[[1, 0]]


def nbytes_disagrees_with_nnz(payload, entry):
    entry["nnz"] -= 1


def payload_outside_the_file(payload, entry):
    assert 1000 <= entry["offset"] < 9984
    entry["offset"] = 9984  # past the end of this < 8 KiB file


class TestCraftedSparseEntries:
    """Sparse entries no encoder writes, behind a sound CRC: each is
    refused as corrupt and quarantined by the store -- never an
    IndexError or ValueError, never state."""

    @pytest.mark.parametrize("defect", [
        out_of_range_index, indices_not_increasing,
        nbytes_disagrees_with_nnz, payload_outside_the_file,
    ], ids=lambda defect: defect.__name__)
    def test_defect_is_refused_and_quarantined(self, tmp_path, defect):
        raw = bytearray(arena_bytes(*sparse_session_arena()))
        header = header_of(raw)
        entry = next(e for e in header["arrays"] if e["key"] == "last")
        assert entry["nnz"] >= 2
        offset = entry["offset"]
        payload = np.frombuffer(raw, dtype="<i8", count=2 * entry["nnz"],
                                offset=offset).copy()
        defect(payload, entry)
        raw[offset:offset + payload.nbytes] = payload.tobytes()
        blob = json.dumps(header, sort_keys=True).encode()
        assert len(blob) == int.from_bytes(raw[16:20], "big")
        raw[32:32 + len(blob)] = blob
        crafted = with_fresh_crc(raw)

        path = tmp_path / "s.arena"
        path.write_bytes(crafted)
        with pytest.raises(ArenaError, match="array 'last'"):
            open_arena(path)
        assert verify_arena(path) is not None
        store = ArenaStore(tmp_path / "store")
        store.path_for(1).write_bytes(crafted)
        assert store.load(1) is None
        assert not store.path_for(1).exists()
        assert store.path_for(1).with_name(
            store.path_for(1).name + ".corrupt").exists()


# ------------------------------------------------------------ format 1

#: A format-1 arena, written by the format-1 encoder (the last build
#: before sparse entries) from the session :func:`v1_session` builds:
#: ``Session(1, DFCMSpec(64, 256))`` stepped through the first 160
#: records of :func:`v1_workload`, then ``predict(0x400)``.
V1_ARENA = Path(__file__).parent / "data" / "dfcm_64_256_v1.arena"


def v1_workload(n):
    pcs = [0x400 + 4 * ((5 * i) % 13) for i in range(n)]
    values = [(7 * i + 3 * (i % 4)) & 0xFFFFFFFF for i in range(n)]
    return pcs, values


def v1_session():
    from repro.serve.session import Session
    session = Session(1, DFCMSpec(64, 256))
    pcs, values = v1_workload(160)
    session.step_block(pcs, values)
    session.predict(0x400)
    return session


class TestFormat1:
    def test_fixture_is_format_1(self):
        raw = V1_ARENA.read_bytes()
        assert int.from_bytes(raw[8:12], "big") == 1
        assert all("nnz" not in e for e in header_of(raw)["arrays"])

    def test_restores_bit_identically_and_steps_in_lockstep(self):
        from repro.serve.session import Session
        twin = v1_session()
        want, want_meta = twin.snapshot()
        arena = open_arena(V1_ARENA)
        assert arena.meta == want_meta
        got = arena.state()
        assert got.keys() == want.keys()
        for key, array in want.items():
            np.testing.assert_array_equal(got[key], array, err_msg=key)
            assert got[key].dtype == array.dtype, key
        restored = Session.restore(1, spec_from_config(arena.spec_config),
                                   got, arena.meta)
        # The outstanding PREDICT scores the same on both.
        assert restored.outcome(0x400, 7) == twin.outcome(0x400, 7)
        pcs, values = v1_workload(400)
        for lo, hi in ((160, 161), (161, 300), (300, 400)):
            got_pred, got_hits = restored.step_block(pcs[lo:hi],
                                                     values[lo:hi])
            want_pred, want_hits = twin.step_block(pcs[lo:hi],
                                                   values[lo:hi])
            assert list(got_pred) == list(want_pred)
            assert got_hits == want_hits
        assert restored.stats() == dict(twin.stats(), session=1)
        for key, table in twin.table_state().items():
            np.testing.assert_array_equal(restored.table_state()[key],
                                          table, err_msg=key)

    def test_resaved_as_the_current_format(self, tmp_path):
        from repro.serve.session import Session
        arena = open_arena(V1_ARENA)
        session = Session.restore(1, spec_from_config(arena.spec_config),
                                  arena.state(), arena.meta)
        path = tmp_path / "s.arena"
        write_arena(path, arena.spec_config, *session.snapshot())
        assert int.from_bytes(path.read_bytes()[8:12], "big") == \
            ARENA_FORMAT_VERSION == 2
        again = open_arena(path).state()
        for key, array in arena.state().items():
            np.testing.assert_array_equal(again[key], array, err_msg=key)


# ----------------------------------------------------------- ownership

def test_sessions_restored_from_one_arena_share_no_writable_table(
        tmp_path):
    # Writable means yours: each restore from the same Arena gets its
    # own sparse tables; the dense ones both hold are read-only views
    # until each session's first write copies them.
    from repro.serve.session import Session
    spec = DFCMSpec(64, 256)
    donor = Session(1, spec)
    pcs = [0x400 + 4 * (i % 64) for i in range(256)]
    values = [1000 * (i % 64) + 3 * (i // 64) + 1 for i in range(256)]
    donor.step_block(pcs[:128], values[:128])
    path = tmp_path / "s.arena"
    write_arena(path, spec.to_config(), *donor.snapshot())
    arena = open_arena(path)
    assert any("nnz" in e for e in arena.header["arrays"])
    assert any("nnz" not in e for e in arena.header["arrays"])
    a, b = (Session.restore(n, spec, arena.state(), arena.meta)
            for n in (1, 2))

    def arrays(session):
        return (list(session.table_state().values())
                + [session._aliases._last_writer])

    def assert_no_writable_sharing():
        for x in arrays(a):
            for y in arrays(b):
                if x.flags.writeable or y.flags.writeable:
                    assert not np.shares_memory(x, y)

    assert_no_writable_sharing()
    a.step_block(pcs[128:192], values[128:192])
    assert_no_writable_sharing()
    b.step_block(pcs[128:], values[128:])
    assert_no_writable_sharing()
    # A snapshot is read-only: a session restored from it copies on
    # write instead of adopting the donor's live tables.
    snapshot, meta = donor.snapshot()
    for key in ("last", "hist", "l2", "__alias_last_writer"):
        assert not snapshot[key].flags.writeable, key
    c = Session.restore(3, spec, snapshot, meta)
    c.step_block(pcs[128:], values[128:])
    for x in arrays(c):
        for y in arrays(donor):
            assert not np.shares_memory(x, y)
