"""The streaming arena writer against the reference encoder.

``write_arena`` streams the header, the padding and each array's own
buffer through ``atomic_write_bytes`` with one running CRC; the file it
leaves must be byte-identical to ``arena_bytes``, which assembles the
whole file in memory.  Both share the layout code, whose absolute
offsets are computed to a fixpoint: rebasing them can push the header
across a 64-byte boundary.
"""

import json
import os

import numpy as np
import pytest

from repro.core.spec import DFCMSpec, FCMSpec
from repro.core.state import (arena_bytes, atomic_write_bytes, open_arena,
                              write_arena)
from repro.serve.session import Session

PREFIX = 32
ALIGN = 64


def session_snapshot(spec, n=300, seed=5):
    session = Session(1, spec)
    rng = np.random.default_rng(seed)
    session.step_block((rng.integers(0, 1 << 12, size=n) << 2),
                       rng.integers(0, 1 << 32, size=n))
    session.predict(0x400)
    return session.snapshot()


def mixed_arrays():
    rng = np.random.default_rng(9)
    return {
        "big": rng.integers(-1 << 40, 1 << 40, size=37).astype(">i8"),
        "little": rng.integers(0, 1 << 30, size=50).astype("<i4"),
        "matrix": rng.integers(0, 255, size=(3, 5)).astype(np.uint8),
        "strided": np.arange(40, dtype=np.int64)[::3],
        "flags": rng.random(11) < 0.5,
        "empty": np.zeros(0, dtype=np.int64),
        "empty2d": np.zeros((4, 0), dtype=">u2"),
        "__aux": np.arange(3, dtype=np.int64),
    }


CASES = {
    "session": lambda: session_snapshot(DFCMSpec(64, 256)),
    "mixed": lambda: (mixed_arrays(), {"hits": 7, "note": "mixed"}),
    "zero-size only": lambda: ({"a": np.zeros(0, np.int64)}, {}),
    "no arrays": lambda: ({}, {"hits": 0}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_file_is_byte_identical_to_arena_bytes(tmp_path, case):
    arrays, meta = CASES[case]()
    config = DFCMSpec(64, 256).to_config()
    path = tmp_path / "s.arena"
    written = write_arena(path, config, arrays, meta)
    want = bytes(arena_bytes(config, arrays, meta))
    assert path.read_bytes() == want
    assert written == len(want)
    arena = open_arena(path)
    assert arena.meta == meta
    assert arena.state().keys() == arrays.keys()
    for key, array in arrays.items():
        np.testing.assert_array_equal(arena.state()[key], array,
                                      err_msg=key)


def test_short_writes_are_resumed(tmp_path, monkeypatch):
    arrays, meta = session_snapshot(DFCMSpec(64, 256))
    config = DFCMSpec(64, 256).to_config()
    real_write = os.write
    calls = []

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(memoryview(data)[:1000]))

    monkeypatch.setattr(os, "write", short_write)
    path = tmp_path / "s.arena"
    written = write_arena(path, config, arrays, meta)
    monkeypatch.undo()
    want = bytes(arena_bytes(config, arrays, meta))
    assert max(calls) > 1000  # the writer really was cut short
    assert written == len(want)
    assert path.read_bytes() == want
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_bytes_takes_a_sequence_of_buffers(tmp_path):
    path = tmp_path / "x.bin"
    parts = [b"head", bytearray(b"-"), memoryview(b"tail"), b"",
             np.arange(3, dtype="<i2")]
    assert atomic_write_bytes(path, parts) == 15
    assert path.read_bytes() == b"head-tail\x00\x00\x01\x00\x02\x00"
    assert atomic_write_bytes(path, (b"one",)) == 3
    assert path.read_bytes() == b"one"
    assert list(tmp_path.glob("*.tmp")) == []


def relative_payload_start(raw):
    """Where the payload would start had the header kept its relative
    offsets -- differs from the real start exactly when rebasing the
    offsets pushed the header across a 64-byte boundary."""
    header_len = int.from_bytes(raw[16:20], "big")
    start = -(-(PREFIX + header_len) // ALIGN) * ALIGN
    header = json.loads(raw[PREFIX:PREFIX + header_len])
    for entry in header["arrays"]:
        entry["offset"] -= start
    blob = json.dumps(header, sort_keys=True).encode()
    return start, -(-(PREFIX + len(blob)) // ALIGN) * ALIGN


def test_header_boundary_sweep_round_trips_every_arena(tmp_path):
    # Sweep the hits counter through every decimal width at every
    # header length mod 64 (a padding string moves the residue), so the
    # header crosses each 64-byte boundary -- with and without the
    # extra digits the absolute offsets add.
    spec = FCMSpec(1 << 10, 1 << 8)
    arrays, meta = session_snapshot(spec)
    config = spec.to_config()
    crossings = 0
    for pad in range(ALIGN):
        for width in range(1, 20):
            sweep_meta = dict(meta, hits=10 ** width - 1, pad="x" * pad)
            raw = bytes(arena_bytes(config, arrays, sweep_meta))
            start, relative = relative_payload_start(raw)
            crossings += start != relative
            path = tmp_path / "s.arena"
            path.write_bytes(raw)
            arena = open_arena(path)
            assert arena.meta == sweep_meta
            for key, array in arrays.items():
                np.testing.assert_array_equal(arena.state()[key], array)
            if start != relative or width == 1:
                write_arena(path, config, arrays, sweep_meta)
                assert path.read_bytes() == raw
    assert crossings > 0
