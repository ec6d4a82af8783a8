"""Kill -9 and resume: durability across a real process boundary.

The satellite the durable-state layer exists for: run half a workload
against a live ``repro serve --state-dir`` process, take an explicit
SNAPSHOT (the durability barrier), SIGKILL the server -- no drain, no
atexit -- start a fresh process on the same directory, finish the
workload there, and require counts AND final table state bit-identical
to one uninterrupted offline run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.spec import DFCMSpec
from repro.core.state import ArenaStore, open_arena
from repro.serve.client import ServeClient
from repro.serve.session import Session

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def workload(n, seed=9):
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x400 + 4 * ((i + seed) % 11))
        values.append((13 * i + seed * 7 + (i % 5)) & 0xFFFFFFFF)
    return pcs, values


def start_server(state_dir):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--json",
         "--port", "0",
         "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True)
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        pytest.fail(f"server did not start: {proc.stderr.read()}")
    event = json.loads(line)
    assert event["event"] == "listening"
    return proc, event["port"]


def connect(port, attempts=50):
    for _ in range(attempts):
        try:
            return ServeClient(port=port, timeout=10.0)
        except ConnectionError:
            time.sleep(0.05)
    raise ConnectionError(f"cannot reach server on port {port}")


def test_sigkill_then_restart_is_bit_identical(tmp_path):
    spec = DFCMSpec(64, 256)
    pcs, values = workload(300)
    half = len(pcs) // 2
    state_dir = tmp_path / "arenas"

    proc, port = start_server(state_dir)
    try:
        with connect(port) as client:
            session = client.open_session(spec)
            predicted_a, hits_a = client.step_block(
                session, pcs[:half], values[:half])
            report = client.snapshot(session)
            assert report["session"] == session
        # SIGKILL: no drain, no flush -- only the snapshot survives.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    assert ArenaStore(state_dir).session_ids() == [session]

    proc, port = start_server(state_dir)
    try:
        with connect(port) as client:
            # The fresh process adopted the spilled session.
            stats = client.stats(0)
            assert stats["sessions_open"] == 1
            assert stats["sessions_spilled"] == 1
            predicted_b, hits_b = client.step_block(
                session, pcs[half:], values[half:])
            closed = client.close_session(session)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)

    # One uninterrupted offline run is the referee.
    offline = Session(0, spec)
    want_predicted, want_hits = offline.step_block(pcs, values)
    assert predicted_a + predicted_b == list(want_predicted)
    assert hits_a + hits_b == want_hits
    assert closed["hits"] == offline.hits
    assert closed["predictions"] == offline.predictions
    assert closed["outcomes"] == offline.outcomes


def test_sigkill_final_tables_match_offline(tmp_path):
    spec = DFCMSpec(64, 256)
    pcs, values = workload(200, seed=4)
    half = len(pcs) // 2
    state_dir = tmp_path / "arenas"

    proc, port = start_server(state_dir)
    try:
        with connect(port) as client:
            session = client.open_session(spec)
            client.step_block(session, pcs[:half], values[:half])
            client.snapshot(session)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    proc, port = start_server(state_dir)
    try:
        with connect(port) as client:
            client.step_block(session, pcs[half:], values[half:])
            client.snapshot(session)  # persist the final tables
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)

    offline = Session(0, spec)
    offline.step_block(pcs, values)
    arena = open_arena(ArenaStore(state_dir).path_for(session))
    table_state = arena.table_state()
    assert table_state.keys() == offline.table_state().keys()
    for key, want in offline.table_state().items():
        np.testing.assert_array_equal(table_state[key], want)
    assert arena.meta["hits"] == offline.hits
