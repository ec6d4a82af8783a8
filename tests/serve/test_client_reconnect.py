"""Client reconnect-on-reset: backoff schedule, transparent re-dial
across a server restart, and the opt-out path surfacing raw errors."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.spec import DFCMSpec
from repro.serve import client as client_module
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServerThread

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def free_port():
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port, state_dir):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--json",
         "--port", str(port),
         "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True)
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        pytest.fail(f"server did not start: {proc.stderr.read()}")
    assert json.loads(line)["event"] == "listening"
    return proc


class TestBackoffSchedule:
    def make_client(self):
        # No live server needed to test the schedule arithmetic.
        return ServeClient.__new__(ServeClient)

    def test_exponential_then_capped(self, monkeypatch):
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        client = self.make_client()
        for failures in range(1, 9):
            client._backoff(failures)
        assert delays[:6] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
        assert delays[6:] == [2.0, 2.0]  # capped at the max

    def test_zero_base_never_sleeps(self, monkeypatch):
        called = []
        monkeypatch.setattr(time, "sleep", called.append)
        monkeypatch.setattr(client_module, "_BACKOFF_S", 0.0)
        client = self.make_client()
        client._backoff(1)
        client._backoff(5)
        assert called == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ServeClient("127.0.0.1", 1, reconnect=-1)


class TestTransparentReconnect:
    def test_survives_server_restart_mid_stream(self, tmp_path):
        """SIGKILL the server between STEPs; the client re-dials the
        replacement on the same port and the request completes (the
        un-snapshotted session is gone -- a clean server-side error,
        never a raw ECONNRESET)."""
        spec = DFCMSpec(64, 256)
        port = free_port()
        proc = start_server(port, tmp_path)
        try:
            client = ServeClient("127.0.0.1", port, reconnect=20)
            sid = client.open_session(spec)
            client.step(sid, 0x400, 1)
            proc.kill()
            proc.wait()
            proc = start_server(port, tmp_path)
            try:
                client.step(sid, 0x404, 2)
            except ServeError as exc:
                # Whether the replacement re-adopted the arena or the
                # session died with the process, the failure mode is a
                # clean server-side answer, never a transport error.
                assert exc.code == protocol.ErrorCode.UNKNOWN_SESSION
            assert client.reconnects >= 1
            # The re-dialled connection is fully usable.
            fresh = client.open_session(spec)
            assert client.step(fresh, 0x400, 1)[0] is not None
            client.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)

    def test_reconnect_zero_surfaces_transport_error(self):
        spec = DFCMSpec(64, 256)
        with ServerThread() as server:
            client = ServeClient("127.0.0.1", server.port, reconnect=0)
            sid = client.open_session(spec)
            # Tear the transport under the client.
            client.sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(OSError):
                client.step(sid, 0x400, 1)
            assert client.reconnects == 0
            client.close()

    def test_resent_frame_keeps_its_trace_id(self, monkeypatch):
        """Trace continuity across reconnect: the frame re-sent after
        a torn connection must carry the *original* trace id, so the
        spans it leaves on both sides of the tear stay one trace."""
        import threading

        seen = []  # (connection_index, trace_id, request_id)

        def read_frame(conn):
            prefix = b""
            while len(prefix) < 4:
                chunk = conn.recv(4 - len(prefix))
                if not chunk:
                    return None
                prefix += chunk
            length = protocol.read_length(prefix)
            payload = b""
            while len(payload) < length:
                chunk = conn.recv(length - len(payload))
                if not chunk:
                    return None
                payload += chunk
            return protocol.decode_frame(payload)

        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]

        def serve():
            # First connection: read the request, then hang up without
            # answering (a mid-request server death).
            conn, _ = listener.accept()
            frame = read_frame(conn)
            seen.append((0, frame.trace_id, frame.request_id))
            conn.close()
            # Second connection: the transparent retry; answer it.
            conn, _ = listener.accept()
            frame = read_frame(conn)
            seen.append((1, frame.trace_id, frame.request_id))
            conn.sendall(protocol.encode_frame(
                frame.type | protocol.RESPONSE_BIT, frame.request_id,
                protocol.encode_json_body({"ok": True}),
                trace_id=frame.trace_id))
            conn.close()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            monkeypatch.setattr(client_module, "_BACKOFF_S", 0.01)
            client = ServeClient("127.0.0.1", port, reconnect=5)
            frame = client.request(protocol.FrameType.STATS,
                                   protocol.encode_session_op(0))
            assert protocol.decode_json_body(frame.body) == {"ok": True}
        finally:
            listener.close()
        server.join(timeout=10)
        assert len(seen) == 2
        (_, first_trace, first_rid), (_, retry_trace, retry_rid) = seen
        assert first_trace != 0
        assert retry_trace == first_trace  # pinned across the tear
        assert retry_rid != first_rid      # but a fresh request id
        assert client.last_trace_id == first_trace
        assert client.reconnects == 1

    def test_budget_exhaustion_raises_after_n_attempts(self, monkeypatch):
        port = free_port()  # nothing listening here
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        with ServerThread() as server:
            client = ServeClient("127.0.0.1", server.port, reconnect=3)
        # Server gone: every re-dial is refused; after the budget the
        # original error propagates.
        client.close()
        client.host, client.port = "127.0.0.1", port
        client.sock = None
        with pytest.raises(OSError):
            client.request(protocol.FrameType.STATS,
                           protocol.encode_session_op(0))
        assert len(delays) == 3
