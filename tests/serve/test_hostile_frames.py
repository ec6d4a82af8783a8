"""Live servers and routers under frames nobody should send.

A frame that announces a foreign protocol version, or an OPEN_SESSION
whose spec config is malformed, must get a typed error back -- never a
silently dropped connection, a dead worker or a lost session -- and
every other client must keep being served.
"""

import socket
import struct
import time

import pytest

from repro.core.spec import DFCMSpec
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import ClusterThread
from repro.serve.protocol import FrameType
from repro.serve.server import ServerThread

SPEC = DFCMSpec(64, 256)
PCS = [0x400 + 4 * (i % 5) for i in range(64)]
VALUES = [(7 * i) & 0xFFFFFFFF for i in range(64)]


@pytest.fixture(scope="module")
def server():
    with ServerThread(max_delay=0) as served:
        yield served


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("hostile-state")
    with ClusterThread(workers=2, state_dir=str(state_dir),
                       max_delay=0) as cluster:
        yield cluster


def foreign_version_frame(version: int) -> bytes:
    """A STATS request announcing *version*: version 1's own layout
    (no trace id), the current layout with the byte changed otherwise."""
    body = protocol.encode_session_op(0)
    if version == 1:
        return struct.pack("!IBBI", 6 + len(body), version,
                           FrameType.STATS, 7) + body
    wire = bytearray(protocol.encode_frame(FrameType.STATS, 7, body, 5))
    wire[4] = version
    return bytes(wire)


def assert_rejected_then_closed(port: int, version: int) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(foreign_version_frame(version))
        reader = protocol.BlockingFrameReader(sock)
        frame = reader.read_frame(copy=True)
        assert frame.type == FrameType.ERROR
        code, message = protocol.decode_error(frame.body)
        assert code == protocol.ErrorCode.BAD_FRAME
        assert f"protocol version {version}" in message
        assert reader.read_frame() is None  # the connection is closed


def open_raw(client: ServeClient, config: dict) -> int:
    frame = client.request(FrameType.OPEN_SESSION,
                           protocol.encode_open_session(config, 0))
    return protocol.decode_session_op(frame.body, 0)[0]


def assert_bad_spec_is_prompt(client: ServeClient, bad_hash) -> None:
    config = dict(SPEC.to_config(), hash=bad_hash)
    started = time.monotonic()
    with pytest.raises(ServeError) as err:
        open_raw(client, config)
    assert err.value.code == protocol.ErrorCode.BAD_SPEC
    assert "hash" in err.value.message
    assert time.monotonic() - started < 5.0


def step_all(client: ServeClient, sessions) -> None:
    for sid in sessions:
        predicted, _ = client.step_block(sid, PCS, VALUES)
        assert len(predicted) == len(PCS)


@pytest.mark.parametrize("version", [1, 3])
class TestVersionGate:
    def test_server_rejects_and_keeps_serving(self, server, version):
        with ServeClient(port=server.port, reconnect=0) as client:
            sid = client.open_session(SPEC)
            assert_rejected_then_closed(server.port, version)
            step_all(client, [sid])
            client.close_session(sid)

    def test_router_rejects_and_keeps_serving(self, fleet, version):
        with ServeClient(port=fleet.port, reconnect=0) as client:
            sid = client.open_session(SPEC)
            assert_rejected_then_closed(fleet.port, version)
            step_all(client, [sid])
            client.close_session(sid)
            assert client.stats(0)["workers_alive"] == 2


@pytest.mark.parametrize("bad_hash", ["fs", 7])
class TestMalformedSpecHash:
    def test_server_answers_bad_spec(self, server, bad_hash):
        with ServeClient(port=server.port, timeout=10,
                         reconnect=0) as client:
            sessions = [client.open_session(SPEC) for _ in range(8)]
            step_all(client, sessions)
            assert_bad_spec_is_prompt(client, bad_hash)
            # Same connection, every session still steps.
            step_all(client, sessions)
            for sid in sessions:
                client.close_session(sid)

    def test_cluster_answers_bad_spec_and_keeps_the_fleet(self, fleet,
                                                          bad_hash):
        with ServeClient(port=fleet.port, timeout=10,
                         reconnect=0) as client:
            sessions = [client.open_session(SPEC) for _ in range(8)]
            step_all(client, sessions)
            assert_bad_spec_is_prompt(client, bad_hash)
            step_all(client, sessions)
            report = client.stats(0)
            assert report["workers_alive"] == 2
            assert report["sessions_lost_total"] == 0
            for sid in sessions:
                client.close_session(sid)
