"""Live servers and routers under frames nobody should send.

A frame that announces a foreign protocol version, an OPEN_SESSION
whose spec config is malformed, a length prefix out of bounds, a frame
torn off mid-body, garbage bytes, or a STEP_BLOCK announcing records
it does not carry must get a typed error back or a closed connection
-- never a hang, a dead worker or a lost session -- and every other
client must keep being served.
"""

import socket
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    with ServerThread() as served:
        yield served


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("hostile-state")
    with ClusterThread(workers=2, state_dir=str(state_dir)) as cluster:
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


class TestOversizedOpenAtTheRouter:
    def test_bad_frame_and_the_fleet_keeps_serving(self, tmp_path):
        """The router rewrites OPEN_SESSION with an 8-byte session id; a
        frame already at the size limit must be refused at the router,
        not forwarded into a worker that drops the connection."""
        config = SPEC.to_config()
        body = protocol.encode_open_session(config, 0)
        body += bytes(protocol.MAX_FRAME_BYTES - protocol.HEADER_SIZE
                      - len(body))
        with ClusterThread(workers=2, state_dir=str(tmp_path)) as cluster, \
                ServeClient(port=cluster.port, timeout=10,
                            reconnect=0) as client:
            sessions = [client.open_session(SPEC) for _ in range(8)]
            assert {cluster.router.session_owner(s)
                    for s in sessions} == {0, 1}
            step_all(client, sessions)
            started = time.monotonic()
            with pytest.raises(ServeError) as err:
                client.request(FrameType.OPEN_SESSION, body)
            assert err.value.code == protocol.ErrorCode.BAD_FRAME
            assert time.monotonic() - started < 5.0
            step_all(client, sessions)
            report = client.stats(0)
            assert report["workers_alive"] == 2
            assert report["sessions_lost_total"] == 0
            assert report["sessions_open"] == len(sessions)


# ------------------------------------------------- live-connection frames

_LENGTH = struct.Struct("!I")


@pytest.fixture(scope="module", params=["server", "fleet"])
def service(request):
    """The single-process server or the 2-worker fleet, each with one
    open session that must keep stepping through every hostile case."""
    served = request.getfixturevalue(request.param)
    with ServeClient(port=served.port, timeout=10, reconnect=0) as client:
        sid = client.open_session(SPEC)
        yield served, client, sid
        client.close_session(sid)


def report_settles(client, key: str, want, timeout: float = 10.0):
    """``stats(0)[key]`` once it equals *want* (or at the deadline)."""
    deadline = time.monotonic() + timeout
    while True:
        got = client.stats(0)[key]
        if got == want or time.monotonic() > deadline:
            return got
        time.sleep(0.02)


def replies_until_closed(sock) -> list:
    """Every frame the peer sends before closing (a reset counts as
    closed); the peer must not hang."""
    reader = protocol.BlockingFrameReader(sock)
    frames = []
    try:
        while True:
            frame = reader.read_frame(copy=True)
            if frame is None:
                return frames
            frames.append(frame)
    except ConnectionResetError:
        return frames


def assert_service_intact(service, baseline: dict) -> None:
    _, client, sid = service
    assert report_settles(client, "connections_open",
                          baseline["connections_open"]) == \
        baseline["connections_open"]
    report = client.stats(0)
    assert report["sessions_open"] == baseline["sessions_open"]
    if "workers_alive" in baseline:
        assert report["workers_alive"] == 2
    step_all(client, [sid])


def send_raw(port: int, wire: bytes, half_close: bool = True) -> list:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(wire)
        if not half_close:
            return []
        sock.shutdown(socket.SHUT_WR)
        return replies_until_closed(sock)


def assert_bad_frame_then_closed(frames: list) -> None:
    (frame,) = frames
    assert frame.type == FrameType.ERROR
    code, _ = protocol.decode_error(frame.body)
    assert code == protocol.ErrorCode.BAD_FRAME


class TestLiveConnectionFrames:
    def test_length_prefix_above_the_limit(self, service):
        baseline = service[1].stats(0)
        frames = send_raw(service[0].port,
                          _LENGTH.pack(protocol.MAX_FRAME_BYTES + 1))
        assert_bad_frame_then_closed(frames)
        assert_service_intact(service, baseline)

    def test_length_prefix_below_the_header(self, service):
        baseline = service[1].stats(0)
        frames = send_raw(service[0].port,
                          _LENGTH.pack(protocol.HEADER_SIZE - 1))
        assert_bad_frame_then_closed(frames)
        assert_service_intact(service, baseline)

    def test_frame_cut_off_mid_body(self, service):
        baseline = service[1].stats(0)
        wire = protocol.encode_frame(
            FrameType.STEP_BLOCK, 9,
            protocol.encode_step_block(service[2], PCS, VALUES))
        send_raw(service[0].port, wire[:len(wire) // 2], half_close=False)
        assert_service_intact(service, baseline)

    def test_step_block_announcing_missing_records(self, service):
        baseline = service[1].stats(0)
        body = bytearray(protocol.encode_step_block(service[2], PCS[:4],
                                                    VALUES[:4]))
        struct.pack_into("!I", body, 8, 1000)  # the record count
        frames = send_raw(service[0].port,
                          protocol.encode_frame(FrameType.STEP_BLOCK, 9,
                                                bytes(body)))
        assert_bad_frame_then_closed(frames)
        assert frames[0].request_id == 9
        assert_service_intact(service, baseline)

    def test_garbage_bytes(self, service):
        baseline = service[1].stats(0)

        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(garbage=st.binary(min_size=1, max_size=64))
        def typed_reply_or_closed(garbage):
            for frame in send_raw(service[0].port, garbage):
                assert frame.type == FrameType.ERROR
                code, _ = protocol.decode_error(frame.body)
                assert code in set(protocol.ErrorCode)

        typed_reply_or_closed()
        assert_service_intact(service, baseline)
