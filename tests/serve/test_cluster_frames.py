"""The cluster control plane on the wire: OPEN_SESSION_AS /
ADOPT_SESSION / RELEASE_SESSION codecs and server dispatch."""

import pytest

from repro.core.spec import DFCMSpec
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServerThread


def workload(n, seed=0):
    pcs, values = [], []
    for i in range(n):
        pcs.append(0x400 + 4 * ((i + seed) % 7))
        values.append((11 * i + seed * 3 + (i % 4)) & 0xFFFFFFFF)
    return pcs, values


class TestCodecs:
    def test_open_session_as_round_trip(self):
        config = DFCMSpec(64, 256).to_config()
        body = protocol.encode_open_session_as(77, config, window=3)
        session, got_config, window = protocol.decode_open_session_as(body)
        assert session == 77
        assert got_config == config
        assert window == 3

    def test_open_session_as_is_a_prefixed_open_session(self):
        # The router builds OPEN_SESSION_AS from a client OPEN_SESSION
        # by prefixing 8 bytes -- the codec must agree with that.
        config = DFCMSpec(64, 256).to_config()
        open_body = protocol.encode_open_session(config, 0)
        as_body = protocol.encode_open_session_as(9, config, 0)
        assert as_body == protocol.encode_session_op(9) + open_body

    def test_control_frame_types_are_distinct(self):
        values = {protocol.FrameType.ADOPT_SESSION,
                  protocol.FrameType.RELEASE_SESSION,
                  protocol.FrameType.OPEN_SESSION_AS}
        assert len(values) == 3
        assert all(v < protocol.RESPONSE_BIT for v in values)


class TestOpenSessionAs:
    def test_explicit_id_is_honoured(self, tmp_path):
        spec = DFCMSpec(64, 256)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            sid = client.open_session_as(1234, spec)
            assert sid == 1234
            pcs, values = workload(50)
            _, hits = client.step_block(sid, pcs, values)
            assert client.close_session(sid)["hits"] == hits

    def test_id_counter_advances_past_dictated_ids(self, tmp_path):
        spec = DFCMSpec(64, 256)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            client.open_session_as(50, spec)
            assert client.open_session(spec) > 50

    def test_duplicate_id_is_rejected(self, tmp_path):
        spec = DFCMSpec(64, 256)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            client.open_session_as(7, spec)
            with pytest.raises(ServeError) as excinfo:
                client.open_session_as(7, spec)
            assert excinfo.value.code == protocol.ErrorCode.BAD_FRAME

    def test_zero_id_is_rejected(self, tmp_path):
        spec = DFCMSpec(64, 256)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.open_session_as(0, spec)
            assert excinfo.value.code == protocol.ErrorCode.BAD_FRAME


class TestReleaseAdopt:
    def test_release_then_adopt_preserves_stream(self, tmp_path):
        """The migration barrier: RELEASE on one server, ADOPT on
        another sharing the state dir, stream bit-identical to an
        uninterrupted session."""
        spec = DFCMSpec(64, 256)
        pcs, values = workload(160)
        with ServerThread(state_dir=tmp_path) as source, \
                ServerThread(state_dir=tmp_path,
                             adopt_arenas=False) as target, \
                ServeClient("127.0.0.1", source.port) as src_client, \
                ServeClient("127.0.0.1", target.port) as dst_client:
            sid = src_client.open_session_as(42, spec)
            _, hits_a = src_client.step_block(sid, pcs[:80], values[:80])
            report = src_client.release_session(sid)
            assert report["session"] == 42
            # Source forgot it entirely.
            with pytest.raises(ServeError) as excinfo:
                src_client.step(sid, pcs[80], values[80])
            assert excinfo.value.code == protocol.ErrorCode.UNKNOWN_SESSION
            dst_client.adopt_session(sid)
            _, hits_b = dst_client.step_block(sid, pcs[80:], values[80:])

        with ServerThread() as oracle, \
                ServeClient("127.0.0.1", oracle.port) as client:
            ref = client.open_session(spec)
            _, want = client.step_block(ref, pcs, values)
        assert hits_a + hits_b == want

    def test_adopt_is_idempotent(self, tmp_path):
        spec = DFCMSpec(64, 256)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            sid = client.open_session_as(5, spec)
            client.release_session(sid)
            first = client.adopt_session(sid)
            second = client.adopt_session(sid)
            assert first["session"] == second["session"] == 5

    def test_adopt_without_arena_is_unknown_session(self, tmp_path):
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.adopt_session(999)
            assert excinfo.value.code == protocol.ErrorCode.UNKNOWN_SESSION

    def test_release_unknown_session_is_unknown_session(self, tmp_path):
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.release_session(999)
            assert excinfo.value.code == protocol.ErrorCode.UNKNOWN_SESSION

    def test_scalar_session_cannot_release(self, tmp_path):
        # Windowed (scalar-mode) sessions have no arena shape.
        spec = DFCMSpec(64, 256)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            sid = client.open_session(spec, window=4)
            with pytest.raises(ServeError) as excinfo:
                client.release_session(sid)
            assert excinfo.value.code == protocol.ErrorCode.BAD_FRAME

    def test_without_state_dir_release_is_state_unavailable(self):
        spec = DFCMSpec(64, 256)
        with ServerThread() as server, \
                ServeClient("127.0.0.1", server.port) as client:
            sid = client.open_session(spec)
            with pytest.raises(ServeError) as excinfo:
                client.release_session(sid)
            assert excinfo.value.code == \
                protocol.ErrorCode.STATE_UNAVAILABLE

    def test_release_counts_in_server_metrics(self, tmp_path):
        spec = DFCMSpec(64, 256)
        with ServerThread(state_dir=tmp_path) as server, \
                ServeClient("127.0.0.1", server.port) as client:
            sid = client.open_session_as(3, spec)
            client.release_session(sid)
            client.adopt_session(sid)
            stats = client.stats()
            assert stats["releases_total"] == 1
