"""Wire-format round trips and rejection paths."""

import pytest

from repro.serve import protocol
from repro.serve.protocol import (Frame, FrameType, ProtocolError,
                                  decode_frame, encode_frame)


def round_trip(frame_type, request_id, body=b""):
    payload = encode_frame(frame_type, request_id, body)
    length = protocol.read_length(payload[:4])
    assert length == len(payload) - 4
    return decode_frame(payload[4:])


class TestFrames:
    def test_round_trip(self):
        frame = round_trip(FrameType.STEP, 42, b"abc")
        assert frame == Frame(FrameType.STEP, 42, b"abc")
        assert not frame.is_response

    def test_response_bit(self):
        frame = round_trip(FrameType.STEP | protocol.RESPONSE_BIT, 1, b"")
        assert frame.is_response
        assert frame.request_type == FrameType.STEP

    def test_error_frames_are_responses(self):
        frame = round_trip(FrameType.ERROR, 7,
                           protocol.encode_error(3, "nope"))
        assert frame.is_response
        assert protocol.decode_error(frame.body) == (3, "nope")

    def test_version_mismatch_rejected(self):
        payload = bytearray(encode_frame(FrameType.STEP, 1, b""))
        payload[4] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(payload[4:]))

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(b"\x01")

    def test_oversized_length_rejected(self):
        import struct
        prefix = struct.pack("!I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.read_length(prefix)

    def test_undersized_length_rejected(self):
        import struct
        with pytest.raises(ProtocolError, match="below"):
            protocol.read_length(struct.pack("!I", 2))

    def test_oversized_body_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(FrameType.STEP, 1,
                         b"\x00" * protocol.MAX_FRAME_BYTES)


class TestVersion2:
    def test_default_encode_is_v2(self):
        payload = encode_frame(FrameType.STEP, 1, b"x")
        assert payload[4] == protocol.PROTOCOL_VERSION == 2
        assert len(payload) == 4 + protocol.HEADER_SIZE + 1

    def test_v2_trace_id_round_trip(self):
        payload = encode_frame(FrameType.STEP, 7, b"abc",
                               trace_id=0xDEADBEEFCAFEF00D)
        frame = decode_frame(payload[4:])
        assert frame.trace_id == 0xDEADBEEFCAFEF00D
        assert frame.body == b"abc"

    def test_trace_id_masked_to_64_bits(self):
        payload = encode_frame(FrameType.STEP, 1, b"", trace_id=1 << 70)
        assert decode_frame(payload[4:]).trace_id == 0

    def test_truncated_v2_header_rejected(self):
        payload = encode_frame(FrameType.STEP, 1, b"", trace_id=5)
        # Cut into the trace-id field: header says v2 but bytes are short.
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(payload[4:12])


class _FakeSocket:
    """Replays a byte string through recv_into(), then reports EOF."""

    def __init__(self, data: bytes, chunk: int = 1 << 16):
        self._data = data
        self._chunk = chunk

    def recv_into(self, buffer):
        n = min(len(buffer), self._chunk, len(self._data))
        buffer[:n] = self._data[:n]
        self._data = self._data[n:]
        return n


class TestBlockingRead:
    def test_reads_frame_in_small_chunks(self):
        payload = encode_frame(FrameType.STEP, 3, b"xyz")
        frame = protocol.read_frame_blocking(_FakeSocket(payload, chunk=1))
        assert frame == Frame(FrameType.STEP, 3, b"xyz")

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame_blocking(_FakeSocket(b"")) is None

    def test_eof_mid_length_prefix_raises(self):
        payload = encode_frame(FrameType.STEP, 3, b"xyz")
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.read_frame_blocking(_FakeSocket(payload[:2]))

    def test_eof_after_length_prefix_raises(self):
        payload = encode_frame(FrameType.STEP, 3, b"xyz")
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.read_frame_blocking(_FakeSocket(payload[:4]))

    def test_eof_mid_payload_raises(self):
        payload = encode_frame(FrameType.STEP, 3, b"xyz")
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.read_frame_blocking(_FakeSocket(payload[:-1]))


class TestBodies:
    def test_open_session(self):
        config = {"family": "dfcm", "l1_entries": 64}
        body = protocol.encode_open_session(config, 4)
        assert protocol.decode_open_session(body) == (config, 4)

    def test_open_session_truncated(self):
        body = protocol.encode_open_session({"family": "fcm"}, 0)
        with pytest.raises(ProtocolError):
            protocol.decode_open_session(body[:-2])

    def test_session_ops(self):
        assert protocol.decode_session_op(
            protocol.encode_session_op(9), 0) == (9,)
        assert protocol.decode_session_op(
            protocol.encode_session_op(9, 0x40), 1) == (9, 0x40)
        assert protocol.decode_session_op(
            protocol.encode_session_op(9, 0x40, 123), 2) == (9, 0x40, 123)

    def test_session_op_masks_to_32_bits(self):
        body = protocol.encode_session_op(1, -4, 1 << 33)
        assert protocol.decode_session_op(body, 2) == (1, 0xFFFFFFFC, 0)

    def test_step_block(self):
        body = protocol.encode_step_block(5, [1, 2, 3], [7, 8, 9])
        assert protocol.decode_step_block(body) == (5, [1, 2, 3], [7, 8, 9])

    def test_step_block_empty(self):
        body = protocol.encode_step_block(5, [], [])
        assert protocol.decode_step_block(body) == (5, [], [])

    def test_step_block_length_mismatch(self):
        with pytest.raises(ProtocolError):
            protocol.encode_step_block(5, [1], [])

    def test_step_block_truncated(self):
        body = protocol.encode_step_block(5, [1, 2], [3, 4])
        with pytest.raises(ProtocolError):
            protocol.decode_step_block(body[:-1])

    def test_block_result(self):
        body = protocol.encode_block_result([10, 20], 1)
        assert protocol.decode_block_result(body) == ([10, 20], 1)

    def test_json_body(self):
        payload = {"a": 1, "b": [1, 2]}
        assert protocol.decode_json_body(
            protocol.encode_json_body(payload)) == payload

    def test_json_body_truncated(self):
        body = protocol.encode_json_body({"a": 1})
        with pytest.raises(ProtocolError):
            protocol.decode_json_body(body[:-1])

    def test_scalar_results(self):
        assert protocol.decode_u32(protocol.encode_u32(7)) == 7
        assert protocol.decode_u8(protocol.encode_u8(1)) == 1
        assert protocol.decode_step_result(
            protocol.encode_step_result(99, 1)) == (99, 1)
