"""Generated-input properties of the wire codec and the spec decoder.

Everything a peer controls -- frame bytes, bodies, and the spec config
JSON inside OPEN_SESSION -- must either decode or fail with the one
exception type its caller handles: :class:`ProtocolError` for the
codec, ``ValueError``/``TypeError``/``KeyError`` for the spec decoder
(the server answers those with ``BAD_SPEC``).  Any other exception
escapes the server's request handler and drops the connection without
a reply.
"""

import struct

from hypothesis import example, given, settings, strategies as st

from repro.core.spec import (SPEC_FAMILIES, DFCMSpec, FCMSpec, StrideSpec,
                             spec_from_config)
from repro.serve import protocol
from repro.serve.protocol import (Frame, FrameType, ProtocolError,
                                  decode_frame, encode_frame)

frame_types = st.sampled_from(list(FrameType)).flatmap(
    lambda t: st.sampled_from([int(t), int(t) | protocol.RESPONSE_BIT]))
request_ids = st.integers(0, (1 << 32) - 1)
trace_ids = st.integers(0, (1 << 64) - 1)
bodies = st.binary(max_size=512)


@settings(max_examples=300, deadline=None)
@given(frame_type=frame_types, request_id=request_ids, trace_id=trace_ids,
       body=bodies)
def test_frame_round_trip(frame_type, request_id, trace_id, body):
    wire = encode_frame(frame_type, request_id, body, trace_id)
    assert protocol.read_length(wire[:4]) == len(wire) - 4
    assert wire[4] == protocol.PROTOCOL_VERSION
    for payload in (wire[4:], memoryview(wire)[4:]):
        frame = decode_frame(payload)
        assert frame == Frame(frame_type, request_id, body, trace_id)
        assert protocol.peek_header(payload) == (frame_type, request_id,
                                                 trace_id)


@settings(max_examples=200, deadline=None)
@given(request_id=request_ids, trace_id=trace_ids,
       predicted=st.lists(st.integers(0, (1 << 32) - 1), max_size=64),
       hits=st.integers(0, (1 << 32) - 1))
def test_block_result_frame_round_trip(request_id, trace_id, predicted,
                                       hits):
    frame_type = FrameType.STEP_BLOCK | protocol.RESPONSE_BIT
    wire = protocol.encode_block_result_frame(frame_type, request_id,
                                              predicted, hits, trace_id)
    assert bytes(wire) == encode_frame(
        frame_type, request_id,
        protocol.encode_block_result(predicted, hits), trace_id)
    frame = decode_frame(memoryview(wire)[4:])
    assert (frame.request_id, frame.trace_id) == (request_id, trace_id)
    assert protocol.decode_block_result(frame.body) == (predicted, hits)


_DECODERS = [
    decode_frame,
    protocol.peek_header,
    protocol.decode_open_session,
    protocol.decode_open_session_as,
    lambda body: protocol.decode_session_op(body, 0),
    lambda body: protocol.decode_session_op(body, 1),
    lambda body: protocol.decode_session_op(body, 2),
    protocol.decode_step_block,
    protocol.decode_step_block_arrays,
    protocol.decode_block_result,
    protocol.decode_json_body,
    protocol.decode_u8,
    protocol.decode_u32,
    protocol.decode_step_result,
    protocol.decode_error,
]


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=96), as_view=st.booleans())
@example(data=struct.pack("!II", 0, 20000) + b"[" * 20000, as_view=False)
@example(data=struct.pack("!I", 20000) + b"[" * 20000, as_view=True)
@example(data=struct.pack("!II", 0xFFFFFFFF, 0), as_view=False)
@example(data=struct.pack("!QI", 1, 0xFFFFFFFF), as_view=True)
@example(data=struct.pack("!IH", 0, 0xFFFF) + b"\xff\xfe", as_view=False)
def test_decoders_raise_only_protocol_error(data, as_view):
    body = memoryview(data) if as_view else data
    for decode in _DECODERS:
        try:
            decode(body)
        except ProtocolError:
            pass


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=64) | st.builds(
    lambda frame, cut: frame[:cut],
    st.builds(encode_frame, frame_types, request_ids, bodies, trace_ids),
    st.integers(0, 600)))
@example(data=struct.pack("!I", 2))
@example(data=struct.pack("!I", protocol.MAX_FRAME_BYTES + 1))
def test_blocking_reader_raises_only_protocol_error(data):
    class _Replay:
        def __init__(self):
            self.data = data

        def recv_into(self, buffer):
            n = min(len(buffer), len(self.data))
            buffer[:n] = self.data[:n]
            self.data = self.data[n:]
            return n

    reader = protocol.BlockingFrameReader(_Replay())
    try:
        while reader.read_frame() is not None:
            pass
    except ProtocolError:
        pass


# ------------------------------------------------- spec configs (BAD_SPEC)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 40), 1 << 40)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)

_FIELDS = ["entries", "l1_entries", "l2_entries", "hash", "stride_bits",
           "n", "counter_bits", "counter_inc", "counter_dec", "components",
           "meta_entries", "label", "inner", "delay"]
_HASH_FIELDS = ["index_bits", "kind", "order", "shift"]

_VALID = [StrideSpec(64).to_config(), FCMSpec(64, 256).to_config(),
          DFCMSpec(64, 256).to_config()]


def _field_values():
    hash_objects = st.dictionaries(st.sampled_from(_HASH_FIELDS),
                                   json_values, max_size=4)
    return (json_values | hash_objects
            | st.lists(st.sampled_from(_VALID) | json_values, max_size=3)
            | st.sampled_from(_VALID))


spec_configs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"family": st.sampled_from(sorted(SPEC_FAMILIES)) | json_values},
        optional={name: _field_values() for name in _FIELDS}),
    st.builds(lambda base, key, value: dict(base, **{key: value}),
              st.sampled_from(_VALID), st.sampled_from(_FIELDS),
              _field_values()),
)


@settings(max_examples=500, deadline=None)
@given(config=spec_configs)
@example(config=dict(DFCMSpec(64, 256).to_config(), hash="fs"))
@example(config=dict(FCMSpec(64, 256).to_config(), hash=[8]))
@example(config=dict(DFCMSpec(64, 256).to_config(), hash=7))
def test_spec_from_config_raises_only_bad_spec_errors(config):
    try:
        spec_from_config(config)
    except (ValueError, TypeError, KeyError):
        pass
