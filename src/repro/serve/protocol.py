"""The wire protocol: length-prefixed binary frames.

Every frame is::

    u32  length   -- bytes that follow (big-endian, like all fields)
    u8   version  -- always PROTOCOL_VERSION (2); others are rejected
    u8   type     -- FrameType
    u32  request_id -- echoed verbatim in the response
    u64  trace_id -- client-chosen; 0 = unassigned
    ...  body     -- type-specific, see below

The ``trace_id`` is threaded through every server stage (queue, fuse,
execute, flush) and echoed on the response, so one request can be
found in spans, the slow-request sample, and histogram exemplars.  A
frame announcing any other version is rejected with ``BAD_FRAME`` and
its connection closed.  :data:`HEADER_SIZE` is the header's length;
:func:`peek_header`, :func:`patch_type` and :func:`patch_request_id`
read and rewrite it in place, so a proxy can route frames without
decoding their bodies.

Responses reuse the request's type with the high bit set
(``RESPONSE_BIT``); errors use :data:`FrameType.ERROR` regardless of
the request type.  Responses on one connection are written in request
order, so clients may pipeline freely and match replies positionally
or by ``request_id``.

Request bodies::

    OPEN_SESSION   u32 window | u32 len | spec config JSON (utf-8)
    PREDICT        u64 session | u32 pc
    OUTCOME        u64 session | u32 pc | u32 value
    STEP           u64 session | u32 pc | u32 value
    STEP_BLOCK     u64 session | u32 count | count * (u32 pc, u32 value)
    FLUSH          u64 session
    STATS          u64 session (0 = server-wide)
    CLOSE_SESSION  u64 session
    SNAPSHOT       u64 session
    ADOPT_SESSION  u64 session
    RELEASE_SESSION u64 session
    OPEN_SESSION_AS u64 session | u32 window | u32 len | config JSON

Response bodies::

    OPEN_SESSION   u64 session
    PREDICT        u32 predicted
    OUTCOME        u8 hit (0/1/2; 2 = no matching issued prediction)
    STEP           u32 predicted | u8 hit
    STEP_BLOCK     u32 count | u32 hits | count * u32 predicted
    FLUSH          u32 pending (buffered delayed updates)
    STATS          u32 len | stats JSON (utf-8)
    CLOSE_SESSION  u32 len | final stats JSON (utf-8)
    SNAPSHOT       u32 len | snapshot report JSON (utf-8)
    ADOPT_SESSION  u32 len | adoption report JSON (utf-8)
    RELEASE_SESSION u32 len | release report JSON (utf-8)
    OPEN_SESSION_AS u64 session
    ERROR          u16 code | u32 len | message (utf-8)

SNAPSHOT is the durability barrier of the state lifecycle (see
:mod:`repro.core.state`): it checkpoints the session's tables to its
arena file while leaving the session resident, so a client that wants
kill-safety can force a write-out instead of waiting for LRU eviction.
The server must have a state directory configured
(``STATE_UNAVAILABLE`` otherwise) and the session must be engine-mode
(scalar sessions report ``BAD_FRAME``).

ADOPT_SESSION, RELEASE_SESSION and OPEN_SESSION_AS are the cluster
control plane (:mod:`repro.serve.cluster`): the router tier uses
OPEN_SESSION_AS to dictate a globally-unique session id to a worker
(the body is OPEN_SESSION's with the session id prepended),
RELEASE_SESSION to checkpoint a session to its arena and relinquish
ownership (the migration barrier: it rides the same per-session FIFO
as data frames, so every in-flight STEP completes first), and
ADOPT_SESSION to hand the arena to another worker, which restores it
lazily on the session's next request.  All three need a state
directory (``STATE_UNAVAILABLE`` otherwise, except OPEN_SESSION_AS)
and are valid from any peer -- a single-process deployment can drive
them directly for warm handoffs between servers sharing a state dir.

The spec config JSON is exactly
:meth:`repro.core.spec.PredictorSpec.to_config`, so any predictor the
spec layer can describe can be served.
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["PROTOCOL_VERSION", "HEADER_SIZE", "MAX_FRAME_BYTES",
           "RESPONSE_BIT",
           "FrameType", "ErrorCode", "ProtocolError", "TornFrameError",
           "Frame", "frame_type_name", "error_code_name",
           "encode_frame", "decode_frame", "read_length",
           "peek_header", "patch_type", "patch_request_id",
           "read_payload", "read_frame_blocking",
           "BlockingFrameReader",
           "encode_open_session", "decode_open_session",
           "encode_open_session_as", "decode_open_session_as",
           "encode_session_op", "decode_session_op",
           "encode_step_block", "decode_step_block",
           "decode_step_block_arrays",
           "encode_block_result", "encode_block_result_frame",
           "decode_block_result",
           "encode_json_body", "decode_json_body",
           "encode_u8", "decode_u8", "encode_u32", "decode_u32",
           "encode_step_result", "decode_step_result",
           "encode_error", "decode_error"]

PROTOCOL_VERSION = 2

#: Upper bound on a frame's declared length; a peer announcing more is
#: protocol-broken (or hostile) and the connection is dropped.
MAX_FRAME_BYTES = 1 << 22

RESPONSE_BIT = 0x80

_HEADER = struct.Struct("!BBIQ")   # version, type, request_id, trace_id
_LENGTH = struct.Struct("!I")

#: Header bytes between the length prefix and the body.
HEADER_SIZE = _HEADER.size


class FrameType(enum.IntEnum):
    OPEN_SESSION = 1
    PREDICT = 2
    OUTCOME = 3
    STEP = 4
    STEP_BLOCK = 5
    FLUSH = 6
    STATS = 7
    CLOSE_SESSION = 8
    SNAPSHOT = 9
    ADOPT_SESSION = 10
    RELEASE_SESSION = 11
    OPEN_SESSION_AS = 12
    ERROR = 0x7F


def frame_type_name(frame_type: int) -> str:
    """Lower-case metric/trace label for a frame type."""
    try:
        return FrameType(frame_type).name.lower()
    except ValueError:
        return f"unknown_{frame_type}"


class ErrorCode(enum.IntEnum):
    BAD_VERSION = 1
    BAD_FRAME = 2
    UNKNOWN_TYPE = 3
    UNKNOWN_SESSION = 4
    BAD_SPEC = 5
    TIMEOUT = 6
    SHUTTING_DOWN = 7
    INTERNAL = 8
    #: The session's arena was written by a different state-layout
    #: generation (rolling deploy); restore is refused, never guessed.
    STATE_VERSION = 9
    #: SNAPSHOT on a server running without a state directory.
    STATE_UNAVAILABLE = 10


def error_code_name(code: int) -> str:
    """Lower-case metric label for an error code."""
    try:
        return ErrorCode(code).name.lower()
    except ValueError:
        return f"code_{code}"


class ProtocolError(Exception):
    """A malformed, oversized, or version-mismatched frame."""


class TornFrameError(ProtocolError, ConnectionError):
    """The connection died mid-frame: a transport failure, not a
    protocol violation -- :class:`repro.serve.client.ServeClient` may
    transparently reconnect and retry on it."""


@dataclass(frozen=True)
class Frame:
    type: int
    request_id: int
    body: bytes
    trace_id: int = 0

    @property
    def is_response(self) -> bool:
        return bool(self.type & RESPONSE_BIT) or self.type == FrameType.ERROR

    @property
    def request_type(self) -> int:
        """The request FrameType this frame is (a response) for."""
        return self.type & ~RESPONSE_BIT


def _frame_buffer(frame_type: int, request_id: int, body_len: int,
                  trace_id: int) -> Tuple[bytearray, int]:
    """One preallocated buffer for a whole frame (length prefix included),
    with the prefix and header already written; returns ``(buffer,
    body_offset)`` so callers serialise the body straight into place."""
    length = HEADER_SIZE + body_len
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    out = bytearray(_LENGTH.size + length)
    _LENGTH.pack_into(out, 0, length)
    _HEADER.pack_into(out, _LENGTH.size, PROTOCOL_VERSION, frame_type,
                      request_id & 0xFFFFFFFF,
                      trace_id & 0xFFFFFFFFFFFFFFFF)
    return out, _LENGTH.size + HEADER_SIZE


def encode_frame(frame_type: int, request_id: int, body: bytes = b"",
                 trace_id: int = 0) -> bytes:
    out, offset = _frame_buffer(frame_type, request_id, len(body),
                                trace_id)
    out[offset:] = body
    return bytes(out)


def peek_header(payload) -> Tuple[int, int, int]:
    """``(type, request_id, trace_id)`` of the bytes *after* a length
    prefix, read in place without touching the body.

    Raises :class:`ProtocolError` on a short header or any version
    other than :data:`PROTOCOL_VERSION`.
    """
    if len(payload) < HEADER_SIZE:
        raise ProtocolError(f"truncated frame header ({len(payload)} bytes)")
    version, frame_type, request_id, trace_id = _HEADER.unpack_from(payload)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version {version}, "
                            f"expected {PROTOCOL_VERSION}")
    return frame_type, request_id, trace_id


def patch_type(payload: bytearray, frame_type: int) -> None:
    """Rewrite the type of a frame payload in place."""
    payload[1] = frame_type


def patch_request_id(payload: bytearray, request_id: int) -> None:
    """Rewrite the request id of a frame payload in place."""
    _U32.pack_into(payload, 2, request_id & 0xFFFFFFFF)


def decode_frame(payload: bytes) -> Frame:
    """Decode the bytes *after* the length prefix into a :class:`Frame`."""
    frame_type, request_id, trace_id = peek_header(payload)
    return Frame(frame_type, request_id, payload[HEADER_SIZE:], trace_id)


def read_length(prefix: bytes) -> int:
    """Validate and decode a frame's 4-byte length prefix."""
    (length,) = _LENGTH.unpack(prefix)
    if length < HEADER_SIZE:
        raise ProtocolError(f"frame length {length} below header size")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    return length


async def read_payload(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One frame's bytes after the length prefix, read from an asyncio
    stream; ``None`` on clean EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    length = read_length(prefix)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


class BlockingFrameReader:
    """Zero-copy frame reader for one blocking socket.

    Frames are received with ``recv_into`` a single reusable buffer
    (grown geometrically, never shrunk): no per-chunk allocations, no
    ``join``.  :meth:`read_frame` parses the frame straight out of a
    memoryview of that buffer; the returned frame's ``body`` therefore
    aliases the buffer and is only valid until the next call.  Pass
    ``copy=True`` (or use :func:`read_frame_blocking`) to detach the
    body when it must outlive the next read.
    """

    __slots__ = ("_sock", "_buf")

    def __init__(self, sock):
        self._sock = sock
        self._buf = bytearray(4096)

    def read_frame(self, copy: bool = False) -> Optional[Frame]:
        """Read one frame; ``None`` on clean EOF at a frame boundary."""
        prefix = self._recv_exact(_LENGTH.size, eof_ok=True)
        if prefix is None:
            return None
        length = read_length(prefix)
        payload = self._recv_exact(length)
        frame = decode_frame(payload)
        if copy:
            frame = Frame(frame.type, frame.request_id, bytes(frame.body),
                          frame.trace_id)
        return frame

    def _recv_exact(self, n: int,
                    eof_ok: bool = False) -> Optional[memoryview]:
        """Exactly *n* bytes into the reusable buffer; ``None`` only on
        EOF before the first byte (and only when *eof_ok*)."""
        if len(self._buf) < n:
            self._buf = bytearray(max(n, 2 * len(self._buf)))
        view = memoryview(self._buf)[:n]
        received = 0
        while received < n:
            got = self._sock.recv_into(view[received:])
            if not got:
                if received == 0 and eof_ok:
                    return None
                raise TornFrameError("connection closed mid-frame")
            received += got
        return view


def read_frame_blocking(sock) -> Optional[Frame]:
    """Read one frame from a blocking socket; None on clean EOF.

    One-shot convenience over :class:`BlockingFrameReader`; the frame's
    body is detached (copied), so it stays valid indefinitely.  Loops
    reading many frames should hold one reader instead.
    """
    return BlockingFrameReader(sock).read_frame(copy=True)


# ------------------------------------------------------------- bodies

_OPEN = struct.Struct("!II")
_SESSION = struct.Struct("!Q")
_SESSION_PC = struct.Struct("!QI")
_SESSION_PC_VALUE = struct.Struct("!QII")
_BLOCK_HEAD = struct.Struct("!QI")
_RESULT_HEAD = struct.Struct("!II")
_ERROR_HEAD = struct.Struct("!HI")
_U32 = struct.Struct("!I")
_U8 = struct.Struct("!B")
_STEP_RESULT = struct.Struct("!IB")


def encode_open_session(config: dict, window: int) -> bytes:
    blob = json.dumps(config, sort_keys=True).encode()
    return _OPEN.pack(window, len(blob)) + blob


def decode_open_session(body: bytes) -> Tuple[dict, int]:
    try:
        window, length = _OPEN.unpack_from(body)
        blob = bytes(body[_OPEN.size:_OPEN.size + length])
        if len(blob) != length:
            raise ProtocolError("truncated OPEN_SESSION config")
        return json.loads(blob.decode()), window
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
        raise ProtocolError(f"bad OPEN_SESSION body: {exc}") from exc


def encode_open_session_as(session: int, config: dict,
                           window: int) -> bytes:
    """OPEN_SESSION_AS: an OPEN_SESSION body with the (router-assigned)
    session id prepended -- the layout lets a proxy build it from a
    client's OPEN_SESSION frame by prefixing 8 bytes, never re-encoding
    the config JSON."""
    return _SESSION.pack(session) + encode_open_session(config, window)


def decode_open_session_as(body: bytes) -> Tuple[int, dict, int]:
    try:
        (session,) = _SESSION.unpack_from(body)
    except struct.error as exc:
        raise ProtocolError(f"bad OPEN_SESSION_AS body: {exc}") from exc
    config, window = decode_open_session(
        memoryview(body)[_SESSION.size:])
    return session, config, window


def encode_session_op(session: int, pc: Optional[int] = None,
                      value: Optional[int] = None) -> bytes:
    if pc is None:
        return _SESSION.pack(session)
    if value is None:
        return _SESSION_PC.pack(session, pc & 0xFFFFFFFF)
    return _SESSION_PC_VALUE.pack(session, pc & 0xFFFFFFFF,
                                  value & 0xFFFFFFFF)


def decode_session_op(body: bytes, fields: int) -> tuple:
    """Decode a session body with 0, 1 (pc) or 2 (pc, value) operands."""
    layout = (_SESSION, _SESSION_PC, _SESSION_PC_VALUE)[fields]
    try:
        return layout.unpack(body)
    except struct.error as exc:
        raise ProtocolError(f"bad session op body: {exc}") from exc


def encode_step_block(session: int, pcs, values) -> bytes:
    if len(pcs) != len(values):
        raise ProtocolError("step block pcs/values lengths differ")
    count = len(pcs)
    out = bytearray(_BLOCK_HEAD.size + 8 * count)
    _BLOCK_HEAD.pack_into(out, 0, session, count)
    if count:
        # Interleave (pc, value) pairs straight into the body as
        # big-endian words -- no per-record Python packing.
        words = np.frombuffer(out, dtype=">u4", count=2 * count,
                              offset=_BLOCK_HEAD.size).reshape(-1, 2)
        np.bitwise_and(np.asarray(pcs, dtype=np.int64), 0xFFFFFFFF,
                       out=words[:, 0], casting="unsafe")
        np.bitwise_and(np.asarray(values, dtype=np.int64), 0xFFFFFFFF,
                       out=words[:, 1], casting="unsafe")
    return bytes(out)


def decode_step_block_arrays(body) -> Tuple[int, np.ndarray, np.ndarray]:
    """STEP_BLOCK body -> ``(session, pcs, values)`` as int64 arrays.

    *body* may be any buffer (bytes or a frame-reader memoryview): the
    record words are read through a zero-copy big-endian view and only
    materialised once, as the int64 arrays the kernels want anyway.
    """
    try:
        session, count = _BLOCK_HEAD.unpack_from(body)
    except struct.error as exc:
        raise ProtocolError(f"bad STEP_BLOCK body: {exc}") from exc
    if len(body) < _BLOCK_HEAD.size + 8 * count:
        raise ProtocolError(
            f"bad STEP_BLOCK body: {count} records announced, "
            f"{len(body) - _BLOCK_HEAD.size} payload bytes present")
    words = np.frombuffer(body, dtype=">u4", count=2 * count,
                          offset=_BLOCK_HEAD.size).reshape(-1, 2)
    return (session, words[:, 0].astype(np.int64),
            words[:, 1].astype(np.int64))


def decode_step_block(body: bytes) -> Tuple[int, List[int], List[int]]:
    session, pcs, values = decode_step_block_arrays(body)
    return session, pcs.tolist(), values.tolist()


def encode_block_result(predicted, hits: int) -> bytes:
    count = len(predicted)
    out = bytearray(_RESULT_HEAD.size + 4 * count)
    _RESULT_HEAD.pack_into(out, 0, count, hits)
    _fill_block_result(out, _RESULT_HEAD.size, predicted)
    return bytes(out)


def encode_block_result_frame(frame_type: int, request_id: int, predicted,
                              hits: int, trace_id: int = 0) -> bytearray:
    """A complete STEP_BLOCK response frame in one allocation.

    The hot-path equivalent of ``encode_frame(...,
    encode_block_result(...))``: the predicted values are written
    straight into the preallocated wire buffer as big-endian words,
    so a large response is never copied through an intermediate body.
    """
    count = len(predicted)
    out, offset = _frame_buffer(frame_type, request_id,
                                _RESULT_HEAD.size + 4 * count, trace_id)
    _RESULT_HEAD.pack_into(out, offset, count, hits)
    _fill_block_result(out, offset + _RESULT_HEAD.size, predicted)
    return out


def _fill_block_result(out: bytearray, offset: int, predicted) -> None:
    count = len(predicted)
    if not count:
        return
    view = np.frombuffer(out, dtype=">u4", count=count, offset=offset)
    np.bitwise_and(np.asarray(predicted, dtype=np.int64), 0xFFFFFFFF,
                   out=view, casting="unsafe")


def decode_block_result(body: bytes) -> Tuple[List[int], int]:
    try:
        count, hits = _RESULT_HEAD.unpack_from(body)
        predicted = struct.unpack_from(f"!{count}I", body, _RESULT_HEAD.size)
    except struct.error as exc:
        raise ProtocolError(f"bad STEP_BLOCK result: {exc}") from exc
    return list(predicted), hits


def encode_json_body(payload: dict) -> bytes:
    blob = json.dumps(payload, sort_keys=True).encode()
    return _U32.pack(len(blob)) + blob


def decode_json_body(body: bytes) -> dict:
    try:
        (length,) = _U32.unpack_from(body)
        blob = bytes(body[_U32.size:_U32.size + length])
        if len(blob) != length:
            raise ProtocolError("truncated JSON body")
        return json.loads(blob.decode())
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
        raise ProtocolError(f"bad JSON body: {exc}") from exc


def encode_u8(value: int) -> bytes:
    return _U8.pack(value & 0xFF)


def decode_u8(body: bytes) -> int:
    try:
        return _U8.unpack(body)[0]
    except struct.error as exc:
        raise ProtocolError(f"bad u8 body: {exc}") from exc


def encode_u32(value: int) -> bytes:
    return _U32.pack(value & 0xFFFFFFFF)


def decode_u32(body: bytes) -> int:
    try:
        return _U32.unpack(body)[0]
    except struct.error as exc:
        raise ProtocolError(f"bad u32 body: {exc}") from exc


def encode_step_result(predicted: int, hit: int) -> bytes:
    return _STEP_RESULT.pack(predicted & 0xFFFFFFFF, hit & 0xFF)


def decode_step_result(body: bytes) -> Tuple[int, int]:
    try:
        return _STEP_RESULT.unpack(body)
    except struct.error as exc:
        raise ProtocolError(f"bad STEP result: {exc}") from exc


def encode_error(code: int, message: str) -> bytes:
    blob = message.encode()
    return _ERROR_HEAD.pack(code, len(blob)) + blob


def decode_error(body: bytes) -> Tuple[int, str]:
    try:
        code, length = _ERROR_HEAD.unpack_from(body)
        return code, bytes(
            body[_ERROR_HEAD.size:_ERROR_HEAD.size + length]).decode()
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad ERROR body: {exc}") from exc
