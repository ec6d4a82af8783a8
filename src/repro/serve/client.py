"""Blocking client for the prediction service.

:class:`ServeClient` wraps one TCP connection with a plain synchronous
call-per-frame API -- the shape the load generator, the test suite and
any scripting caller wants.  One request is one round trip; the
pipelined (many requests in flight) path lives in
:mod:`repro.serve.loadgen`, built on the same frame helpers.

Every logical request carries a 64-bit trace id in its frame header,
allocated once in :meth:`ServeClient.request` and pinned across
transparent-reconnect re-sends, so a request that survives a server
restart stays a single trace (the last id used is kept in
:attr:`ServeClient.last_trace_id` so callers can correlate their
request with server-side spans, ``/trace/<id>`` lookups and the
slow-request sample).

A torn connection (ECONNRESET from a restarting server, a router
re-homing this session mid-migration, a worker killed under the
request) is retried transparently: the client reconnects with bounded
exponential backoff and re-sends the request, up to ``reconnect``
attempts (default 3; pass ``reconnect=0`` to surface transport errors
raw).  The retry is idempotent against a cluster router's planned
migrations and SIGTERM drains -- every accepted frame is answered
before a worker closes -- but a SIGKILL between execution and response
can apply a re-sent STEP twice; callers needing exactly-once across
hard kills should fence with SNAPSHOT (see docs/state.md).

Server-side errors surface as :class:`ServeError` carrying the
protocol error code; transport and framing problems (once retries are
exhausted) raise :class:`~repro.serve.protocol.ProtocolError` /
``ConnectionError``.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import List, Optional, Tuple

from repro.core.spec import PredictorSpec
from repro.serve import protocol
from repro.serve.tracing import new_trace_id

__all__ = ["ServeClient", "ServeError"]


class ServeError(Exception):
    """An ERROR response from the server."""

    def __init__(self, code: int, message: str):
        super().__init__(
            f"[{protocol.error_code_name(code).upper()}] {message}")
        self.code = code
        self.message = message


class ServeClient:
    """One blocking connection to a :class:`PredictionServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: Optional[float] = 30.0,
                 reconnect: int = 3,
                 reconnect_backoff: float = 0.05,
                 reconnect_backoff_max: float = 2.0):
        if reconnect < 0:
            raise ValueError(f"reconnect must be >= 0, got {reconnect}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.last_trace_id = 0
        self.reconnect = reconnect
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_backoff_max = reconnect_backoff_max
        #: Successful transparent reconnects performed so far.
        self.reconnects = 0
        self._request_ids = itertools.count(1)
        self.sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # One reusable receive buffer per connection: responses are
        # parsed in place (see BlockingFrameReader) and fully consumed
        # before the next read, so no copies are needed.
        self._reader = protocol.BlockingFrameReader(sock)
        return sock

    # ---------------------------------------------------------- transport

    def request(self, frame_type: int, body: bytes) -> protocol.Frame:
        """Send one frame, block for its response frame.

        Handles transparent reconnect: a torn connection re-dials with
        bounded exponential backoff and re-sends the request, up to
        :attr:`reconnect` times per request.

        The trace id is allocated once per *logical* request, here,
        and pinned across every re-send: a request that survives a
        reconnect stays one trace end to end, so server-side spans and
        slow samples from before and after the tear correlate.
        """
        trace_id = new_trace_id()
        failures = 0
        while True:
            if self.sock is None:
                # The previous attempt tore the connection down;
                # re-dial before re-sending.  A refused dial consumes
                # budget like any other failure -- the server may
                # still be restarting.
                try:
                    self.sock = self._connect()
                    self.reconnects += 1
                except OSError:
                    failures += 1
                    if failures > self.reconnect:
                        raise
                    self._backoff(failures)
                    continue
            try:
                # TornFrameError subclasses ConnectionError, and
                # ConnectionError / socket.timeout subclass OSError:
                # one clause covers every transport failure.  Protocol
                # violations (ProtocolError) and server-side errors
                # (ServeError) are never retried.
                return self._request_once(frame_type, body, trace_id)
            except OSError:
                failures += 1
                if failures > self.reconnect:
                    raise
                self._backoff(failures)
                self.close()
                self.sock = None

    def _request_once(self, frame_type: int, body: bytes,
                      trace_id: int) -> protocol.Frame:
        request_id = self.send(frame_type, body, trace_id)
        frame = self.recv()
        if frame is None:
            raise ConnectionError("server closed the connection")
        if frame.request_id != request_id:
            raise protocol.ProtocolError(
                f"response for request {frame.request_id}, "
                f"expected {request_id}")
        return frame

    def _backoff(self, failures: int) -> None:
        delay = min(self.reconnect_backoff * (2 ** (failures - 1)),
                    self.reconnect_backoff_max)
        if delay > 0:
            time.sleep(delay)

    def send(self, frame_type: int, body: bytes,
             trace_id: Optional[int] = None) -> int:
        """Fire one request frame without waiting; returns its id.

        Pass *trace_id* to pin one (the retry path does, so a re-sent
        frame keeps its original id); omit it for a fresh one."""
        request_id = next(self._request_ids)
        if trace_id is None:
            trace_id = new_trace_id()
        self.last_trace_id = trace_id
        self.sock.sendall(protocol.encode_frame(
            frame_type, request_id, body, trace_id=trace_id))
        return request_id

    def recv(self) -> Optional[protocol.Frame]:
        """Read one response frame; raises :class:`ServeError` on ERROR.

        The frame's body aliases the connection's receive buffer and is
        valid until the next ``recv`` -- every caller in this class
        decodes it immediately.
        """
        frame = self._reader.read_frame()
        if frame is not None and frame.type == protocol.FrameType.ERROR:
            raise ServeError(*protocol.decode_error(frame.body))
        return frame

    def close(self) -> None:
        if self.sock is None:
            return
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- api

    def open_session(self, spec: PredictorSpec, window: int = 0) -> int:
        frame = self.request(
            protocol.FrameType.OPEN_SESSION,
            protocol.encode_open_session(spec.to_config(), window))
        return protocol.decode_session_op(frame.body, 0)[0]

    def predict(self, session: int, pc: int) -> int:
        frame = self.request(protocol.FrameType.PREDICT,
                             protocol.encode_session_op(session, pc))
        return protocol.decode_u32(frame.body)

    def outcome(self, session: int, pc: int, value: int) -> int:
        frame = self.request(
            protocol.FrameType.OUTCOME,
            protocol.encode_session_op(session, pc, value))
        return protocol.decode_u8(frame.body)

    def step(self, session: int, pc: int, value: int) -> Tuple[int, int]:
        frame = self.request(
            protocol.FrameType.STEP,
            protocol.encode_session_op(session, pc, value))
        return protocol.decode_step_result(frame.body)

    def step_block(self, session: int, pcs,
                   values) -> Tuple[List[int], int]:
        frame = self.request(protocol.FrameType.STEP_BLOCK,
                             protocol.encode_step_block(session, pcs,
                                                        values))
        return protocol.decode_block_result(frame.body)

    def flush(self, session: int) -> int:
        frame = self.request(protocol.FrameType.FLUSH,
                             protocol.encode_session_op(session))
        return protocol.decode_u32(frame.body)

    def stats(self, session: int = 0) -> dict:
        frame = self.request(protocol.FrameType.STATS,
                             protocol.encode_session_op(session))
        return protocol.decode_json_body(frame.body)

    def close_session(self, session: int) -> dict:
        frame = self.request(protocol.FrameType.CLOSE_SESSION,
                             protocol.encode_session_op(session))
        return protocol.decode_json_body(frame.body)

    def snapshot(self, session: int) -> dict:
        """Checkpoint the session's tables to its arena (durability
        barrier): returns the snapshot report.  The session stays
        resident and keeps serving; requires the server to run with a
        state directory."""
        frame = self.request(protocol.FrameType.SNAPSHOT,
                             protocol.encode_session_op(session))
        return protocol.decode_json_body(frame.body)

    # ------------------------------------------------- cluster control

    def open_session_as(self, session: int, spec: PredictorSpec,
                        window: int = 0) -> int:
        """Open a session under a caller-dictated id (the router path;
        also useful for deterministic test fixtures)."""
        frame = self.request(
            protocol.FrameType.OPEN_SESSION_AS,
            protocol.encode_open_session_as(session, spec.to_config(),
                                            window))
        return protocol.decode_session_op(frame.body, 0)[0]

    def adopt_session(self, session: int) -> dict:
        """Tell the server to take ownership of the session's arena in
        its state directory (restored lazily on first use)."""
        frame = self.request(protocol.FrameType.ADOPT_SESSION,
                             protocol.encode_session_op(session))
        return protocol.decode_json_body(frame.body)

    def release_session(self, session: int) -> dict:
        """Checkpoint the session to its arena and make the server
        forget it -- the migration barrier; pair with
        :meth:`adopt_session` on the receiving server."""
        frame = self.request(protocol.FrameType.RELEASE_SESSION,
                             protocol.encode_session_op(session))
        return protocol.decode_json_body(frame.body)
