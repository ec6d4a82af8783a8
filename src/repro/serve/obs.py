"""Embedded HTTP observability endpoint for a serve-tier listener.

A tiny asyncio HTTP/1.0 server sharing its service's event loop,
listening on a *separate* port (``--obs-port``) on the same host as the
data listener, so scrapes never compete with the binary protocol for a
listener.  The service is any object with the report methods in the
route table below -- a :class:`~repro.serve.server.PredictionServer`
or the cluster :class:`~repro.serve.cluster.router.Router`, whose
methods aggregate the fleet (coroutine methods are awaited).  Routes:

``/metrics``
    The service's registry snapshot in Prometheus text exposition
    format 0.0.4 (``?exemplars=1`` adds OpenMetrics-style trace-id
    exemplars to histogram buckets; ``?prefix=repro_serve`` restricts
    names), or as JSON with ``?format=json`` (how the router reads its
    workers').  A server refreshes its table-usage gauges first.
``/healthz``
    JSON liveness: overall status (``ok`` / ``degraded`` /
    ``draining``), queue depth, batch and session counts, firing SLO
    alerts.  Servers running with ``--state-dir`` additionally report
    the durable-state gauges (``sessions_resident`` /
    ``sessions_spilled``) and counters (``evictions_total``,
    ``reloads_total``, ``snapshots_total``).  Always HTTP 200 --
    health is in the body's ``status`` field so scripted probes can
    parse one shape.
``/slo``
    JSON burn-rate report: every objective with fast/slow window burn
    rates plus live latency percentiles.
``/slow``
    The top-K slowest-request sample with per-stage span breakdowns.
``/trace`` and ``/trace/<id>``
    The bounded in-process trace store: the most recent completed
    request spans (``?limit=N``), or every span recorded for one
    16-hex-digit trace id.  The cluster router serves the same routes
    fleet-wide (its ``/trace/<id>`` merges the router's own span with
    the worker spans into one ordered cross-process timeline).
``/tables``
    Live table-usage report: per-session rows and pooled totals of
    occupancy, live bits, hits per live bit, and level-1 aliasing
    ratios from the actual session table state (per-worker rows at
    the router).
``/scale`` and ``/cluster``
    Only on a service that has ``scale_report`` / ``cluster_report``
    (the router): autoscaling signals and the fleet control report.

The implementation is deliberately minimal -- request line + headers
in, one response out, connection closed -- because its only consumers
are scrapers, the router, ``repro top`` and curl; :func:`get_json` is
the one client they share.  No external HTTP dependency.
"""

from __future__ import annotations

import asyncio
import inspect
import json
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.tracing import parse_trace_id
from repro.telemetry.export import snapshot_prometheus_text

__all__ = ["ObservabilityServer", "get_json"]

_MAX_REQUEST_LINE = 8192
_HEADER_TIMEOUT = 5.0
_MAX_RESPONSE = 1 << 26


#: Path -> report method of the served object, in index order.
_REPORTS = {
    "/healthz": "healthz",
    "/slo": "slo_report",
    "/slow": "slow_requests",
    "/tables": "tables_report",
    "/scale": "scale_report",
    "/cluster": "cluster_report",
}


class ObservabilityServer:
    """HTTP scrape surface over one service's report methods."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._listener: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        self._listener = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._listener.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._listener is None:
            return
        self._listener.close()
        await self._listener.wait_closed()
        self._listener = None

    # ---------------------------------------------------------- handling

    async def _handle(self, reader, writer) -> None:
        try:
            status, content_type, body = await self._respond(reader)
            writer.write(
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("ascii"))
            writer.write(body)
            await writer.drain()
        except (ConnectionError, asyncio.TimeoutError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader) -> Tuple[str, str, bytes]:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), _HEADER_TIMEOUT)
        except asyncio.TimeoutError:
            return _text("408 Request Timeout", "request timeout\n")
        if len(request_line) > _MAX_REQUEST_LINE:
            return _text("414 URI Too Long", "request line too long\n")
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return _text("400 Bad Request", "malformed request line\n")
        method, target = parts[0], parts[1]
        # Drain headers (ignored) up to the blank line.
        while True:
            try:
                line = await asyncio.wait_for(reader.readline(),
                                              _HEADER_TIMEOUT)
            except asyncio.TimeoutError:
                break
            if line in (b"\r\n", b"\n", b""):
                break
        if method != "GET":
            return _text("405 Method Not Allowed", "GET only\n")
        split = urlsplit(target)
        return await self._route(split.path, parse_qs(split.query))

    async def _route(self, path: str, query: dict) -> Tuple[str, str, bytes]:
        service = self.service
        if path == "/metrics":
            snapshot = await _resolve(
                service.metrics_snapshot(_first(query, "prefix")))
            if _first(query, "format") == "json":
                return json_response(snapshot)
            text = snapshot_prometheus_text(
                snapshot, exemplars=_flag(query, "exemplars"))
            return ("200 OK", "text/plain; version=0.0.4; charset=utf-8",
                    text.encode("utf-8"))
        if path == "/trace":
            body = service.trace_dump(_int(query, "limit"))
        elif path.startswith("/trace/"):
            try:
                trace_id = parse_trace_id(path[len("/trace/"):])
            except ValueError as exc:
                return _text("400 Bad Request", f"{exc}\n")
            body = service.trace_lookup(trace_id)
        elif path == "/":
            reports = [p for p, name in _REPORTS.items()
                       if hasattr(service, name)]
            body = {"service": service.service_name,
                    "endpoints": ["/metrics", *reports, "/trace"]}
        else:
            report = (getattr(service, _REPORTS[path], None)
                      if path in _REPORTS else None)
            if report is None:
                return _text("404 Not Found", f"no route {path}\n")
            body = report()
        return json_response(await _resolve(body))


async def _resolve(value):
    """*value*, awaited first when a report method was a coroutine."""
    return await value if inspect.isawaitable(value) else value


def _first(query: dict, key: str) -> Optional[str]:
    values = query.get(key)
    return values[0] if values else None


def _flag(query: dict, key: str) -> bool:
    value = _first(query, key)
    return value not in (None, "", "0", "false", "no")


def _int(query: dict, key: str) -> Optional[int]:
    value = _first(query, key)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return None


async def get_json(host: str, port: int, path: str,
                   timeout: float = 5.0) -> dict:
    """GET ``http://host:port{path}`` and parse the JSON body.

    Raises ``ConnectionError`` on refusal/reset, ``TimeoutError`` after
    *timeout* seconds and ``ValueError`` on a non-200 status or a body
    that is not JSON -- the router treats each as "worker unreachable".
    """
    try:
        raw = await asyncio.wait_for(_get(host, port, path), timeout)
    except asyncio.TimeoutError:
        raise TimeoutError(f"GET {path} on {host}:{port}: no response "
                           f"within {timeout:g}s") from None
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    parts = status_line.split()
    if len(parts) < 2 or parts[1] != "200":
        raise ValueError(f"GET {path} on {host}:{port} -> {status_line}")
    return json.loads(body)


async def _get(host: str, port: int, path: str) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\n"
                     f"Host: {host}\r\n\r\n".encode("ascii"))
        await writer.drain()
        # Read to EOF (the endpoint closes after one response); a
        # single read(n) would return the first segment only.
        chunks = []
        total = 0
        while total < _MAX_RESPONSE:
            chunk = await reader.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
        return b"".join(chunks)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def json_response(payload: dict) -> Tuple[str, str, bytes]:
    """A 200 ``application/json`` route result."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return "200 OK", "application/json", body


def _text(status: str, message: str) -> Tuple[str, str, bytes]:
    return status, "text/plain; charset=utf-8", message.encode("utf-8")
