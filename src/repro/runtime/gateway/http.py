"""The HTTP/1.1 framing of the front door.

:class:`HttpHandler` is the connection handler a
:class:`~repro.runtime.server.RuntimeServer` runs when opened with
``handler=HttpHandler``: one thread per connection, a bounded parser,
keep-alive.  It owns what is HTTP-specific — the route map
(:data:`ROUTES`), the body shapes accepted, the refusal wording, the keys
only this door carries (``version``, ``gateway``, a shed batch's
``requests``, ``Retry-After``) and its event counters; what an operation
*means* is :class:`~repro.runtime.gateway.admission.PoolService`'s table.

* ``GET /healthz`` — liveness + degraded state, from lock-free pool
  counters: never waits on the pool lock.
* ``GET /v1/stats``, ``GET /v1/slow`` — the ``stats`` and ``slow`` payloads
  (plus this door's event counts under ``gateway``).
* ``GET /metrics`` — the Prometheus text the NDJSON ``metrics`` op wraps.
* ``POST /v1/request`` — one JSON request object, one JSON response.
* ``POST /v1/batch`` — ``{"requests": [...]}`` (or a bare list) through
  one pool flush; order-preserving, bad entries answered per request.
* ``POST /v1/stream`` — same input, chunked-transfer NDJSON output, served
  ``chunk`` requests per flush and written as each flush completes, so the
  first response leaves while later ones are still executing.

Backpressure holds at both ends of a connection.  On the way in, the shared
admission controller sheds work beyond the measured token budget with
``429`` + ``Retry-After``.  On the way out, the socket is blocking and
nothing is buffered in user space: every write carries a deadline (the
socket timeout bounds the whole ``sendall``), so a reader that stops
draining is dropped — and counted — instead of pinning its handler thread;
idle connections are reaped by the read timeout.
"""

from __future__ import annotations

import json
import socketserver
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.gateway.admission import PROTOCOL_VERSION, Reply, ServeResult

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: What this door counts in ``gateway_events_total{kind=}``.
GATEWAY_EVENTS = (
    "connections",
    "requests",
    "streamed_responses",
    "shed",
    "idle_reaped",
    "slow_readers_dropped",
    "bad_requests",
    "internal_errors",
)

#: Requests per pool flush on ``/v1/stream`` when the body names no ``chunk``.
_DEFAULT_CHUNK = 1

#: Longest request or header line accepted, bytes.
_MAX_LINE = 64 * 1024

_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
#: Terminal chunk of a chunked-transfer body.
LAST_CHUNK = b"0\r\n\r\n"


class SlowReaderError(ReproError):
    """A client stopped draining its socket past the write deadline."""


class HttpError(ReproError):
    """A request this door refuses, as an HTTP status + JSON detail."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status


def encode_chunk(data: bytes) -> bytes:
    """One chunked-transfer frame: hex size line, payload, CRLF."""
    return f"{len(data):x}".encode("ascii") + b"\r\n" + data + b"\r\n"


def ndjson_line(payload: Dict[str, Any]) -> bytes:
    """One response as an NDJSON line (the stream's chunk payload)."""
    return json.dumps(payload).encode("utf-8") + b"\n"


def _head_bytes(
    status: int,
    content_type: str,
    length: Optional[int],
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Status line and headers; ``length=None`` announces a chunked body."""
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Transfer-Encoding: chunked" if length is None else f"Content-Length: {length}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in (extra_headers or {}).items()]
    return "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"


def _response_bytes(
    status: int,
    payload: Dict[str, Any],
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = json.dumps(payload).encode("utf-8") + b"\n"
    head = _head_bytes(status, "application/json", len(body), keep_alive, extra_headers)
    return head + body


def _request_list(body: Any) -> Tuple[List[Any], Dict[str, Any]]:
    """Accept ``{"requests": [...], ...}`` or a bare JSON list."""
    if isinstance(body, list):
        return body, {}
    if isinstance(body, dict) and isinstance(body.get("requests"), list):
        return body["requests"], body
    raise HttpError(
        400, "body must be a JSON list or an object with a 'requests' list"
    )


def _versioned(payload: Dict[str, Any]) -> Reply:
    payload["version"] = PROTOCOL_VERSION
    return Reply(200, payload)


class HttpHandler(socketserver.StreamRequestHandler):
    """One HTTP connection: parse, look the route up, frame the reply.

    The listener has already put its connection (read) timeout on the
    socket; ``self.server`` supplies ``service``, ``write_timeout``,
    ``max_body_bytes`` and the ``gateway_events`` counter that
    :meth:`listener_opened` registered.
    """

    @classmethod
    def listener_opened(cls, listener: Any) -> None:
        """Register this door's event kinds at zero, so a scrape shows all
        eight before any connection (an NDJSON-only server never grows them).
        """
        listener.gateway_events = listener.service.pool.metrics.counter(
            "gateway_events_total",
            "HTTP gateway connection/request events, by kind.",
            ("kind",),
        )
        for kind in GATEWAY_EVENTS:
            listener.gateway_events.inc(0, kind=kind)

    def handle(self) -> None:
        """Serve requests until close, EOF, idle timeout or a slow reader."""
        self._count = count = self.server.gateway_events.inc
        count(kind="connections")
        try:
            while self._serve_one():
                pass
        except SlowReaderError:
            # Closing frees what the kernel still buffers for a client that
            # never drains it; no user-space buffer holds results.
            count(kind="slow_readers_dropped")
        except TimeoutError:
            count(kind="idle_reaped")
        except OSError:
            pass  # client went away mid-exchange

    def _serve_one(self) -> bool:
        """One request/response exchange; False ends the connection."""
        try:
            parsed = self._read_request()
        except HttpError as error:
            self._count(kind="bad_requests")
            self._write_error(error.status, str(error))
            return False
        if parsed is None:
            return False  # clean EOF between requests
        self._count(kind="requests")
        try:
            return self._respond(*parsed)
        except HttpError as error:
            self._write_error(error.status, str(error))
        except (SlowReaderError, OSError):
            raise
        except Exception as error:  # noqa: BLE001 - answer 500, don't drop
            self._count(kind="internal_errors")
            self._write_error(500, f"internal error: {error}")
        return False

    def _read_line(self) -> bytes:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise HttpError(400, "header line too long")
        return line

    def _read_request(self) -> Optional[Tuple[str, str, bytes, bool]]:
        """Parse one request: ``(method, path, body, keep_alive)`` or EOF."""
        line = self._read_line()
        if not line:
            return None
        try:
            method, target, version = line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "malformed request line")
        if not version.startswith("HTTP/1."):
            raise HttpError(400, f"unsupported protocol {version}")
        headers: Dict[str, str] = {}
        while True:
            raw = self._read_line()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise HttpError(400, "connection closed inside headers")
            if len(headers) >= 100:
                raise HttpError(400, "too many headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise HttpError(400, "chunked request bodies are not supported")
        body = b""
        length_header = headers.get("content-length", "0")
        try:
            length = int(length_header)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length_header!r}")
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        limit = self.server.max_body_bytes
        if length > limit:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the {limit}-byte limit",
            )
        if length:
            body = self.rfile.read(length)
            if len(body) < length:
                raise HttpError(400, "connection closed inside request body")
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            # HTTP/1.0 defaults to close; holding the socket open would hang
            # clients that delimit responses by connection close.
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return method.upper(), target.split("?", 1)[0], body, keep_alive

    def _respond(self, method: str, path: str, body: bytes, keep_alive: bool) -> bool:
        route = ROUTES.get(path)
        if route is None:
            raise HttpError(404, f"no such endpoint {path!r}")
        allowed, answer = route
        if method != allowed:
            raise HttpError(405, f"{path} answers {allowed} only")
        decoded = None
        if allowed == "POST":
            try:
                decoded = json.loads(body or b"null")
            except json.JSONDecodeError as error:
                raise HttpError(400, f"request body is not valid JSON: {error}")
        reply = answer(self, decoded)
        if reply.status == 429:
            self._count(reply.payload["requested"], kind="shed")
            retry = {"Retry-After": str(max(1, round(reply.retry_after_s)))}
            self._write(_response_bytes(429, reply.payload, keep_alive, retry))
        elif isinstance(reply.payload, dict):
            self._write(_response_bytes(200, reply.payload, keep_alive))
        elif isinstance(reply.payload, str):
            # Plain text: the Prometheus exposition.
            text = reply.payload.encode("utf-8")
            self._write(_head_bytes(200, _PROMETHEUS, len(text), keep_alive) + text)
        elif not self._write_stream(reply.payload, keep_alive):
            return False
        return keep_alive

    # -- routes: shape the body, call the table, add this door's keys -------

    def _health(self, body: Any) -> Reply:
        # Lock-free counters only: answers while a flush holds the pool lock.
        return _versioned(self.server.service.health_payload())

    def _stats(self, body: Any) -> Reply:
        stats = self.server.service.stats_payload()
        events = self.server.gateway_events
        stats["gateway"] = {k: int(events.value(kind=k)) for k in GATEWAY_EVENTS}
        return _versioned(stats)

    def _metrics(self, body: Any) -> Reply:
        return Reply(200, self.server.service.metrics_text())

    def _slow(self, body: Any) -> Reply:
        return _versioned(self.server.service.slow_payload())

    def _request(self, body: Any) -> Reply:
        if not isinstance(body, dict):
            raise HttpError(400, "body must be one JSON request object")
        return self.server.service.request(body, "/v1/request")

    def _batch(self, body: Any) -> Reply:
        requests, _ = _request_list(body)
        reply = self.server.service.batch(requests, "/v1/batch")
        if reply.status == 429:
            return reply._replace(payload=dict(reply.payload, requests=len(requests)))
        return Reply(200, {"ok": True, "responses": reply.payload})

    def _stream(self, body: Any) -> Reply:
        requests, envelope = _request_list(body)
        chunk = envelope.get("chunk", _DEFAULT_CHUNK)
        reply = self.server.service.stream(requests, chunk, "/v1/stream")
        if reply.status != 200:
            raise HttpError(reply.status, reply.payload["error"])
        return reply

    # -- writing ------------------------------------------------------------

    def _write_stream(self, flushes: Iterator[ServeResult], keep_alive: bool) -> bool:
        """Chunk each flush's results onto the wire as it completes."""
        self._write(_head_bytes(200, "application/x-ndjson", None, keep_alive))
        try:
            for flush in flushes:
                if flush.shed:
                    self._count(len(flush.results), kind="shed")
                self._write(
                    b"".join(encode_chunk(ndjson_line(r)) for r in flush.results)
                )
                self._count(len(flush.results), kind="streamed_responses")
            self._write(LAST_CHUNK)
        except (SlowReaderError, OSError):
            raise
        except Exception:  # noqa: BLE001 - headers are already on the wire
            # A 500 response here would be parsed as a chunk-size line by the
            # client's chunked decoder; close so it sees a clean truncation.
            self._count(kind="internal_errors")
            return False
        return True

    def _write_error(self, status: int, detail: str) -> None:
        self._write(_response_bytes(status, {"ok": False, "error": detail}, False))

    def _write(self, data: bytes) -> None:
        """Send ``data`` under the write deadline (the one write primitive).

        The socket timeout bounds the whole ``sendall``: a client that does
        not drain its socket in time raises :class:`SlowReaderError` and the
        connection is dropped instead of blocking this thread on it.
        """
        deadline = self.server.write_timeout
        self.request.settimeout(deadline)
        try:
            self.wfile.write(data)
        except TimeoutError as error:
            raise SlowReaderError(
                f"client did not drain its socket within {deadline:.1f}s; "
                f"dropping the connection"
            ) from error
        finally:
            self.request.settimeout(self.server.conn_timeout)


#: Route → (the method it answers, how it is answered).
ROUTES = {
    "/healthz": ("GET", HttpHandler._health),
    "/v1/stats": ("GET", HttpHandler._stats),
    "/v1/slow": ("GET", HttpHandler._slow),
    "/metrics": ("GET", HttpHandler._metrics),
    "/v1/request": ("POST", HttpHandler._request),
    "/v1/batch": ("POST", HttpHandler._batch),
    "/v1/stream": ("POST", HttpHandler._stream),
}
