"""Persistent serving front-end: newline-delimited JSON over TCP.

``python -m repro.runtime.server`` turns the worker pool into a long-lived
process.  Clients connect over TCP and exchange one JSON object per line:

Request lines (client → server)::

    {"op": "request", "app": "strlen", "n_threads": 4, "seed": 1}
    {"op": "batch", "requests": [{"app": "search"}, {"app": "murmur3"}]}
    {"op": "ping"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "slow"}
    {"op": "shutdown"}

``op`` defaults to ``request``, so a bare request object
(``{"app": "strlen"}``) is also accepted.  Request fields are exactly
:attr:`repro.runtime.engine.Request.WIRE_FIELDS`; responses are
:meth:`repro.runtime.engine.Response.to_dict` objects (plus ``{"ok": false,
"error": ...}`` envelopes for malformed lines).  ``batch`` serves many
requests through one pool flush — that is the high-throughput path, since
the pool coalesces the whole set and routes each batch to the worker that
holds its program.

Connections are served one thread each.  What an operation does is an entry
of the one table in :class:`~repro.runtime.gateway.admission.PoolService`,
so all clients batch through one dispatcher and load beyond the admission
budget is shed with ``{"ok": false, "code": 429, "retry_after_s": ...}``
envelopes instead of queueing.  :class:`RuntimeServer` is the one listener
class, opened once per port with a framing: this module's NDJSON line
handler, or (``--http-port``) :mod:`repro.runtime.gateway.http` on the same
service.  A framing owns what is specific to its wire: its op map
(:data:`OPS` here), the shapes it accepts, its refusal wording, its envelope
keys.  ``--conn-timeout`` reaps hung clients, and a line longer than the
HTTP body limit is refused rather than buffered.  ``shutdown`` stops every
accept loop, closes the pool's workers and lets the process exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import socketserver
import sys
import threading
from typing import Any, Dict, List, Optional, Type

from repro.runtime.faults import load_fault_plan
from repro.runtime.gateway.admission import (
    PROTOCOL_VERSION,
    AdmissionController,
    PoolService,
)
from repro.runtime.gateway.http import HttpHandler
from repro.runtime.logs import configure_logging
from repro.runtime.pool import POOL_MODES, WorkerPool


class RuntimeServer(socketserver.ThreadingTCPServer):
    """The threaded listener: one port, one framing, a shared service.

    ``handler`` is the framing — the NDJSON line handler unless given
    :class:`~repro.runtime.gateway.http.HttpHandler`.  Listeners built on
    the same ``service`` share its pool, admission budget and counters, and
    a ``shutdown`` op or a tripped circuit breaker stops all of them.
    """

    allow_reuse_address = True
    daemon_threads = True
    #: Largest HTTP body, and longest NDJSON line, a listener accepts.
    max_body_bytes = 4 * 1024 * 1024

    def __init__(
        self,
        address,
        pool: Optional[WorkerPool] = None,
        *,
        service: Optional[PoolService] = None,
        handler: Optional[Type[socketserver.BaseRequestHandler]] = None,
        conn_timeout: Optional[float] = None,
        write_timeout: Optional[float] = 10.0,
    ):
        if (pool is None) == (service is None):
            raise ValueError("pass exactly one of 'pool' or 'service'")
        if write_timeout is not None and not (
            math.isfinite(write_timeout) and write_timeout > 0
        ):
            raise ValueError("write_timeout must be finite and positive (or None)")
        super().__init__(address, handler or _LineHandler)
        self.service = service if service is not None else PoolService(pool)
        #: Socket timeout of each connection, seconds (None = never): a hung
        #: client is reaped instead of pinning its handler thread.
        self.conn_timeout = conn_timeout
        #: Deadline of one HTTP response write (NDJSON writes under the above).
        self.write_timeout = write_timeout
        # A framing with per-listener state (the HTTP door's event
        # counters) sets it up here, before the first connection.
        opened = getattr(self.RequestHandlerClass, "listener_opened", None)
        if opened is not None:
            opened(self)
        self.service.on_failure(self.request_shutdown)

    def get_request(self):
        """Accept one connection with the connection timeout applied."""
        connection, address = super().get_request()
        connection.settimeout(self.conn_timeout)
        return connection, address

    @property
    def endpoint(self) -> str:
        """``host:port`` the listener is bound to."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def request_shutdown(self) -> None:
        """Stop serve_forever() from any thread (used on pool failure)."""
        # shutdown() blocks until serve_forever() exits, so it must run off
        # the handler thread that is still inside a request.
        threading.Thread(target=self.shutdown, daemon=True).start()


class _LineHandler(socketserver.StreamRequestHandler):
    """One NDJSON connection: JSON lines until EOF, timeout, or shutdown."""

    def _reply(self, payload: Dict[str, Any]) -> None:
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")

    def handle(self) -> None:
        """Serve JSON lines until EOF; timeouts drop the connection."""
        # An idle/hung client hit the connection timeout (or vanished):
        # dropping the connection frees this handler thread.  Clients with
        # half-written lines get a closed socket, not a reply.
        with contextlib.suppress(OSError):
            self._serve_lines()

    def _serve_lines(self) -> None:
        limit = self.server.max_body_bytes
        while raw := self.rfile.readline(limit + 1):
            if len(raw) > limit:
                # Refuse rather than buffer a line of any size; what follows
                # is the rest of that line, so the connection ends here.
                self._reply(
                    {"ok": False, "error": f"line exceeds the {limit}-byte limit"}
                )
                return
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                self._reply({"ok": False, "error": f"bad JSON line: {error}"})
                continue
            if not isinstance(payload, dict):
                self._reply({"ok": False, "error": "each line must be a JSON object"})
                continue
            op = payload.pop("op", "request")
            # `op` is client JSON: only a string can be (or name) a key.
            answer = OPS.get(op) if isinstance(op, str) else None
            if answer is None:
                self._reply({"ok": False, "error": f"unknown op '{op}'"})
                continue
            envelope = answer(self, payload)
            if envelope is None:
                return
            self._reply(envelope)

    # -- ops: shape the line (minus ``op``), call the table, add this door's
    # keys; each returns the one envelope to write back.

    def _ping(self, line: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "op": "ping", "version": PROTOCOL_VERSION}

    def _shutdown(self, line: Dict[str, Any]) -> None:
        # Connection-level: acknowledge first, then stop every listener; no
        # envelope is left to write, which ends this connection.
        self._reply({"ok": True, "op": "shutdown"})
        self.server.service.stop_listeners()

    def _request(self, line: Dict[str, Any]) -> Dict[str, Any]:
        reply = self.server.service.request(line, "request")
        if reply.status == 429:
            # A shed request is answered as any entry of a shed batch would
            # be: its own envelope, the hint rounded to the millisecond.
            return dict(reply.payload, retry_after_s=round(reply.retry_after_s, 3))
        return reply.payload

    def _batch(self, line: Dict[str, Any]) -> Dict[str, Any]:
        requests = line.get("requests")
        if not isinstance(requests, list):
            return {"ok": False, "error": "'batch' needs a 'requests' list"}
        reply = self.server.service.batch(requests, "batch")
        if reply.status == 429:
            return reply.payload
        return {"ok": True, "op": "batch", "responses": reply.payload}

    def _stats(self, line: Dict[str, Any]) -> Dict[str, Any]:
        return dict(self.server.service.stats_payload(), version=PROTOCOL_VERSION)

    def _metrics(self, line: Dict[str, Any]) -> Dict[str, Any]:
        # The exposition GET /metrics serves as text, in a JSON envelope so
        # the protocol stays line-oriented.
        return {
            "ok": True,
            "op": "metrics",
            "content_type": "text/plain; version=0.0.4",
            "text": self.server.service.metrics_text(),
        }

    def _slow(self, line: Dict[str, Any]) -> Dict[str, Any]:
        return self.server.service.slow_payload()


#: Op → how a line naming it is answered.
OPS = {
    "request": _LineHandler._request,
    "batch": _LineHandler._batch,
    "ping": _LineHandler._ping,
    "stats": _LineHandler._stats,
    "metrics": _LineHandler._metrics,
    "slow": _LineHandler._slow,
    "shutdown": _LineHandler._shutdown,
}


def _finite_seconds(text: str) -> float:
    """An argparse type: a duration that must be finite (not NaN or inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    """An argparse type: a finite duration that must be > 0."""
    value = _finite_seconds(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the socket/HTTP server."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.server",
        description="Serve runtime requests over newline-delimited JSON/TCP "
        "(and optionally HTTP).",
    )
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one)"
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="also serve HTTP on this port (0 picks a free one; omit to "
        "serve NDJSON/TCP only), over the same pool and admission controller",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="pool workers (default 4)"
    )
    parser.add_argument(
        "--pool-mode",
        default="inline",
        choices=POOL_MODES,
        help="inline (deterministic, in-process) or process (parallel)",
    )
    parser.add_argument("--cache-capacity", type=int, default=64)
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="fixed in-flight request budget; by default the budget is "
        "derived from the pool's measured capacity × --headroom",
    )
    parser.add_argument(
        "--headroom",
        type=_positive_seconds,
        default=2.0,
        help="seconds of measured drain the front door may hold in flight "
        "before shedding with 429 (default 2.0; ignored with "
        "--max-inflight)",
    )
    parser.add_argument(
        "--conn-timeout",
        type=_finite_seconds,
        default=120.0,
        help="per-connection socket read/write timeout in seconds; hung "
        "clients are reaped after this long (default 120; <= 0 disables)",
    )
    parser.add_argument(
        "--write-timeout",
        type=_positive_seconds,
        default=10.0,
        help="deadline of one HTTP response write (slow readers are "
        "dropped past it; default 10)",
    )
    parser.add_argument(
        "--max-worker-restarts",
        type=int,
        default=5,
        help="worker respawns tolerated within --restart-window before the "
        "pool's circuit breaker trips and the server shuts down (default "
        "5; 0 makes any worker loss immediately fatal)",
    )
    parser.add_argument(
        "--restart-window",
        type=_positive_seconds,
        default=30.0,
        help="sliding window in seconds for --max-worker-restarts "
        "(default 30)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        help="DEV ONLY: inject faults into pool workers — inline JSON or "
        "@path to a JSON file, e.g. "
        "'[{\"kind\": \"kill\", \"worker\": 0, \"after_batches\": 1}]' "
        "(kinds: kill, hang, delay-reply, drop-reply)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="structured-log threshold for the repro.* loggers (default "
        "info; worker restarts and breaker trips log at warning/error)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line instead of human-readable "
        "text (machine-parseable: ts/level/logger/msg + event fields)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the socket/HTTP server; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    pool = WorkerPool(
        workers=args.workers,
        mode=args.pool_mode,
        cache_capacity=args.cache_capacity,
        fault_plan=load_fault_plan(args.fault_plan),
        max_worker_restarts=args.max_worker_restarts,
        restart_window_s=args.restart_window,
    )
    admission = AdmissionController(
        max_inflight=args.max_inflight, headroom=args.headroom
    )
    # None (from --conn-timeout <= 0) disables idle reaping on both doors.
    conn_timeout = args.conn_timeout if args.conn_timeout > 0 else None
    with pool, contextlib.ExitStack() as listeners:
        service = PoolService(pool, admission)
        server = listeners.enter_context(
            RuntimeServer(
                (args.host, args.port), service=service, conn_timeout=conn_timeout
            )
        )
        # The lines launchers parse: host:port on stdout, flushed.
        print(f"runtime-server listening on {server.endpoint}", flush=True)
        if args.http_port is not None:
            http = listeners.enter_context(
                RuntimeServer(
                    (args.host, args.http_port),
                    service=service,
                    handler=HttpHandler,
                    conn_timeout=conn_timeout,
                    write_timeout=args.write_timeout,
                )
            )
            print(f"runtime-server http listening on {http.endpoint}", flush=True)
            threading.Thread(target=http.serve_forever, daemon=True).start()
            # Whatever ends the NDJSON accept loop ends the HTTP one too.
            listeners.callback(http.shutdown)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    print(
        f"runtime-server stopped after {service.stats_payload()['served']} requests",
        file=sys.stderr,
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
