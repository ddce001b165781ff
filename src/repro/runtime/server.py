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
the pool coalesces and cache-affinity-routes the whole set at once.

The server accepts concurrent connections (one thread each); all pool
access goes through one shared
:class:`~repro.runtime.gateway.admission.PoolService`, so requests from
different clients still batch through one dispatcher, and — when the
service carries an :class:`~repro.runtime.gateway.admission.\
AdmissionController` — load beyond the measured token budget is shed with
``{"ok": false, "code": 429, "retry_after_s": ...}`` envelopes instead of
queueing unboundedly.  The same service object can back an
:class:`~repro.runtime.gateway.http.HttpGateway` (``--http-port``), in
which case both front-ends shed identically.  Per-connection socket
timeouts (``--conn-timeout``) reap hung clients so a stalled connection
cannot pin a handler thread forever.  ``shutdown`` stops the accept loop,
closes the pool's workers, and lets the process exit cleanly — CI drives
50 requests through this path and asserts exactly that.
"""

from __future__ import annotations

import argparse
import json
import socketserver
import sys
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.core.columnar import EXECUTOR_CHOICES
from repro.runtime.faults import load_fault_plan
from repro.runtime.gateway.admission import AdmissionController, PoolService
from repro.runtime.logs import configure_logging
from repro.runtime.pool import POOL_MODES, WorkerPool
from repro.sim.policies import POLICIES

#: Bumped when a wire-visible field changes meaning.
PROTOCOL_VERSION = 1


class RuntimeServer(socketserver.ThreadingTCPServer):
    """Threaded NDJSON front door over one shared :class:`PoolService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address,
        pool: Optional[WorkerPool] = None,
        *,
        service: Optional[PoolService] = None,
        conn_timeout: Optional[float] = None,
    ):
        if (pool is None) == (service is None):
            raise ValueError("pass exactly one of 'pool' or 'service'")
        super().__init__(address, _LineHandler)
        self.service = service if service is not None else PoolService(pool)
        #: Per-connection socket timeout, seconds (None = never time out).
        #: Applies to both reads and writes, so a hung *or* unreadably slow
        #: client is reaped instead of pinning its handler thread.
        self.conn_timeout = conn_timeout
        self.service.on_failure(self.request_shutdown)

    @property
    def pool(self) -> WorkerPool:
        """The worker pool behind the shared front door."""
        return self.service.pool

    @property
    def served(self) -> int:
        """Requests served (admitted and flushed) since startup."""
        return self.service.served

    @property
    def endpoint(self) -> str:
        """``host:port`` the NDJSON listener is bound to."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def serve_payloads(self, payloads: Sequence[Any]) -> List[Dict[str, Any]]:
        """Serve one client batch of JSON payloads (compat wrapper)."""
        return self.service.serve_payloads(payloads).results

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` reply envelope, protocol version attached."""
        payload = self.service.stats_payload()
        payload["version"] = PROTOCOL_VERSION
        return payload

    def request_shutdown(self) -> None:
        """Stop serve_forever() from any thread (used on pool failure)."""
        # shutdown() blocks until serve_forever() exits, so it must run off
        # the handler thread that is still inside a request.
        threading.Thread(target=self.shutdown, daemon=True).start()


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines until EOF, timeout, or shutdown."""

    server: RuntimeServer

    def setup(self) -> None:
        """Apply the connection timeout before the stream is wrapped."""
        if self.server.conn_timeout is not None:
            self.request.settimeout(self.server.conn_timeout)
        super().setup()

    def _reply(self, payload: Dict[str, Any]) -> None:
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")
        self.wfile.flush()

    def handle(self) -> None:
        """Serve JSON lines until EOF; timeouts drop the connection."""
        try:
            self._serve_lines()
        except (TimeoutError, OSError):
            # An idle/hung client hit the connection timeout (or vanished);
            # dropping the connection frees this handler thread.  Clients
            # with half-written lines get a closed socket, not a reply.
            return

    def _serve_lines(self) -> None:
        for raw in self.rfile:
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
            if op == "ping":
                self._reply({"ok": True, "op": "ping", "version": PROTOCOL_VERSION})
            elif op == "stats":
                self._reply(self.server.stats_payload())
            elif op == "metrics":
                # Same renderer as the gateway's GET /metrics, framed as a
                # JSON envelope so the NDJSON protocol stays line-oriented.
                self._reply(
                    {
                        "ok": True,
                        "op": "metrics",
                        "content_type": "text/plain; version=0.0.4",
                        "text": self.server.service.metrics_text(),
                    }
                )
            elif op == "slow":
                self._reply(self.server.service.slow_payload())
            elif op == "request":
                result = self.server.service.serve_payloads(
                    [payload], endpoint="request"
                )
                self._reply(result.results[0])
            elif op == "batch":
                requests = payload.get("requests")
                if not isinstance(requests, list):
                    self._reply(
                        {"ok": False, "error": "'batch' needs a 'requests' list"}
                    )
                    continue
                result = self.server.service.serve_payloads(requests, endpoint="batch")
                if result.shed:
                    # One top-level envelope, exactly as the HTTP gateway
                    # answers 429 for the whole batch.
                    self._reply(
                        {
                            "ok": False,
                            "error": result.results[0]["error"],
                            "code": 429,
                            "retry_after_s": result.retry_after_s,
                            "requested": result.results[0].get("requested"),
                            "limit": result.results[0].get("limit"),
                        }
                    )
                    continue
                self._reply({"ok": True, "op": "batch", "responses": result.results})
            elif op == "shutdown":
                self._reply({"ok": True, "op": "shutdown"})
                self.server.request_shutdown()
                return
            else:
                self._reply({"ok": False, "error": f"unknown op '{op}'"})


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
        "serve NDJSON/TCP only).  The HTTP gateway shares the TCP "
        "server's pool and admission controller",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="pool workers (default 4)"
    )
    parser.add_argument(
        "--pool-mode",
        type=str,
        default="inline",
        choices=POOL_MODES,
        help="inline (deterministic, in-process) or process (parallel)",
    )
    parser.add_argument(
        "--policy",
        type=str,
        default="cache-affinity",
        choices=sorted(POLICIES),
        help="batch admission policy (default cache-affinity)",
    )
    parser.add_argument("--cache-capacity", type=int, default=64)
    parser.add_argument("--result-cache", type=int, default=512)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="fixed in-flight request budget; by default the budget is "
        "derived from the pool's measured drain rate × --headroom",
    )
    parser.add_argument(
        "--headroom",
        type=float,
        default=2.0,
        help="seconds of measured drain the front door may hold in flight "
        "before shedding with 429 (default 2.0; ignored with "
        "--max-inflight)",
    )
    parser.add_argument(
        "--no-admission",
        action="store_true",
        help="disable load shedding entirely (accept and queue unboundedly; "
        "the pre-gateway behaviour, kept for comparisons)",
    )
    parser.add_argument(
        "--conn-timeout",
        type=float,
        default=120.0,
        help="per-connection socket read/write timeout in seconds; hung "
        "clients are reaped after this long (default 120; <= 0 disables)",
    )
    parser.add_argument(
        "--write-timeout",
        type=float,
        default=10.0,
        help="HTTP gateway per-write drain deadline (slow readers are "
        "dropped past it; default 10)",
    )
    parser.add_argument(
        "--stream-chunk",
        type=int,
        default=1,
        help="requests per pool flush on /v1/stream (default 1 = one "
        "response on the wire per flush)",
    )
    parser.add_argument(
        "--disk-cache",
        type=str,
        default=None,
        help="root directory for per-worker on-disk program caches",
    )
    parser.add_argument(
        "--mp-context",
        type=str,
        default="spawn",
        help="multiprocessing start method for process mode",
    )
    parser.add_argument(
        "--executor",
        type=str,
        default="auto",
        choices=EXECUTOR_CHOICES,
        help="functional interpreter for the vrda backend: 'columnar' "
             "(vectorized numpy), 'token' (per-token reference), or 'auto' "
             "(columnar when numpy is available; default); responses are "
             "bit-identical either way",
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
        type=float,
        default=30.0,
        help="sliding window in seconds for --max-worker-restarts "
        "(default 30)",
    )
    parser.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="DEV ONLY: inject faults into pool workers — inline JSON or "
        "@path to a JSON file, e.g. "
        "'[{\"kind\": \"kill\", \"worker\": 0, \"after_batches\": 1}]' "
        "(kinds: kill, hang, delay-reply, drop-reply, corrupt-cache)",
    )
    parser.add_argument(
        "--log-level",
        type=str,
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
    parser.add_argument(
        "--slow-ring",
        type=int,
        default=32,
        help="retain this many slowest front-door calls for the 'slow' op "
        "and GET /v1/slow (default 32)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the socket/HTTP server; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    pool = WorkerPool(
        workers=args.workers,
        mode=args.pool_mode,
        policy=args.policy,
        cache_capacity=args.cache_capacity,
        result_cache_capacity=args.result_cache,
        max_batch_size=args.max_batch,
        disk_cache_dir=args.disk_cache,
        mp_context=args.mp_context,
        executor=args.executor,
        fault_plan=load_fault_plan(args.fault_plan),
        max_worker_restarts=args.max_worker_restarts,
        restart_window_s=args.restart_window,
    )
    admission = None
    if not args.no_admission:
        admission = AdmissionController(
            max_inflight=args.max_inflight, headroom=args.headroom
        )
    conn_timeout = args.conn_timeout if args.conn_timeout > 0 else None
    gateway = None
    with pool:
        service = PoolService(pool, admission, slow_ring_size=args.slow_ring)
        server = RuntimeServer(
            (args.host, args.port), service=service, conn_timeout=conn_timeout
        )
        with server:
            # The one line launchers parse: host:port on stdout, flushed.
            print(f"runtime-server listening on {server.endpoint}", flush=True)
            if args.http_port is not None:
                from repro.runtime.gateway.http import HttpGateway

                gateway = HttpGateway(
                    service,
                    host=args.host,
                    port=args.http_port,
                    # None (from --conn-timeout <= 0) disables idle reaping
                    # on the HTTP side too, matching the NDJSON socket.
                    idle_timeout_s=conn_timeout,
                    write_timeout_s=args.write_timeout,
                    stream_chunk=args.stream_chunk,
                ).start()
                print(
                    f"runtime-server http listening on {gateway.endpoint}",
                    flush=True,
                )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                if gateway is not None:
                    gateway.close()
        print(
            f"runtime-server stopped after {server.served} requests",
            file=sys.stderr,
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
