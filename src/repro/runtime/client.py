"""Client for the runtime server's NDJSON protocol, plus the CI smoke driver.

:class:`RuntimeClient` is the programmatic side of
:mod:`repro.runtime.server`: one TCP connection, one JSON object per line,
blocking round-trips — with a connect timeout (and bounded connect
retries), a read timeout on every round-trip, and bounded exponential
backoff that honors the server's ``retry_after_s`` hint when the front
door sheds load with a 429 envelope.  The client keeps no counters of its
own: the server exports every one (``stats`` op, ``GET /metrics``).

``python -m repro.runtime.client --smoke`` is the end-to-end self-test CI
runs on every Python version: it spawns a server subprocess with both
doors open and one injected worker kill, drives traced and untraced
traffic through NDJSON ``batch`` round-trips and the HTTP routes
(request, batch, chunked stream), cross-checks ``GET /metrics`` against
the ``stats`` op, and asserts the server shuts down cleanly (exit code 0)
on the ``shutdown`` op.
"""

from __future__ import annotations

import argparse
import http.client
import json
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

LISTENING_PREFIX = "runtime-server listening on "
HTTP_LISTENING_PREFIX = "runtime-server http listening on "
#: Longest pause between connect or 429 retries, seconds.
MAX_BACKOFF_S = 2.0


class ClientError(ReproError):
    """The server connection failed or returned an unreadable reply."""


class OverloadedError(ClientError):
    """The server kept shedding (429) past the client's retry budget."""

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ConnectionLostError(ClientError):
    """The connection dropped mid-round-trip (reset, EOF, broken pipe).

    Distinct from a plain :class:`ClientError` so callers — and
    :meth:`RuntimeClient.request` itself — can tell "the server is gone or
    restarting, reconnect and retry" apart from "the reply was garbage" or
    "the operation timed out" (where the request may still be executing and
    a blind retry is not safe for non-idempotent work).
    """


class RuntimeClient:
    """Blocking NDJSON client for one :class:`RuntimeServer` connection.

    ``timeout`` bounds every read/write on the established connection;
    ``connect_timeout``/``connect_retries`` bound connection establishment
    (retried with ``backoff_s`` doubling per attempt — a freshly spawned
    server may not be accepting yet).  ``max_retries_429`` is how many
    times :meth:`request`/:meth:`batch` re-send after an overload envelope,
    sleeping the server's ``retry_after_s`` hint (clamped to
    :data:`MAX_BACKOFF_S`) between attempts; 0 surfaces the envelope
    directly.  ``reconnect_retries`` bounds how many times :meth:`request`
    reconnects and re-sends after the connection drops mid-round-trip
    (idempotent single requests only); 0 surfaces
    :class:`ConnectionLostError`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        *,
        connect_timeout: Optional[float] = 10.0,
        connect_retries: int = 0,
        max_retries_429: int = 0,
        reconnect_retries: int = 1,
        backoff_s: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries_429 = max_retries_429
        self.reconnect_retries = max(0, reconnect_retries)
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._connect_timeout = connect_timeout
        self._connect_retries = max(0, connect_retries)
        self._connect()

    def _connect(self) -> None:
        """(Re-)establish the connection with bounded, backed-off retries."""
        attempts = self._connect_retries + 1
        delay = max(self.backoff_s, 1e-3)
        last_error: Optional[OSError] = None
        for attempt in range(attempts):
            try:
                self._socket = socket.create_connection(
                    (self.host, self.port), timeout=self._connect_timeout
                )
                break
            except OSError as error:
                last_error = error
                if attempt + 1 < attempts:
                    self._sleep(delay)
                    delay = min(delay * 2, MAX_BACKOFF_S)
        else:
            raise ClientError(
                f"cannot connect to {self.host}:{self.port}: {last_error}"
            )
        #: Established: every read/write is bounded by the op timeout.
        self._socket.settimeout(self.timeout)
        self._file = self._socket.makefile("rwb")

    def close(self) -> None:
        """Close the connection; safe to call twice, never raises."""
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "RuntimeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def roundtrip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one JSON line, block for one JSON line back."""
        try:
            self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
        except TimeoutError as error:
            # Timeouts are NOT connection loss: the request may still be
            # executing server-side, so no automatic retry.
            raise ClientError(
                f"server round-trip failed after {self.timeout}s: {error}"
            )
        except OSError as error:
            raise ConnectionLostError(f"connection lost mid-round-trip: {error}")
        if not line:
            raise ConnectionLostError("server closed the connection")
        try:
            return json.loads(line)
        except json.JSONDecodeError as error:
            raise ClientError(f"unreadable server reply: {error}")

    def _roundtrip_with_backoff(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Round-trip, retrying overload envelopes per the server's hint."""
        delay = max(self.backoff_s, 1e-3)
        reply = self.roundtrip(payload)
        for _ in range(self.max_retries_429):
            if reply.get("code") != 429:
                return reply
            hint = float(reply.get("retry_after_s") or 0.0)
            self._sleep(min(max(hint, delay), MAX_BACKOFF_S))
            delay = min(delay * 2, MAX_BACKOFF_S)
            reply = self.roundtrip(payload)
        return reply

    # -- protocol ops -------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Liveness round-trip; returns the server's version envelope."""
        return self.roundtrip({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        """Fetch the server's ``stats`` envelope: counters and pool view."""
        return self.roundtrip({"op": "stats"})

    def request(self, **fields: Any) -> Dict[str, Any]:
        """Serve one request, e.g. ``client.request(app="strlen", seed=1)``.

        Single requests are idempotent (re-serving one yields the same
        response, at worst re-billing a cache hit), so a connection lost
        mid-round-trip is healed transparently: reconnect, re-send, up to
        ``reconnect_retries`` times with the same bounded backoff the 429
        path uses.  Batches are not retried this way — re-flushing a big
        batch after a mid-flight drop is the caller's call.
        """
        payload = {"op": "request"}
        payload.update(fields)
        delay = max(self.backoff_s, 1e-3)
        for _ in range(self.reconnect_retries):
            try:
                return self._roundtrip_with_backoff(payload)
            except ConnectionLostError:
                self.close()
                self._sleep(delay)
                delay = min(delay * 2, MAX_BACKOFF_S)
                self._connect()
        return self._roundtrip_with_backoff(payload)

    def batch(self, requests: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Serve many requests through one pool flush; order is preserved.

        Raises :class:`OverloadedError` when the server sheds the batch and
        the 429 retry budget is exhausted.
        """
        reply = self._roundtrip_with_backoff(
            {"op": "batch", "requests": list(requests)}
        )
        if not reply.get("ok"):
            if reply.get("code") == 429:
                raise OverloadedError(
                    f"batch shed: {reply.get('error')}",
                    retry_after_s=float(reply.get("retry_after_s") or 0.0),
                )
            raise ClientError(f"batch failed: {reply.get('error')}")
        return reply["responses"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to exit cleanly; returns its acknowledgement."""
        return self.roundtrip({"op": "shutdown"})


def spawn_server(
    extra_args: Optional[Sequence[str]] = None,
    startup_timeout: float = 60.0,
    expect_http: bool = False,
):
    """Start ``python -m repro.runtime.server`` and wait for its endpoint.

    Returns ``(process, host, port)``, or ``(process, host, port,
    http_host, http_port)`` with ``expect_http=True`` (the caller must then
    pass ``--http-port`` in ``extra_args``).  The caller owns the process
    and should drive a ``shutdown`` op (or kill it) when done.
    """
    command = [sys.executable, "-u", "-m", "repro.runtime.server", "--port", "0"]
    command += list(extra_args or [])
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # Only the tail of the child's stderr is kept, and it is drained for the
    # child's whole life so a chatty server never blocks on a full pipe.
    stderr_tail: "deque[str]" = deque(maxlen=20)
    drain = threading.Thread(
        target=stderr_tail.extend, args=(process.stderr,), daemon=True
    )
    drain.start()
    # readline() has no timeout of its own; a reader thread bounds the wait
    # so a server that hangs before announcing its endpoint fails fast.
    expected = [LISTENING_PREFIX] + ([HTTP_LISTENING_PREFIX] if expect_http else [])
    box: Dict[int, str] = {}

    def _read_endpoints() -> None:
        for index in range(len(expected)):
            box[index] = process.stdout.readline()

    reader = threading.Thread(target=_read_endpoints, daemon=True)
    reader.start()
    reader.join(startup_timeout)

    def _parse(index: int, prefix: str) -> Tuple[str, int]:
        line = box.get(index)
        if line is None or not line.startswith(prefix):
            process.kill()
            process.wait()
            drain.join(5.0)
            what = "timed out" if line is None else f"got {line!r}"
            said = "".join(stderr_tail).strip()
            raise ClientError(
                f"server failed to start ({what})"
                + (f"; its last stderr lines:\n{said}" if said else "")
            )
        host, _, port = line.removeprefix(prefix).strip().rpartition(":")
        return host, int(port)

    host, port = _parse(0, LISTENING_PREFIX)
    if not expect_http:
        return process, host, port
    http_host, http_port = _parse(1, HTTP_LISTENING_PREFIX)
    return process, host, port, http_host, http_port


#: The smoke's traffic: cheap apps, two shapes each, ten requests a batch.
SMOKE_APPS = ("hash-table", "search", "murmur3")
SMOKE_CHUNK = 10
#: Every smoke kills one worker; the pool must mask it.
SMOKE_FAULT_PLAN = '[{"kind": "kill", "worker": 0, "after_batches": 1}]'

_REQUIRED_FAMILIES = (
    "admission_admitted_total",
    "admission_shed_total",
    "engine_batches_total",
    "engine_cache_lookups_total",
    "engine_requests_total",
    "frontdoor_queue_wait_seconds_count",
    "frontdoor_request_seconds_count",
    "frontdoor_requests_total",
    "gateway_events_total",
    "pool_flush_seconds_count",
    "pool_flushes_total",
    "pool_replayed_batches_total",
    "pool_worker_restarts_total",
)


def _require(condition: bool, message: str) -> None:
    """One smoke check; unlike ``assert`` it still runs under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _http_json(
    connection, method: str, path: str, payload: Optional[Any] = None
) -> Tuple[int, Any]:
    """One stdlib ``http.client`` round-trip with a JSON body/reply."""
    body = None if payload is None else json.dumps(payload)
    connection.request(
        method, path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    raw = response.read()
    return response.status, json.loads(raw) if raw else None


def _metric_value(text: str, name: str) -> float:
    """Sum one family's sample values out of Prometheus text exposition."""
    total = 0.0
    found = False
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name) :]
        if rest[:1] not in (" ", "{"):
            continue  # a longer family name sharing this prefix
        found = True
        total += float(line.rsplit(" ", 1)[1])
    _require(found, f"metric family {name} missing from the exposition")
    return total


def _check_served(
    sent: List[Dict[str, Any]], served: List[Dict[str, Any]], where: str
) -> None:
    """Each response is ok and has a trace id iff its request asked for one."""
    _require(len(served) == len(sent), f"{where}: served {len(served)}/{len(sent)}")
    for request, response in zip(sent, served):
        _require(response.get("ok"), f"{where} served a bad response: {response}")
        if request.get("trace"):
            _require(response.get("trace", {}).get("trace_id"), f"{where}: no trace id")
        else:
            _require("trace" not in response, f"{where}: untraced response has a trace")


def _drive_ndjson(client: RuntimeClient, payloads: List[Dict[str, Any]]) -> int:
    """Batches of :data:`SMOKE_CHUNK`, every other request traced."""
    _require(client.ping().get("ok"), "ping failed")
    sent = [dict(p, trace=True) if i % 2 else p for i, p in enumerate(payloads)]
    served: List[Dict[str, Any]] = []
    for start in range(0, len(sent), SMOKE_CHUNK):
        served += client.batch(sent[start : start + SMOKE_CHUNK])
    _check_served(sent, served, "ndjson batch")
    return len(sent) // 2


def _drive_http(connection, payloads: List[Dict[str, Any]]) -> str:
    """healthz, one request, one batch, one chunked stream; then /metrics."""
    status, health = _http_json(connection, "GET", "/healthz")
    _require(status == 200 and health["ok"], f"/healthz failed: {health}")
    status, reply = _http_json(connection, "POST", "/v1/request", payloads[0])
    _require(status == 200, f"/v1/request status {status}")
    _check_served(payloads[:1], [reply], "/v1/request")
    group = payloads[:SMOKE_CHUNK]
    status, reply = _http_json(connection, "POST", "/v1/batch", {"requests": group})
    _require(status == 200 and reply["ok"], f"/v1/batch failed: {reply}")
    _check_served(group, reply["responses"], "/v1/batch")
    # Streaming: one response line per one-request flush.
    stream = payloads[:6]
    connection.request(
        "POST",
        "/v1/stream",
        body=json.dumps({"requests": stream, "chunk": 1}),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    _require(response.status == 200, f"/v1/stream status {response.status}")
    lines = [json.loads(line) for line in iter(response.readline, b"")]
    _check_served(stream, lines, "/v1/stream")
    connection.request("GET", "/metrics")
    response = connection.getresponse()
    text = response.read().decode("utf-8")
    _require(response.status == 200, f"/metrics status {response.status}")
    content_type = response.getheader("Content-Type", "")
    _require(content_type.startswith("text/plain; version=0.0.4"), content_type)
    return text


def _smoke(args: argparse.Namespace) -> int:
    """Spawn a two-door server with one injected kill; drive and cross-check.

    Any failed check raises; the server is then killed instead of shut
    down, and the exit code is non-zero.
    """
    from repro.runtime.trace import TraceConfig, synthetic_trace

    trace = TraceConfig(
        size=args.requests, apps=SMOKE_APPS, distinct_shapes=2, n_threads=2, seed=17
    )
    payloads = [request.to_dict() for request in synthetic_trace(trace)]
    process, host, port, http_host, http_port = spawn_server(
        ["--workers", str(args.workers), "--pool-mode", args.pool_mode]
        + ["--http-port", "0", "--fault-plan", SMOKE_FAULT_PLAN],
        expect_http=True,
    )
    try:
        with RuntimeClient(host, port, connect_retries=3) as client:
            traced = _drive_ndjson(client, payloads)
            connection = http.client.HTTPConnection(http_host, http_port, timeout=60)
            try:
                text = _drive_http(connection, payloads)
            finally:
                connection.close()
            metrics_reply = client.roundtrip({"op": "metrics"})
            _require(metrics_reply["ok"], f"metrics op failed: {metrics_reply}")
            for family in _REQUIRED_FAMILIES:
                _metric_value(text, family)
                _metric_value(metrics_reply["text"], family)
            stats = client.stats()
            _require(stats["ok"], f"stats op failed: {stats}")
            restarts = _metric_value(text, "pool_worker_restarts_total")
            faults = stats["pool"]["faults"]
            _require(
                restarts == faults["worker_restarts"] >= 1,
                f"{restarts} restarts on /metrics, stats say {faults}",
            )
            admission = stats["admission"]
            scraped = {
                "admitted": _metric_value(text, "admission_admitted_total"),
                "rejected": _metric_value(text, "admission_shed_total"),
            }
            _require(
                all(scraped[key] == admission[key] for key in scraped),
                f"admission on /metrics {scraped}, in stats {admission}",
            )
            slow = client.roundtrip({"op": "slow"})
            _require(slow["ok"] and slow["recorded"] > 0, f"slow op: {slow}")
            client.shutdown()
        returncode = process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if returncode != 0:
        print(f"smoke FAILED: server exited {returncode}", file=sys.stderr)
        return 1
    print(
        f"smoke ok: {len(payloads)} requests ({traced} traced) over "
        f"{args.pool_mode} pool ({args.workers} workers) and both doors, "
        f"{int(restarts)} masked restart(s), {len(_REQUIRED_FAMILIES)} metric "
        f"families consistent with stats, clean shutdown"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the client CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.client",
        description="Drive the runtime server: one-off requests or CI smoke.",
    )
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="spawn a two-door server with one injected worker kill, drive "
        "NDJSON and HTTP traffic through it, cross-check /metrics against "
        "stats, and require a clean shutdown",
    )
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--pool-mode", type=str, default="inline")
    parser.add_argument(
        "--app",
        type=str,
        default=None,
        help="serve one request against a running server",
    )
    parser.add_argument("--n-threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--retries-429",
        type=int,
        default=0,
        help="times to retry a shed (429) request, honoring the server's "
        "retry_after_s hint with bounded exponential backoff",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the client CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.smoke:
        return _smoke(args)
    if args.app is None:
        print("nothing to do: pass --smoke, or --port plus --app", file=sys.stderr)
        return 2
    with RuntimeClient(
        args.host, args.port, max_retries_429=args.retries_429
    ) as client:
        response = client.request(
            app=args.app,
            n_threads=args.n_threads,
            seed=args.seed,
        )
    print(json.dumps(response, indent=2))
    return 0 if response.get("ok") else 1


if __name__ == "__main__":
    raise SystemExit(main())
