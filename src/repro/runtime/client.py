"""Client for the runtime server's NDJSON protocol, plus the CI smoke drivers.

:class:`RuntimeClient` is the programmatic side of
:mod:`repro.runtime.server`: one TCP connection, one JSON object per line,
blocking round-trips — now with a connect timeout (and bounded connect
retries), a read timeout on every round-trip, and bounded exponential
backoff that honors the server's ``retry_after_s`` hint when the front
door sheds load with a 429 envelope.

``python -m repro.runtime.client --smoke`` is the end-to-end self-test CI
runs on every Python version: it spawns a server subprocess on a free
port, drives a synthetic trace through ``batch`` round-trips, checks every
response, and asserts the server shuts down cleanly (exit code 0) on the
``shutdown`` op.  ``--smoke-http`` does the same through the HTTP door:
plain requests, a chunked ``/v1/stream`` (asserting the first response
arrives before the last), and a deterministic 429 + ``Retry-After``
exercise against the admission budget.  ``--smoke-metrics`` is the
telemetry exercise: traced traffic over an injected worker fault, then a
``GET /metrics`` scrape cross-checked against ``/v1/stats``.

The client also keeps its own counters — round-trip latency quantiles,
reconnects, 429 sheds, and backoff time — exposed without a server
round-trip via :meth:`RuntimeClient.local_stats` (and folded into
:meth:`RuntimeClient.stats` under the ``"client"`` key).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.runtime.telemetry import Histogram

LISTENING_PREFIX = "runtime-server listening on "
HTTP_LISTENING_PREFIX = "runtime-server http listening on "


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
    ``max_backoff_s``) between attempts; 0 surfaces the envelope directly.
    ``reconnect_retries`` bounds how many times :meth:`request` reconnects
    and re-sends after the connection drops mid-round-trip (idempotent
    single requests only); 0 surfaces :class:`ConnectionLostError`.
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
        max_backoff_s: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries_429 = max_retries_429
        self.reconnect_retries = max(0, reconnect_retries)
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._sleep = sleep
        self._connect_timeout = connect_timeout
        self._connect_retries = max(0, connect_retries)
        # Client-side observability: load generators (and the future
        # autoscaler) read these via local_stats()/stats() without any
        # server round-trip of their own.
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, float] = {
            "roundtrips": 0,
            "errors": 0,
            "reconnects": 0,
            "sheds_429": 0,
            "backoff_sleeps": 0,
            "backoff_s_total": 0.0,
        }
        self._latency = Histogram(
            "client_roundtrip_seconds",
            "Client-observed round-trip wall clock (successful replies).",
        )
        self._connect()

    def _count(self, name: str, amount: float = 1.0) -> None:
        with self._stats_lock:
            self._counters[name] += amount

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
                    delay = min(delay * 2, self.max_backoff_s)
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
        started = time.perf_counter()
        try:
            self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
        except TimeoutError as error:
            # Timeouts are NOT connection loss: the request may still be
            # executing server-side, so no automatic retry.
            self._count("errors")
            raise ClientError(
                f"server round-trip failed after {self.timeout}s: {error}"
            )
        except OSError as error:
            self._count("errors")
            raise ConnectionLostError(f"connection lost mid-round-trip: {error}")
        if not line:
            self._count("errors")
            raise ConnectionLostError("server closed the connection")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as error:
            self._count("errors")
            raise ClientError(f"unreadable server reply: {error}")
        self._latency.observe(time.perf_counter() - started)
        self._count("roundtrips")
        return reply

    def _roundtrip_with_backoff(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Round-trip, retrying overload envelopes per the server's hint."""
        delay = max(self.backoff_s, 1e-3)
        reply = self.roundtrip(payload)
        for _ in range(self.max_retries_429):
            if reply.get("code") != 429:
                return reply
            self._count("sheds_429")
            hint = float(reply.get("retry_after_s") or 0.0)
            pause = min(max(hint, delay), self.max_backoff_s)
            self._count("backoff_sleeps")
            self._count("backoff_s_total", pause)
            self._sleep(pause)
            delay = min(delay * 2, self.max_backoff_s)
            reply = self.roundtrip(payload)
        if reply.get("code") == 429:
            self._count("sheds_429")
        return reply

    # -- protocol ops -------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Liveness round-trip; returns the server's version envelope."""
        return self.roundtrip({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        """Fetch served/shed counters and per-worker cache stats.

        The server's envelope is augmented with a ``"client"`` section —
        :meth:`local_stats` — so one call shows both sides of the wire.
        """
        reply = self.roundtrip({"op": "stats"})
        if isinstance(reply, dict):
            reply["client"] = self.local_stats()
        return reply

    def local_stats(self) -> Dict[str, Any]:
        """This client's own counters; no server round-trip involved.

        Round-trip latency quantiles come from the same log-spaced bucket
        histogram the server uses, so client- and server-side latency are
        directly comparable.
        """
        with self._stats_lock:
            counters = dict(self._counters)
        child = self._latency.snapshot_values().get((), None)
        count = child["count"] if child else 0
        mean = child["sum"] / count if count else 0.0
        return {
            "roundtrips": int(counters["roundtrips"]),
            "errors": int(counters["errors"]),
            "reconnects": int(counters["reconnects"]),
            "sheds_429": int(counters["sheds_429"]),
            "backoff_sleeps": int(counters["backoff_sleeps"]),
            "backoff_s_total": round(counters["backoff_s_total"], 6),
            "latency": {
                "count": count,
                "mean_s": round(mean, 6),
                "p50_s": round(self._latency.quantile(0.5), 6),
                "p95_s": round(self._latency.quantile(0.95), 6),
                "p99_s": round(self._latency.quantile(0.99), 6),
            },
        }

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
                delay = min(delay * 2, self.max_backoff_s)
                self._connect()
                self._count("reconnects")
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


@contextlib.contextmanager
def _smoke_server(
    args: argparse.Namespace,
    label: str,
    seed: int,
    extra_args: Sequence[str] = (),
    expect_http: bool = False,
) -> Iterator[tuple]:
    """Spawn a server for one smoke; yields ``(payloads, *endpoints)``.

    ``payloads`` is the smoke's synthetic trace and ``endpoints`` what
    :func:`spawn_server` returned after the process.  Leaving the block
    drives the ``shutdown`` op and requires exit code 0; a smoke that bails
    out early leaves behind a server that is killed instead.
    """
    from repro.runtime.trace import TraceConfig, synthetic_trace

    trace = TraceConfig(
        size=args.requests,
        apps=[name.strip() for name in args.apps.split(",") if name.strip()],
        distinct_shapes=2,
        n_threads=2,
        seed=seed,
    )
    payloads = [request.to_dict() for request in synthetic_trace(trace)]
    server_args = ["--workers", str(args.workers), "--pool-mode", args.pool_mode]
    server_args += extra_args
    process, *endpoints = spawn_server(server_args, expect_http=expect_http)
    try:
        yield (payloads, *endpoints)
        with RuntimeClient(endpoints[0], endpoints[1], connect_retries=3) as client:
            client.shutdown()
        returncode = process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
    if returncode != 0:
        # Exit status 1 with the message on stderr.
        raise SystemExit(f"{label} FAILED: server exited {returncode}")


def _smoke(args: argparse.Namespace) -> int:
    """Spawn a server, drive a trace through it, assert a clean shutdown."""
    # Chaos smoke: the server's pool must mask the injected faults — every
    # response below still has to come back ok.
    fault_args = ["--fault-plan", args.fault_plan] if args.fault_plan else []
    with _smoke_server(args, "smoke", 11, fault_args) as (payloads, host, port):
        with RuntimeClient(host, port, connect_retries=3) as client:
            assert client.ping().get("ok"), "ping failed"
            served: List[Dict[str, Any]] = []
            for start in range(0, len(payloads), args.chunk):
                served += client.batch(payloads[start : start + args.chunk])
            bad = [r for r in served if not r.get("ok")]
            if len(served) != len(payloads) or bad:
                print(
                    f"smoke FAILED: {len(bad)} bad of {len(served)} responses:"
                    f" {bad[:3]}",
                    file=sys.stderr,
                )
                return 1
            stats = client.stats()
            hit_rate = stats["pool"]["program_cache"]["hit_rate"]
    print(
        f"smoke ok: {len(served)} requests over {args.pool_mode} pool "
        f"({args.workers} workers, "
        f"program-cache hit rate {100 * hit_rate:.1f}%), clean shutdown"
    )
    return 0


def _http_json(
    connection, method: str, path: str, payload: Optional[Any] = None
) -> Tuple[int, Dict[str, str], Any]:
    """One stdlib ``http.client`` round-trip with a JSON body/reply."""
    body = None if payload is None else json.dumps(payload)
    connection.request(
        method, path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    headers = {k.lower(): v for k, v in response.getheaders()}
    raw = response.read()
    return response.status, headers, json.loads(raw) if raw else None


def _smoke_http(args: argparse.Namespace) -> int:
    """Spawn a server with both doors; mixed request/stream/429 exercise."""
    import http.client

    budget = 16
    door_args = ["--http-port", "0", "--max-inflight", str(budget)]
    with _smoke_server(args, "http smoke", 13, door_args, expect_http=True) as run:
        payloads, _, _, http_host, http_port = run
        connection = http.client.HTTPConnection(http_host, http_port, timeout=60)
        status, _, health = _http_json(connection, "GET", "/healthz")
        assert status == 200 and health["ok"], f"healthz failed: {health}"
        # Plain requests and a batch within the admission budget.
        status, _, reply = _http_json(connection, "POST", "/v1/request", payloads[0])
        assert status == 200 and reply["ok"], f"/v1/request failed: {reply}"
        chunk = min(args.chunk, budget)
        served = 0
        for start in range(0, len(payloads), chunk):
            status, _, reply = _http_json(
                connection,
                "POST",
                "/v1/batch",
                {"requests": payloads[start : start + chunk]},
            )
            assert status == 200 and reply["ok"], f"/v1/batch failed: {reply}"
            bad = [r for r in reply["responses"] if not r.get("ok")]
            assert not bad, f"batch served bad responses: {bad[:3]}"
            served += len(reply["responses"])
        # Streaming: responses must arrive incrementally (first before last).
        stream_n = min(6, len(payloads))
        connection.request(
            "POST",
            "/v1/stream",
            body=json.dumps({"requests": payloads[:stream_n], "chunk": 1}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200, f"/v1/stream status {response.status}"
        lines: List[Dict[str, Any]] = []
        while True:
            line = response.readline()
            if not line:
                break
            lines.append(json.loads(line))
        assert len(lines) == stream_n, f"streamed {len(lines)}/{stream_n}"
        assert all(r.get("ok") for r in lines), "streamed a bad response"
        # A batch beyond the fixed budget must shed with 429 + Retry-After.
        status, headers, reply = _http_json(
            connection,
            "POST",
            "/v1/batch",
            {"requests": [payloads[0]] * (budget + 8)},
        )
        assert status == 429, f"oversized batch got {status}, wanted 429"
        assert "retry-after" in headers, "429 without a Retry-After header"
        assert reply["code"] == 429 and reply["retry_after_s"] > 0
        status, _, stats = _http_json(connection, "GET", "/v1/stats")
        assert status == 200 and stats["admission"]["rejected"] >= budget + 8
        assert stats["gateway"]["streamed_responses"] >= stream_n
        connection.close()
    print(
        f"http smoke ok: {served} batched + {stream_n} streamed requests over "
        f"{args.pool_mode} pool ({args.workers} workers), 429 shed at "
        f"budget {budget}, clean shutdown"
    )
    return 0


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
    if not found:
        raise AssertionError(f"metric family {name} missing from /metrics")
    return total


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


def _smoke_metrics(args: argparse.Namespace) -> int:
    """Telemetry smoke: mixed + faulted traffic, then scrape and cross-check.

    Spawns a server with both doors and one injected worker kill, drives
    traced and untraced traffic plus a deliberate shed, then asserts (a)
    every required metric family is present on ``GET /metrics``, (b) counter
    values are consistent with ``/v1/stats``, (c) the NDJSON ``metrics``
    op renders the same families, and (d) ``/v1/slow`` retained spans.
    """
    import http.client

    budget = 16
    fault_plan = args.fault_plan or (
        '[{"kind": "kill", "worker": 0, "after_batches": 1}]'
    )
    door_args = ["--http-port", "0", "--max-inflight", str(budget)]
    door_args += ["--fault-plan", fault_plan]
    with _smoke_server(args, "metrics smoke", 17, door_args, expect_http=True) as run:
        payloads, host, port, http_host, http_port = run
        with RuntimeClient(host, port, connect_retries=3) as client:
            # Mixed traffic: every odd request opts into tracing.  The
            # injected kill fires mid-run and the pool must mask it.
            chunk = min(args.chunk, budget)
            served: List[Dict[str, Any]] = []
            for start in range(0, len(payloads), chunk):
                group = [
                    dict(p, trace=True) if i % 2 else dict(p)
                    for i, p in enumerate(payloads[start : start + chunk])
                ]
                served += client.batch(group)
            bad = [r for r in served if not r.get("ok")]
            assert not bad, f"faulted run served bad responses: {bad[:3]}"
            traced = [r for r in served if "trace" in r]
            untraced = [r for r in served if "trace" not in r]
            assert traced and all(r["trace"]["trace_id"] for r in traced)
            assert untraced, "untraced requests must not grow a trace field"
            # A batch beyond the budget must shed, so shed counters move.
            reply = client.roundtrip(
                {"op": "batch", "requests": [payloads[0]] * (budget + 8)}
            )
            assert reply.get("code") == 429, f"expected a shed, got {reply}"
            metrics_reply = client.roundtrip({"op": "metrics"})
            assert metrics_reply["ok"], f"metrics op failed: {metrics_reply}"
            ndjson_text = metrics_reply["text"]
            slow_reply = client.roundtrip({"op": "slow"})
            assert slow_reply["ok"] and slow_reply["recorded"] > 0
            connection = http.client.HTTPConnection(http_host, http_port, timeout=60)
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            content_type = response.getheader("Content-Type", "")
            text = response.read().decode("utf-8")
            assert response.status == 200, f"/metrics status {response.status}"
            assert content_type.startswith("text/plain; version=0.0.4")
            for family in _REQUIRED_FAMILIES:
                _metric_value(text, family)
                _metric_value(ndjson_text, family)
            status, _, stats = _http_json(connection, "GET", "/v1/stats")
            assert status == 200 and stats["ok"]
            restarts = _metric_value(text, "pool_worker_restarts_total")
            assert restarts == stats["pool"]["faults"]["worker_restarts"] >= 1
            assert _metric_value(text, "admission_shed_total") == (
                stats["admission"]["rejected"]
            )
            assert _metric_value(text, "admission_admitted_total") == (
                stats["admission"]["admitted"]
            )
            assert _metric_value(text, "frontdoor_requests_total") >= len(served)
            connection.close()
            local = client.local_stats()
            assert local["roundtrips"] >= len(payloads) // chunk
            assert local["latency"]["count"] == local["roundtrips"]
    print(
        f"metrics smoke ok: {len(served)} requests ({len(traced)} traced) over "
        f"{args.pool_mode} pool ({args.workers} workers), "
        f"{int(restarts)} masked restart(s), "
        f"{len(_REQUIRED_FAMILIES)} metric families scraped and consistent "
        f"with /v1/stats, clean shutdown"
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
        help="spawn a server subprocess and run the end-to-end self-test",
    )
    parser.add_argument(
        "--smoke-http",
        action="store_true",
        help="spawn a server with the HTTP door open and run the mixed "
        "request/stream/429 self-test",
    )
    parser.add_argument(
        "--smoke-metrics",
        action="store_true",
        help="spawn a two-door server with one injected worker fault, drive "
        "traced traffic, scrape /metrics, and cross-check it against "
        "/v1/stats",
    )
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument(
        "--chunk",
        type=int,
        default=10,
        help="requests per batch round-trip in smoke mode",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--pool-mode", type=str, default="inline")
    parser.add_argument("--apps", type=str, default="hash-table,search,murmur3")
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
    parser.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="smoke mode only: forward this fault plan to the spawned "
        "server; the pool must mask every injected fault for the smoke "
        "to pass",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the client CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.smoke:
        return _smoke(args)
    if args.smoke_http:
        return _smoke_http(args)
    if args.smoke_metrics:
        return _smoke_metrics(args)
    if args.app is None:
        print(
            "nothing to do: pass --smoke, --smoke-http, or --port plus --app",
            file=sys.stderr,
        )
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
