"""HTTP framing: protocol, streaming incrementality, backpressure parity."""

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.runtime.client import RuntimeClient
from repro.runtime.gateway.admission import (
    PROTOCOL_VERSION,
    AdmissionController,
    PoolService,
    iter_subbatches,
)
from repro.runtime.gateway.http import HttpHandler, encode_chunk, ndjson_line
from repro.runtime.pool import WorkerPool
from repro.runtime import server as server_module
from repro.runtime.server import RuntimeServer

from runtime_helpers import POLL_INTERVAL_S, listening, slow_workers


def gateway_count(server, kind):
    """One ``gateway_events_total{kind=}`` value of an HTTP listener."""
    return server.gateway_events.value(kind=kind)


def wait_for(condition, timeout=5.0):
    deadline = time.time() + timeout
    while not condition() and time.time() < deadline:
        time.sleep(0.01)
    return condition()


@pytest.fixture()
def gateway():
    """An HTTP listener over a fresh 2-worker inline pool."""
    with WorkerPool(workers=2, mode="inline") as pool:
        with listening(PoolService(pool), HttpHandler) as instance:
            yield instance


def http_json(gateway, method, path, payload=None, timeout=30.0):
    connection = http.client.HTTPConnection(
        *gateway.server_address[:2], timeout=timeout
    )
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        headers = {k.lower(): v for k, v in response.getheaders()}
        raw = response.read()
        return response.status, headers, json.loads(raw) if raw else None
    finally:
        connection.close()


class TestStreamingHelpers:
    def test_encode_chunk_frames(self):
        assert encode_chunk(b"hello") == b"5\r\nhello\r\n"
        assert encode_chunk(b"x" * 16).startswith(b"10\r\n")

    def test_ndjson_line(self):
        assert ndjson_line({"ok": True}) == b'{"ok": true}\n'

    def test_iter_subbatches(self):
        assert list(iter_subbatches([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
        assert list(iter_subbatches([], 3)) == []
        assert list(iter_subbatches([1, 2], 0)) == [[1], [2]]  # clamped to 1


class TestEndpoints:
    def test_healthz(self, gateway):
        status, _, payload = http_json(gateway, "GET", "/healthz")
        assert status == 200
        assert payload == {"ok": True, "version": PROTOCOL_VERSION,
                           "degraded": False, "recent_restarts": 0,
                           "worker_restarts": 0, "replayed_batches": 0}

    def test_single_request(self, gateway):
        status, _, payload = http_json(
            gateway, "POST", "/v1/request",
            {"app": "search", "n_threads": 2, "seed": 0},
        )
        assert status == 200
        assert payload["ok"] and payload["correct"]
        assert "backend" not in payload
        assert payload["outputs"] is not None

    def test_batch_preserves_order_and_isolates_bad_payloads(self, gateway):
        status, _, payload = http_json(
            gateway, "POST", "/v1/batch",
            {"requests": [
                {"app": "search", "n_threads": 2},
                {"app": "no-such-app"},
                {"bogus-field": 1},
                {"app": "murmur3", "n_threads": 2},
            ]},
        )
        assert status == 200 and payload["ok"]
        replies = payload["responses"]
        assert [r.get("ok") for r in replies] == [True, False, False, True]
        # Two programs, two batches.
        assert replies[0]["batch_id"] != replies[3]["batch_id"]
        assert "no-such-app" in replies[1]["error"]
        assert "bogus-field" in replies[2]["error"]

    def test_batch_accepts_a_bare_list(self, gateway):
        status, _, payload = http_json(
            gateway, "POST", "/v1/batch",
            [{"app": "search", "n_threads": 2}] * 2,
        )
        assert status == 200
        assert [r["ok"] for r in payload["responses"]] == [True, True]

    def test_stats_reports_service_and_gateway_state(self, gateway):
        http_json(gateway, "POST", "/v1/batch",
                  {"requests": [{"app": "search", "n_threads": 2}] * 4})
        status, _, stats = http_json(gateway, "GET", "/v1/stats")
        assert status == 200 and stats["ok"]
        assert stats["served"] == 4
        assert stats["version"] == PROTOCOL_VERSION
        assert len(stats["pool"]["workers"]) == 2
        assert stats["gateway"]["requests"] >= 2
        assert "queue_wait_p99_s" in stats

    def test_metrics_endpoint_serves_prometheus_text(self, gateway):
        http_json(gateway, "POST", "/v1/batch",
                  {"requests": [{"app": "search", "n_threads": 2}] * 3})
        connection = http.client.HTTPConnection(
            *gateway.server_address[:2], timeout=30.0
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            content_type = response.getheader("Content-Type", "")
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        assert response.status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "# TYPE frontdoor_requests_total counter" in text
        assert 'frontdoor_requests_total{endpoint="/v1/batch",status="ok"} 3' in text
        assert "gateway_events_total" in text

    def test_slow_endpoint_reports_spans(self, gateway):
        http_json(gateway, "POST", "/v1/request",
                  {"app": "search", "n_threads": 2, "trace": True})
        status, _, payload = http_json(gateway, "GET", "/v1/slow")
        assert status == 200 and payload["ok"]
        assert payload["recorded"] >= 1
        assert payload["slowest"][0]["endpoint"] == "/v1/request"

    def test_traced_http_request_carries_span(self, gateway):
        status, _, traced = http_json(
            gateway, "POST", "/v1/request",
            {"app": "search", "n_threads": 2, "trace": True},
        )
        assert status == 200 and traced["ok"]
        assert traced["trace"]["trace_id"]
        assert traced["trace"]["endpoint"] == "/v1/request"
        status, _, plain = http_json(
            gateway, "POST", "/v1/request", {"app": "search", "n_threads": 2}
        )
        assert status == 200 and "trace" not in plain

    def test_unknown_path_is_404(self, gateway):
        status, _, payload = http_json(gateway, "GET", "/nope")
        assert status == 404 and not payload["ok"]

    def test_wrong_method_is_405(self, gateway):
        status, _, payload = http_json(gateway, "GET", "/v1/request")
        assert status == 405 and "POST" in payload["error"]

    def test_bad_json_body_is_400(self, gateway):
        connection = http.client.HTTPConnection(
            *gateway.server_address[:2], timeout=30.0
        )
        try:
            connection.request("POST", "/v1/request", body="{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_oversized_body_is_413(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            with listening(PoolService(pool), HttpHandler) as gw:
                gw.max_body_bytes = 1024
                status, _, payload = http_json(
                    gw, "POST", "/v1/batch",
                    {"requests": [{"app": "search", "pad": "x" * 4096}]},
                )
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_keep_alive_serves_many_requests_on_one_connection(self, gateway):
        connection = http.client.HTTPConnection(
            *gateway.server_address[:2], timeout=30.0
        )
        try:
            for seed in range(3):
                connection.request(
                    "POST", "/v1/request",
                    body=json.dumps(
                        {"app": "search", "n_threads": 2, "seed": seed % 2}
                    ),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"]
        finally:
            connection.close()
        assert gateway_count(gateway, "connections") == 1


def read_chunked_ndjson(sock_file):
    """Read one chunked-transfer NDJSON body; yields (arrival_s, object)."""
    while True:
        size_line = sock_file.readline()
        size = int(size_line.strip(), 16)
        if size == 0:
            sock_file.readline()  # trailing CRLF
            return
        data = sock_file.read(size)
        sock_file.read(2)  # chunk CRLF
        yield time.perf_counter(), json.loads(data)


def raw_http_post(host, port, path, payload, timeout=30.0):
    """POST over a raw socket; returns (sock, file, status, headers)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    body = json.dumps(payload).encode("utf-8")
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body
    sock.sendall(request)
    handle = sock.makefile("rb")
    status_line = handle.readline().decode("ascii")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = handle.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return sock, handle, status, headers


def raw_exchange(address, request):
    """Send raw request bytes, half-close, read the raw response to EOF."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        return sock.makefile("rb").read()


class TestStreaming:
    def test_responses_arrive_incrementally(self, monkeypatch):
        """First streamed response lands before the batch completes."""
        delay = 0.03
        # Distinct seeds: a repeat would be answered by the dispatcher's
        # result tier without reaching a (slow) worker.
        requests = [{"app": "search", "n_threads": 2, "seed": s}
                    for s in range(5)]
        slow_workers(monkeypatch, delay)
        pool = WorkerPool(workers=2, mode="inline")
        with pool:
            with listening(PoolService(pool), HttpHandler) as gw:
                sock, handle, status, headers = raw_http_post(
                    *gw.server_address[:2], "/v1/stream",
                    {"requests": requests, "chunk": 1},
                )
                try:
                    assert status == 200
                    assert headers["transfer-encoding"] == "chunked"
                    assert headers["content-type"] == "application/x-ndjson"
                    arrivals = list(read_chunked_ndjson(handle))
                finally:
                    handle.close()
                    sock.close()
        assert len(arrivals) == len(requests)
        assert all(obj["ok"] for _, obj in arrivals)
        first_at, last_at = arrivals[0][0], arrivals[-1][0]
        # Each per-request flush sleeps `delay`, so a stream that only
        # flushed once would deliver everything in one burst; incremental
        # flushing spreads arrivals over >= (n-1) x delay.
        assert last_at - first_at >= 2 * delay

    def test_stream_sheds_oversized_subbatches_inline(self):
        requests = [{"app": "search", "n_threads": 2} for _ in range(4)]
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool, AdmissionController(max_inflight=1))
            with listening(service, HttpHandler) as gw:
                sock, handle, status, _ = raw_http_post(
                    *gw.server_address[:2], "/v1/stream",
                    {"requests": requests, "chunk": 2},
                )
                try:
                    assert status == 200
                    replies = [obj for _, obj in read_chunked_ndjson(handle)]
                finally:
                    handle.close()
                    sock.close()
        # Sub-batches of 2 exceed the budget of 1: every line is a 429
        # envelope with a retry hint, streamed rather than dropped.
        assert len(replies) == 4
        assert all(r["code"] == 429 for r in replies)
        assert all(r["retry_after_s"] > 0 for r in replies)

    def test_slow_reader_is_dropped_at_the_write_deadline(self, monkeypatch):
        """A client that never reads must not pin its handler thread."""
        monkeypatch.setattr(server_module, "WRITE_TIMEOUT_S", 0.3)
        requests = [{"app": "search", "n_threads": 2}] * 600
        with WorkerPool(workers=1, mode="inline") as pool:
            with listening(PoolService(pool), HttpHandler) as gw:
                # Accepted sockets inherit this, so a few dozen rows fill
                # the kernel's buffers instead of a few thousand.
                gw.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                baseline = threading.active_count()
                stalled = socket.socket()
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stalled.connect(gw.server_address[:2])
                try:
                    body = json.dumps({"requests": requests, "chunk": 64})
                    started = time.perf_counter()
                    stalled.sendall(
                        f"POST /v1/stream HTTP/1.1\r\nContent-Length: {len(body)}"
                        f"\r\n\r\n{body}".encode("ascii")
                    )
                    assert wait_for(
                        lambda: gateway_count(gw, "slow_readers_dropped") == 1
                    )
                    # Served a little, blocked, waited one deadline, dropped.
                    assert time.perf_counter() - started < 3.0
                    assert wait_for(lambda: threading.active_count() <= baseline)
                    assert gateway_count(gw, "streamed_responses") < len(requests)
                    # What the kernel had buffered arrives; the terminal chunk
                    # never does.
                    stalled.settimeout(5.0)
                    received = b""
                    try:
                        while data := stalled.recv(65536):
                            received += data
                    except ConnectionResetError:
                        pass
                    assert received.startswith(b"HTTP/1.1 200 OK\r\n")
                    assert not received.endswith(b"0\r\n\r\n")
                finally:
                    stalled.close()
                status, _, payload = http_json(gw, "GET", "/healthz")
                assert status == 200 and payload["ok"]

    def test_failure_after_the_headers_truncates_the_stream(self):
        """No 500 inside a chunked body: the client sees a clean truncation."""
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool)
            serve, calls = service.serve_payloads, []

            def fail_on_second_flush(payloads, endpoint):
                calls.append(endpoint)
                if len(calls) == 2:
                    raise RuntimeError("flush blew up")
                return serve(payloads, endpoint)

            service.serve_payloads = fail_on_second_flush
            with listening(service, HttpHandler) as gw:
                sock, handle, status, _ = raw_http_post(
                    *gw.server_address[:2], "/v1/stream",
                    {"requests": [{"app": "search", "n_threads": 2}] * 3},
                )
                try:
                    assert status == 200
                    rest = handle.read()  # EOF: the server closed on us
                finally:
                    handle.close()
                    sock.close()
                assert gateway_count(gw, "internal_errors") == 1
        first, _, tail = rest.partition(b"\r\n")
        assert json.loads(tail[: int(first, 16)])["ok"]  # one whole chunk...
        assert tail[int(first, 16):] == b"\r\n"  # ...then nothing, no "0" chunk

    def test_bad_chunk_value_is_400(self, gateway):
        status, _, payload = http_json(
            gateway, "POST", "/v1/stream",
            {"requests": [{"app": "search"}], "chunk": -1},
        )
        assert status == 400 and "chunk" in payload["error"]

    def test_boolean_chunk_is_400(self, gateway):
        # JSON true decodes to a Python bool, which is an int subclass.
        status, _, payload = http_json(
            gateway, "POST", "/v1/stream",
            {"requests": [{"app": "search"}], "chunk": True},
        )
        assert status == 400 and "chunk" in payload["error"]


class TestConnectionHygiene:
    def test_idle_connections_are_reaped(self, monkeypatch):
        monkeypatch.setattr(server_module, "CONN_TIMEOUT_S", 0.3)
        with WorkerPool(workers=1, mode="inline") as pool:
            with listening(PoolService(pool), HttpHandler) as gw:
                sock = socket.create_connection(
                    gw.server_address[:2], timeout=10.0
                )
                try:
                    sock.settimeout(5.0)
                    # Send nothing: the gateway must close on us.
                    assert sock.recv(1) == b""
                finally:
                    sock.close()
                assert wait_for(lambda: gateway_count(gw, "idle_reaped") >= 1)

    def test_http10_defaults_to_connection_close(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            with listening(PoolService(pool), HttpHandler) as gw:
                sock = socket.create_connection(
                    gw.server_address[:2], timeout=10.0
                )
                try:
                    sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                    sock.settimeout(5.0)
                    handle = sock.makefile("rb")
                    response = handle.read()  # EOF: the server closed on us
                finally:
                    sock.close()
        assert b" 200 " in response.split(b"\r\n", 1)[0]
        assert b"Connection: close" in response

    def test_internal_errors_answer_500_instead_of_dropping(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool)
            with listening(service, HttpHandler) as gw:
                def explode():
                    raise RuntimeError("stats blew up")

                service.stats_payload = explode
                status, _, payload = http_json(gw, "GET", "/v1/stats")
                assert status == 500
                assert "internal error" in payload["error"]
                assert gateway_count(gw, "internal_errors") == 1
                # The gateway survives: the next connection still serves.
                status, _, payload = http_json(gw, "GET", "/healthz")
                assert status == 200 and payload["ok"]

    @pytest.mark.parametrize("raw, detail", [
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", "header line too long"),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n",
         "too many headers"),
        (b"POST /v1/request HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
         "chunked request bodies"),
        (b"POST /v1/request HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
         "bad Content-Length"),
        (b"POST /v1/request HTTP/1.1\r\nContent-Length: 9\r\n\r\n{",
         "closed inside request body"),
    ], ids=["long-line", "many-headers", "chunked-body", "bad-length", "short-body"])
    def test_parser_bounds_are_400_and_close(self, gateway, raw, detail):
        response = raw_exchange(gateway.server_address[:2], raw)
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in response
        assert detail.encode("ascii") in response
        assert gateway_count(gateway, "bad_requests") == 1

    def test_concurrent_connections_lose_no_counts(self, gateway):
        """Handler threads share the event counters; none may drop an update."""
        clients, rounds = 8, 40
        failures = []

        def hammer():
            connection = http.client.HTTPConnection(
                *gateway.server_address[:2], timeout=30.0
            )
            try:
                for _ in range(rounds):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    response.read()
                    if response.status != 200:
                        failures.append(response.status)
            except OSError as error:
                failures.append(error)
            finally:
                connection.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert gateway_count(gateway, "connections") == clients
        assert gateway_count(gateway, "requests") == clients * rounds

    def test_healthz_answers_while_a_flush_holds_the_pool_lock(self, gateway):
        with gateway.service.pool_lock:
            status, _, payload = http_json(gateway, "GET", "/healthz", timeout=5.0)
        assert status == 200 and payload["ok"]

    def test_malformed_request_line_is_400_and_closes(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            with listening(PoolService(pool), HttpHandler) as gw:
                sock = socket.create_connection(
                    gw.server_address[:2], timeout=10.0
                )
                try:
                    sock.sendall(b"NOT-HTTP\r\n\r\n")
                    handle = sock.makefile("rb")
                    status_line = handle.readline().decode("ascii")
                    assert " 400 " in status_line
                    rest = handle.read()  # server closes after the error
                    assert b"malformed request line" in rest
                finally:
                    sock.close()


class TestFraming:
    """The exact header blocks, so framing cannot drift."""

    def test_200_header_block(self, gateway):
        response = raw_exchange(
            gateway.server_address[:2], b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head == (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n"
            b"Connection: keep-alive" % len(body)
        )
        assert body.endswith(b"\n") and json.loads(body)["ok"]

    def test_429_header_block(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool, AdmissionController(max_inflight=0))
            with listening(service, HttpHandler) as gw:
                response = raw_exchange(
                    gw.server_address[:2],
                    b"POST /v1/request HTTP/1.1\r\nContent-Length: 17\r\n\r\n"
                    b'{"app": "search"}',
                )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head == (
            b"HTTP/1.1 429 Too Many Requests\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n"
            b"Connection: keep-alive\r\n"
            b"Retry-After: 1" % len(body)
        )
        assert json.loads(body)["code"] == 429

    def test_stream_preamble(self, gateway):
        response = raw_exchange(
            gateway.server_address[:2],
            b"POST /v1/stream HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: 2\r\n\r\n[]",
        )
        assert response == (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
            b"0\r\n\r\n"
        )


#: Keys one door carries and the other does not (README, "Gateway").
PER_DOOR_KEYS = ("op", "version", "gateway", "requests")


class TestOpTableParity:
    """Both framings answer from PoolService's one table."""

    @pytest.mark.parametrize("op, path, payload", [
        ("request", "/v1/request", {"app": "search", "n_threads": 2}),
        ("batch", "/v1/batch",
         {"requests": [{"app": "search", "n_threads": 2}, {"app": "nope"}]}),
        ("stats", "/v1/stats", None),
        ("metrics", "/metrics", None),
        ("slow", "/v1/slow", None),
    ])
    def test_ndjson_and_http_decode_to_the_same_payload(self, op, path, payload):
        warm = {"app": "murmur3", "n_threads": 2}
        replies = {}
        # A fresh stack per door, driven identically: one warm-up request,
        # then the op under test.
        for door in ("ndjson", "http"):
            with WorkerPool(workers=2, mode="inline") as pool:
                service = PoolService(pool, AdmissionController(max_inflight=8))
                handler = HttpHandler if door == "http" else None
                with listening(service, handler) as server:
                    address = server.server_address[:2]
                    if door == "ndjson":
                        with RuntimeClient(*address, timeout=30.0) as client:
                            assert client.request(**warm)["ok"]
                            reply = client.roundtrip(dict(payload or {}, op=op))
                        if op == "metrics":
                            assert reply["content_type"] == "text/plain; version=0.0.4"
                            reply = reply["text"]
                    else:
                        assert http_json(server, "POST", "/v1/request", warm)[0] == 200
                        connection = http.client.HTTPConnection(*address, timeout=30.0)
                        try:
                            connection.request(
                                "POST" if payload else "GET", path,
                                body=json.dumps(payload) if payload else None,
                            )
                            reply = connection.getresponse().read().decode("utf-8")
                        finally:
                            connection.close()
                        if op != "metrics":
                            reply = json.loads(reply)
            replies[door] = reply
        if op == "metrics":
            assert self.families(replies["ndjson"]) == self.families(replies["http"])
        else:
            assert self.neutral(replies["ndjson"]) == self.neutral(replies["http"])

    @staticmethod
    def neutral(value):
        """Drop the per-door keys and the measured durations, recursively."""
        if isinstance(value, list):
            return [TestOpTableParity.neutral(item) for item in value]
        if not isinstance(value, dict):
            return value
        return {
            key: TestOpTableParity.neutral(item)
            for key, item in value.items()
            if key not in PER_DOOR_KEYS
            and key != "endpoint"  # the door's own name for the op, by design
            and not key.endswith(("_s", "_rps"))
        }

    @staticmethod
    def families(text):
        """The exposition's sample names and label sets, values dropped."""
        return [
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            # `endpoint` is the door's own name for the op; only an HTTP
            # listener registers the gateway family.
            if "endpoint=" not in line and "gateway_events_total" not in line
        ]


class TestBackpressureParity:
    """Both front-ends share one controller and shed identically."""

    def test_ndjson_and_http_shed_from_one_budget(self):
        controller = AdmissionController(max_inflight=0)
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool, controller)
            doors = [
                RuntimeServer(("127.0.0.1", 0), service=service, handler=handler)
                for handler in (None, HttpHandler)
            ]
            # The `shutdown` op must stop both accept loops by itself, so
            # this test keeps their threads (polling as `listening` does).
            threads = [
                threading.Thread(
                    target=door.serve_forever,
                    kwargs={"poll_interval": POLL_INTERVAL_S},
                    daemon=True,
                )
                for door in doors
            ]
            for thread in threads:
                thread.start()
            try:
                status, headers, http_reply = http_json(
                    doors[1], "POST", "/v1/request",
                    {"app": "search", "n_threads": 2},
                )
                host, port = doors[0].server_address[:2]
                with RuntimeClient(host, port, timeout=30.0) as client:
                    tcp_reply = client.request(app="search", n_threads=2)
                    # One `shutdown` op stops both accept loops.
                    assert client.shutdown() == {"ok": True, "op": "shutdown"}
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                for door in doors:
                    door.shutdown()
                    door.server_close()
        assert status == 429
        assert "retry-after" in headers
        assert http_reply["code"] == 429
        assert tcp_reply["code"] == 429
        assert tcp_reply["retry_after_s"] > 0
        # One shared service counted both front doors' rejections.
        assert service.stats_payload()["admission"]["rejected"] == 2
