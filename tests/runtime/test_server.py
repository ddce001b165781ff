"""Socket server + client: protocol round-trips over a real TCP connection."""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.runtime.client import ClientError, RuntimeClient
from repro.runtime.engine import EngineError, Request
from repro.runtime.gateway.admission import PROTOCOL_VERSION, PoolService
from repro.runtime.gateway.http import HttpHandler
from repro.runtime.pool import WorkerPool
from repro.runtime.server import RuntimeServer, build_parser


@pytest.fixture()
def server():
    pool = WorkerPool(workers=2, mode="inline")
    with pool:
        instance = RuntimeServer(("127.0.0.1", 0), pool)
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        try:
            yield instance
        finally:
            instance.shutdown()
            instance.server_close()
            thread.join(timeout=10)


def connect(server):
    host, port = server.server_address[:2]
    return RuntimeClient(host, port, timeout=30.0)


class TestWireFormat:
    def test_request_round_trips(self):
        request = Request(app="strlen", n_threads=4, seed=3, function="main2")
        assert Request.from_dict(request.to_dict()) == request

    def test_unknown_fields_rejected(self):
        with pytest.raises(EngineError):
            Request.from_dict({"app": "strlen", "bogus": 1})

    def test_staged_memory_is_not_serializable(self):
        from repro.core.memory import MemorySystem

        request = Request(source="void main() {}", memory=MemorySystem())
        with pytest.raises(EngineError):
            request.to_dict()


class TestProtocol:
    def test_ping(self, server):
        with connect(server) as client:
            reply = client.ping()
        assert reply == {"ok": True, "op": "ping", "version": PROTOCOL_VERSION}

    def test_single_request(self, server):
        with connect(server) as client:
            reply = client.request(app="search", n_threads=2, seed=0)
        assert reply["ok"] and reply["correct"]
        assert "backend" not in reply
        assert reply["outputs"] is not None

    def test_bare_request_object_defaults_to_request_op(self, server):
        with connect(server) as client:
            reply = client.roundtrip({"app": "search", "n_threads": 2})
        assert reply["ok"]

    def test_batch_preserves_order_and_isolates_bad_payloads(self, server):
        with connect(server) as client:
            replies = client.batch([
                {"app": "search", "n_threads": 2},
                {"app": "no-such-app"},
                {"bogus-field": 1},
                {"app": "murmur3", "n_threads": 2},
            ])
        assert [r.get("ok") for r in replies] == [True, False, False, True]
        # Two programs, two batches.
        assert replies[0]["batch_id"] != replies[3]["batch_id"]
        assert "no-such-app" in replies[1]["error"]
        assert "bogus-field" in replies[2]["error"]

    def test_stats_reports_pool_state(self, server):
        with connect(server) as client:
            client.batch([{"app": "search", "n_threads": 2}] * 4)
            stats = client.stats()
        assert stats["ok"] and stats["served"] == 4
        assert stats["pool"]["mode"] == "inline" and "policy" not in stats["pool"]
        assert len(stats["pool"]["workers"]) == 2

    def test_stats_reply_is_the_servers_envelope(self, server):
        with connect(server) as client:
            stats = client.stats()
            raw = client.roundtrip({"op": "stats"})
        # The client adds nothing of its own: same keys as the raw reply.
        assert "client" not in stats
        assert set(stats) == set(raw)
        assert stats["pool"]["mode"] == raw["pool"]["mode"] == "inline"

    def test_metrics_op_returns_prometheus_text(self, server):
        with connect(server) as client:
            client.batch([{"app": "search", "n_threads": 2}] * 3)
            reply = client.roundtrip({"op": "metrics"})
        assert reply["ok"] and reply["op"] == "metrics"
        assert reply["content_type"].startswith("text/plain; version=0.0.4")
        assert "# TYPE engine_requests_total counter" in reply["text"]
        assert "pool_flushes_total" in reply["text"]

    def test_slow_op_returns_slowest_requests(self, server):
        with connect(server) as client:
            client.batch([{"app": "search", "n_threads": 2}] * 3)
            reply = client.roundtrip({"op": "slow"})
        assert reply["ok"] and reply["op"] == "slow"
        assert reply["recorded"] >= 1
        assert reply["slowest"][0]["endpoint"] == "batch"

    def test_traced_request_carries_span(self, server):
        with connect(server) as client:
            traced = client.request(app="search", n_threads=2, trace=True)
            plain = client.request(app="search", n_threads=2)
        assert traced["ok"] and traced["trace"]["trace_id"]
        assert traced["trace"]["endpoint"] == "request"
        assert "trace" not in plain

    def test_malformed_lines_get_error_envelopes(self, server):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30.0) as raw:
            handle = raw.makefile("rwb")
            handle.write(b"this is not json\n[1, 2]\n")
            handle.flush()
            first = json.loads(handle.readline())
            second = json.loads(handle.readline())
        assert not first["ok"] and "bad JSON" in first["error"]
        assert not second["ok"] and "JSON object" in second["error"]

    def test_unknown_op_rejected(self, server):
        with connect(server) as client:
            reply = client.roundtrip({"op": "dance"})
        assert not reply["ok"] and "unknown op" in reply["error"]

    @pytest.mark.parametrize("op", [[], {"a": 1}, None, 7])
    def test_non_string_op_is_unknown_and_the_connection_keeps_serving(
        self, server, op
    ):
        """`op` becomes a dictionary key; what cannot be one is just unknown."""
        with connect(server) as client:
            reply = client.roundtrip({"op": op})
            assert reply == {"ok": False, "error": f"unknown op '{op}'"}
            assert client.ping()["ok"]

    def test_two_connections_share_one_pool(self, server):
        with connect(server) as first, connect(server) as second:
            first.batch([{"app": "search", "n_threads": 2}] * 2)
            second.batch([{"app": "search", "n_threads": 2}] * 2)
            stats = second.stats()
        assert stats["served"] == 4

    def test_pool_failure_gets_error_envelope_and_stops_server(self):
        # max_worker_restarts=0 turns off self-healing, so one killed worker
        # is an unrecoverable pool death — the shutdown path under test.
        pool = WorkerPool(workers=2, mode="process", max_worker_restarts=0)
        with pool:
            service = PoolService(pool)
            instance = RuntimeServer(("127.0.0.1", 0), service=service)
            http = RuntimeServer(
                ("127.0.0.1", 0), service=service, handler=HttpHandler
            )
            threads = [
                threading.Thread(target=door.serve_forever, daemon=True)
                for door in (instance, http)
            ]
            for thread in threads:
                thread.start()
            try:
                with connect(instance) as client:
                    assert client.request(app="search", n_threads=2)["ok"]
                    pool._workers[0].process.kill()
                    pool._workers[0].process.join()
                    replies = [
                        client.request(app="search", n_threads=2, seed=s)
                        for s in range(2)
                    ]
                # Every request of the failing flush is answered, not dropped,
                # and both accept loops exit so a supervisor can restart us.
                assert any("worker pool failed" in (r.get("error") or "")
                           for r in replies)
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
            finally:
                for door in (instance, http):
                    door.shutdown()
                    door.server_close()

    def test_client_error_on_closed_server(self, server):
        host, port = server.server_address[:2]
        server.shutdown()
        server.server_close()
        with pytest.raises(ClientError):
            RuntimeClient(host, port, timeout=5.0, connect_timeout=5.0).ping()


#: Wrong-typed wire fields.  Each once raised inside the dispatcher's
#: coalesce, stayed queued, and closed every later client's connection.
POISON = [
    {"app": ["search"]},
    {"app": {"name": "search"}},
    {"app": "search", "options": {"verify_each": [1]}},
    {"source": ["x"]},
    {"app": "search", "n_threads": 0},
    {"app": "search", "n_threads": "8"},
]


class TestPoisonPayloads:
    """One malformed request is one error envelope, on either door."""

    GOOD = {"app": "search", "n_threads": 2}

    @pytest.fixture()
    def doors(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool)
            ndjson = RuntimeServer(("127.0.0.1", 0), service=service)
            http = RuntimeServer(
                ("127.0.0.1", 0), service=service, handler=HttpHandler
            )
            threads = [
                threading.Thread(target=door.serve_forever, daemon=True)
                for door in (ndjson, http)
            ]
            for thread in threads:
                thread.start()
            try:
                yield ndjson, http
            finally:
                for door, thread in zip((ndjson, http), threads):
                    door.shutdown()
                    door.server_close()
                    thread.join(timeout=10)

    @staticmethod
    def post(http, path, body):
        connection = HTTPConnection(*http.server_address[:2], timeout=30.0)
        try:
            connection.request("POST", path, body=json.dumps(body))
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    @pytest.mark.parametrize("poison", POISON, ids=json.dumps)
    def test_ndjson_answers_an_envelope_and_keeps_serving(self, doors, poison):
        ndjson, http = doors
        with connect(ndjson) as client:
            reply = client.roundtrip(dict(poison, op="request"))
            assert reply["ok"] is False and "must be" in reply["error"]
            mixed = client.roundtrip(
                {"op": "batch", "requests": [self.GOOD, poison]}
            )["responses"]
            assert [r["ok"] for r in mixed] == [True, False]
        # A new connection, and the other door, are answered as well.
        with connect(ndjson) as client:
            assert client.request(**self.GOOD)["ok"]
        assert self.post(http, "/v1/request", self.GOOD)[1]["ok"]

    @pytest.mark.parametrize("poison", POISON, ids=json.dumps)
    def test_http_answers_an_envelope_and_keeps_serving(self, doors, poison):
        ndjson, http = doors
        status, reply = self.post(http, "/v1/request", poison)
        assert status == 200
        assert reply["ok"] is False and "must be" in reply["error"]
        status, body = self.post(http, "/v1/batch", [poison, self.GOOD])
        assert status == 200
        assert [r["ok"] for r in body["responses"]] == [False, True]
        assert self.post(http, "/v1/request", self.GOOD)[1]["ok"]
        with connect(ndjson) as client:
            assert client.request(**self.GOOD)["ok"]


    def test_naming_a_backend_is_refused_on_both_doors(self, doors):
        """The stack serves one target: 'backend' is an unknown field."""
        ndjson, http = doors
        named = {"app": "search", "backend": "vrda"}
        refusal = "unknown request fields ['backend']"
        with connect(ndjson) as client:
            reply = client.roundtrip(dict(named, op="request"))
            assert reply["ok"] is False and refusal in reply["error"]
        status, reply = self.post(http, "/v1/request", named)
        assert status == 200
        assert reply["ok"] is False and refusal in reply["error"]
        # A well-formed request on a new connection is then served.
        with connect(ndjson) as client:
            served = client.request(**self.GOOD)
        assert served["ok"] and "backend" not in served
        assert self.post(http, "/v1/request", self.GOOD)[1]["ok"]


class TestSpawn:
    def test_failed_start_reports_the_childs_stderr(self):
        from repro.runtime.client import spawn_server

        with pytest.raises(ClientError) as excinfo:
            spawn_server(["--pool-mode", "no-such-mode"], startup_timeout=30.0)
        assert "server failed to start" in str(excinfo.value)
        assert "invalid choice: 'no-such-mode'" in str(excinfo.value)

    def test_smoke_passes_against_a_spawned_server(self):
        from repro.runtime import client

        argv = ["--smoke", "--requests", "12", "--workers", "2",
                "--pool-mode", "inline"]
        assert client.main(argv) == 0


class TestConnectionTimeouts:
    @pytest.mark.parametrize("write_timeout",
                             [0.0, -1.0, float("inf"), float("nan")])
    def test_non_positive_write_timeout_is_refused(self, write_timeout):
        with WorkerPool(workers=1, mode="inline") as pool:
            with pytest.raises(ValueError, match="write_timeout"):
                RuntimeServer(("127.0.0.1", 0), pool, handler=HttpHandler,
                              write_timeout=write_timeout)

    @pytest.mark.parametrize("flag, value", [
        (flag, value)
        for flag in ("--restart-window", "--headroom", "--write-timeout")
        for value in ("0", "-1", "nan", "inf")
    ] + [("--conn-timeout", "nan"), ("--conn-timeout", "inf")])
    def test_cli_refuses_a_duration_it_cannot_use(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cli_non_positive_conn_timeout_still_disables_reaping(self, value):
        args = build_parser().parse_args(["--conn-timeout", value])
        assert args.conn_timeout == float(value)

    def test_hung_client_is_reaped_and_leaks_no_handler_thread(self):
        """A client that connects and never writes must not pin a thread."""
        pool = WorkerPool(workers=1, mode="inline")
        with pool:
            instance = RuntimeServer(("127.0.0.1", 0), pool, conn_timeout=0.3)
            thread = threading.Thread(target=instance.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = instance.server_address[:2]
                baseline = threading.active_count()
                hung = socket.create_connection((host, port), timeout=10.0)
                try:
                    hung.settimeout(5.0)
                    # The server reaps us after conn_timeout: EOF, no reply.
                    assert hung.recv(1) == b""
                finally:
                    hung.close()
                deadline = time.time() + 5.0
                while threading.active_count() > baseline and time.time() < deadline:
                    time.sleep(0.02)
                assert threading.active_count() <= baseline
                # The server still serves fresh connections afterwards.
                with RuntimeClient(host, port, timeout=30.0) as client:
                    assert client.ping()["ok"]
            finally:
                instance.shutdown()
                instance.server_close()
                thread.join(timeout=10)

    def test_half_written_line_is_also_reaped(self):
        pool = WorkerPool(workers=1, mode="inline")
        with pool:
            instance = RuntimeServer(("127.0.0.1", 0), pool, conn_timeout=0.3)
            thread = threading.Thread(target=instance.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = instance.server_address[:2]
                hung = socket.create_connection((host, port), timeout=10.0)
                try:
                    hung.sendall(b'{"op": "ping"')  # no newline, ever
                    hung.settimeout(5.0)
                    assert hung.recv(1) == b""
                finally:
                    hung.close()
            finally:
                instance.shutdown()
                instance.server_close()
                thread.join(timeout=10)


    def test_oversized_line_is_refused_not_buffered(self):
        """A newline-less line past the body limit: one envelope, then close."""
        pool = WorkerPool(workers=1, mode="inline")
        with pool:
            instance = RuntimeServer(("127.0.0.1", 0), pool, conn_timeout=10.0)
            thread = threading.Thread(target=instance.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = instance.server_address[:2]
                baseline = threading.active_count()
                flood = socket.create_connection((host, port), timeout=10.0)
                try:
                    try:
                        flood.sendall(b"x" * (5 * 1024 * 1024))
                    except OSError:
                        pass  # the server may close before the last byte lands
                    handle = flood.makefile("rb")
                    reply = json.loads(handle.readline())
                    limit = RuntimeServer.max_body_bytes
                    assert reply == {
                        "ok": False,
                        "error": f"line exceeds the {limit}-byte limit",
                    }
                    try:
                        assert handle.read() == b""  # closed, nothing more
                    except OSError:
                        pass  # reset: the unread tail of the line was dropped
                finally:
                    flood.close()
                deadline = time.time() + 5.0
                while threading.active_count() > baseline and time.time() < deadline:
                    time.sleep(0.02)
                assert threading.active_count() <= baseline
                with RuntimeClient(host, port, timeout=30.0) as client:
                    assert client.ping()["ok"]
            finally:
                instance.shutdown()
                instance.server_close()
                thread.join(timeout=10)


class TestBackpressure:
    def make_server(self, controller):
        pool = WorkerPool(workers=2, mode="inline")
        service = PoolService(pool, controller)
        instance = RuntimeServer(("127.0.0.1", 0), service=service)
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        return pool, instance, thread

    def teardown_server(self, pool, instance, thread):
        instance.shutdown()
        instance.server_close()
        thread.join(timeout=10)
        pool.close()

    def test_shed_single_request_gets_429_envelope(self):
        from repro.runtime.gateway.admission import AdmissionController

        controller = AdmissionController(max_inflight=0)
        pool, instance, thread = self.make_server(controller)
        try:
            with connect(instance) as client:
                reply = client.request(app="search", n_threads=2)
        finally:
            self.teardown_server(pool, instance, thread)
        assert not reply["ok"]
        assert reply["code"] == 429
        assert reply["retry_after_s"] > 0

    def test_shed_batch_gets_top_level_429_and_client_raises(self):
        from repro.runtime.client import OverloadedError
        from repro.runtime.gateway.admission import AdmissionController

        controller = AdmissionController(max_inflight=0)
        pool, instance, thread = self.make_server(controller)
        try:
            with connect(instance) as client:
                with pytest.raises(OverloadedError) as excinfo:
                    client.batch([{"app": "search", "n_threads": 2}] * 3)
        finally:
            self.teardown_server(pool, instance, thread)
        assert excinfo.value.retry_after_s > 0

    def test_client_backoff_honors_retry_after_and_recovers(self):
        """Retries sleep the server's hint; succeed once capacity frees."""
        from repro.runtime.gateway.admission import AdmissionController

        controller = AdmissionController(max_inflight=1)
        assert controller.try_acquire(1).admitted  # budget fully occupied
        pool, instance, thread = self.make_server(controller)
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            controller.release(1)  # capacity opens up before the retry

        try:
            host, port = instance.server_address[:2]
            with RuntimeClient(
                host, port, timeout=30.0,
                max_retries_429=3, sleep=fake_sleep,
            ) as client:
                reply = client.request(app="search", n_threads=2)
        finally:
            self.teardown_server(pool, instance, thread)
        assert reply["ok"]
        assert len(sleeps) == 1  # one shed round-trip, then success
        assert sleeps[0] > 0

    def test_batch_over_the_derived_budget_is_retried_then_served(self):
        """Shed while another call holds tokens; admitted once the pool idles."""
        from repro.runtime.gateway.admission import AdmissionController

        controller = AdmissionController(headroom=0.02)  # cold budget: 2
        assert controller.try_acquire(1).admitted  # another call in flight
        pool, instance, thread = self.make_server(controller)
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            controller.release(1)  # the other call completes

        try:
            host, port = instance.server_address[:2]
            with RuntimeClient(
                host, port, timeout=30.0,
                max_retries_429=5, sleep=fake_sleep,
            ) as client:
                replies = client.batch([{"app": "search", "n_threads": 2}] * 5)
        finally:
            self.teardown_server(pool, instance, thread)
        assert [r["ok"] for r in replies] == [True] * 5
        assert len(sleeps) == 1  # shed once (5 > limit 2), then served
        admission = instance.service.stats_payload()["admission"]
        assert (admission["rejected"], admission["admitted"]) == (5, 5)

    def test_retry_budget_exhaustion_surfaces_the_envelope(self):
        from repro.runtime.gateway.admission import AdmissionController

        controller = AdmissionController(max_inflight=1)
        assert controller.try_acquire(1).admitted  # held for the whole test
        pool, instance, thread = self.make_server(controller)
        sleeps = []
        try:
            host, port = instance.server_address[:2]
            with RuntimeClient(
                host, port, timeout=30.0,
                max_retries_429=2, sleep=sleeps.append,
            ) as client:
                reply = client.request(app="search", n_threads=2)
        finally:
            self.teardown_server(pool, instance, thread)
        assert reply["code"] == 429
        assert len(sleeps) == 2  # bounded: exactly the retry budget
        assert instance.service.stats_payload()["shed"] == 3
