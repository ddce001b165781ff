"""Chaos suite: fault plans, the self-healing recovery matrix, degradation.

The contract under test (see ``docs/operations.md``): an injected or real
worker loss is *masked* — the pool respawns the worker, replays its batches
onto the pool within the same flush, and the responses stay byte-identical
(PAYLOAD_FIELDS) to a fault-free run; repeated loss trips the circuit
breaker, which closes the pool and (through ``PoolService``) shuts the
server down cleanly.
"""

import json
import socket
import threading
import time

import pytest

from repro.runtime.client import ConnectionLostError, RuntimeClient
from repro.runtime.faults import (
    Fault,
    FaultPlan,
    FaultPlanError,
    load_fault_plan,
)
from repro.runtime import pool as pool_module
from repro.runtime.gateway.admission import PoolService
from repro.runtime.pool import PoolError, WorkerPool
from repro.runtime.trace import TraceConfig, synthetic_trace

from runtime_helpers import pool_stats

#: Mirrors tests/runtime/test_pool.py: the fields that must be bit-identical
#: however (and through however many respawns) the trace is executed.
PAYLOAD_FIELDS = ("request_id", "app", "ok", "error", "outputs",
                  "correct", "modeled_gbs", "modeled_runtime_s", "batch_id")

TRACE = TraceConfig(size=16, apps=["hash-table", "search"],
                    distinct_shapes=2, n_threads=2, seed=7)


def payload(response):
    return tuple(getattr(response, name) for name in PAYLOAD_FIELDS)


def payloads(report):
    return [payload(r) for r in report.responses]


def fault_free(mode="inline", **kwargs):
    """The reference run the faulted pools must match byte-for-byte."""
    with WorkerPool(workers=2, mode=mode, **kwargs) as pool:
        return payloads(pool.process(synthetic_trace(TRACE)))


class TestFaultPlanParsing:
    def test_round_trips_through_json(self):
        plan = FaultPlan.from_json(
            '[{"kind": "kill", "worker": 1, "after_batches": 2},'
            ' {"kind": "hang", "worker": 0, "delay_s": 0.5, "repeat": true}]'
        )
        assert len(plan.faults) == 2
        assert plan.faults[0] == Fault(kind="kill", worker=1, after_batches=2)
        assert FaultPlan.from_spec(plan.to_dict()) == plan

    def test_envelope_form_accepted(self):
        plan = FaultPlan.from_spec({"faults": [{"kind": "kill", "worker": 0}]})
        assert plan.faults[0].kind == "kill"

    def test_rejects_unknown_kind_and_fields(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec([{"kind": "explode", "worker": 0}])
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec([{"kind": "kill", "worker": 0, "when": "now"}])
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec([{"kind": "kill"}])  # no worker
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec([{"kind": "kill", "worker": -1}])
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")

    def test_load_fault_plan_inline_file_and_empty(self, tmp_path):
        assert load_fault_plan(None) is None
        assert load_fault_plan("  ") is None
        assert load_fault_plan("[]") is None
        inline = load_fault_plan('[{"kind": "kill", "worker": 0}]')
        assert inline.faults[0].worker == 0
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"kind": "hang", "worker": 1}]}')
        from_file = load_fault_plan(f"@{path}")
        assert from_file.faults[0].kind == "hang"
        with pytest.raises(FaultPlanError):
            load_fault_plan(f"@{tmp_path / 'missing.json'}")

    def test_respawn_plan_strips_consumed_one_shots(self):
        plan = FaultPlan.from_spec([
            {"kind": "kill", "worker": 0},
            {"kind": "kill", "worker": 0, "repeat": True},
            {"kind": "kill", "worker": 1},
        ])
        respawned = plan.respawn_plan(0)
        assert [(f.kind, f.worker, f.repeat) for f in respawned.faults] == \
            [("kill", 0, True), ("kill", 1, False)]
        # A plan that empties out becomes None so the injector is skipped.
        assert FaultPlan.from_spec(
            [{"kind": "kill", "worker": 0}]
        ).respawn_plan(0) is None

    def test_pool_rejects_out_of_range_worker(self):
        plan = FaultPlan.from_spec([{"kind": "kill", "worker": 7}])
        with pytest.raises(PoolError):
            WorkerPool(workers=2, fault_plan=plan)


class TestInlineRecoveryMatrix:
    """The deterministic (inline) arm: every fault path, no processes."""

    def _plan(self, **fields):
        return FaultPlan.from_spec([{"kind": "kill", "worker": 0, **fields}])

    def test_kill_before_first_batch_is_masked(self):
        reference = fault_free()
        with WorkerPool(workers=2, mode="inline",
                        fault_plan=self._plan(after_batches=0)) as pool:
            report = pool.process(synthetic_trace(TRACE))
        assert payloads(report) == reference
        assert pool.restarts.value() == 1
        assert pool.replays.value() >= 1

    def test_kill_mid_flush_is_masked_byte_identically(self):
        reference = fault_free()
        with WorkerPool(workers=2, mode="inline",
                        fault_plan=self._plan(after_batches=1)) as pool:
            report = pool.process(synthetic_trace(TRACE))
        assert payloads(report) == reference
        assert pool.restarts.value() == 1
        assert pool.recent_restarts() == 1

    def test_respawned_worker_keeps_serving_later_flushes(self):
        with WorkerPool(workers=2, mode="inline",
                        fault_plan=self._plan(after_batches=1)) as pool:
            pool.process(synthetic_trace(TRACE))
            assert pool.restarts.value() == 1
            second = pool.process(synthetic_trace(TRACE))
        # The one-shot fault was consumed by the respawn: the next flush is
        # fault-free and fully served.
        assert pool.restarts.value() == 1
        assert all(r.error is None for r in second.responses)

    def test_fault_counters_surface_in_report_and_stats(self):
        with WorkerPool(workers=2, mode="inline",
                        fault_plan=self._plan(after_batches=1)) as pool:
            pool.process(synthetic_trace(TRACE))
            stats = pool_stats(pool)
        assert pool.restarts.value() == 1
        assert pool.replays.value() >= 1
        assert stats["faults"]["replayed_batches"] == pool.replays.value()
        assert stats["faults"]["worker_restarts"] == 1
        assert stats["faults"]["recent_restarts"] == 1
        assert stats["faults"]["max_worker_restarts"] == 5

    def test_circuit_breaker_trips_on_repeated_loss(self):
        plan = FaultPlan.from_spec(
            [{"kind": "kill", "worker": 0, "repeat": True}]
        )
        pool = WorkerPool(workers=1, mode="inline", fault_plan=plan,
                          max_worker_restarts=2)
        with pytest.raises(PoolError, match="circuit breaker"):
            pool.process(synthetic_trace(TRACE))
        # The breaker closed the pool: no zombie serving afterwards.
        with pytest.raises(PoolError):
            pool.flush()

    def test_self_healing_disabled_means_first_loss_is_fatal(self):
        pool = WorkerPool(workers=2, mode="inline",
                          fault_plan=self._plan(after_batches=0),
                          max_worker_restarts=0)
        with pytest.raises(PoolError):
            pool.process(synthetic_trace(TRACE))

    def test_poison_batch_is_abandoned_not_looped(self, monkeypatch):
        # Every worker dies on its very first batch, forever: each batch
        # gets MAX_BATCH_REPLAYS chances, then turns into error responses
        # instead of replaying until the breaker kills the whole pool.
        monkeypatch.setattr(pool_module, "MAX_BATCH_REPLAYS", 2)
        plan = FaultPlan.from_spec([
            {"kind": "kill", "worker": 0, "repeat": True},
        ])
        with WorkerPool(workers=1, mode="inline", fault_plan=plan,
                        max_worker_restarts=100) as pool:
            report = pool.process(synthetic_trace(TRACE))
        assert len(report.responses) == TRACE.size
        assert all("worker failure" in (r.error or "") for r in
                   report.responses)
        assert pool.restarts.value() > 0


class TestProcessRecoveryMatrix:
    """The real-death arm: children actually exit, pipes actually break."""

    def test_injected_mid_flush_kill_is_masked_byte_identically(self):
        reference = fault_free(mode="process")
        plan = FaultPlan.from_spec(
            [{"kind": "kill", "worker": 0, "after_batches": 1}]
        )
        with WorkerPool(workers=2, mode="process", fault_plan=plan) as pool:
            report = pool.process(synthetic_trace(TRACE))
        assert payloads(report) == reference
        assert pool.restarts.value() == 1
        assert pool.replays.value() >= 1

    def test_dropped_reply_is_detected_as_hang_and_recovered(self, monkeypatch):
        reference = fault_free(mode="process")
        monkeypatch.setattr(pool_module, "HANG_COLD_DEADLINE_S", 5.0)
        plan = FaultPlan.from_spec([{"kind": "drop-reply", "worker": 0}])
        with WorkerPool(workers=2, mode="process", fault_plan=plan) as pool:
            report = pool.process(synthetic_trace(TRACE))
        assert payloads(report) == reference
        assert pool.restarts.value() == 1

    def test_respawn_then_serve_across_flushes(self):
        plan = FaultPlan.from_spec(
            [{"kind": "kill", "worker": 0, "after_batches": 1}]
        )
        with WorkerPool(workers=2, mode="process", fault_plan=plan) as pool:
            pool.process(synthetic_trace(TRACE))
            assert pool.restarts.value() == 1
            second = pool.process(synthetic_trace(TRACE))
        assert pool.restarts.value() == 1
        assert all(r.error is None for r in second.responses)


class TestServiceDegradation:
    """PoolService: transient loss degrades; breaker death shuts down."""

    def test_transient_loss_keeps_serving_and_reports_degraded(self):
        plan = FaultPlan.from_spec(
            [{"kind": "kill", "worker": 0, "after_batches": 1}]
        )
        pool = WorkerPool(workers=2, mode="inline", fault_plan=plan)
        service = PoolService(pool)
        failures = []
        service.on_failure(lambda: failures.append(1))
        with pool:
            result = service.serve_payloads(
                [r.to_dict() for r in synthetic_trace(TRACE)]
            )
            health = service.health_payload()
            stats = service.stats_payload()
        # Goodput never dropped to zero and the failure path never fired.
        assert all(r["ok"] for r in result.results)
        assert failures == []
        assert health["ok"] and health["degraded"]
        assert health["worker_restarts"] == 1
        faults = stats["pool"]["faults"]
        assert faults["recent_restarts"] > 0  # what /healthz calls degraded
        assert faults["worker_restarts"] == 1

    def test_healthy_pool_reports_not_degraded(self):
        pool = WorkerPool(workers=1, mode="inline")
        service = PoolService(pool)
        with pool:
            service.serve_payloads(
                [{"app": "search", "n_threads": 2, "seed": 0}]
            )
            health = service.health_payload()
        assert health == {"ok": True, "degraded": False,
                          "recent_restarts": 0, "worker_restarts": 0,
                          "replayed_batches": 0}

    def test_breaker_trip_fires_failure_callbacks(self):
        plan = FaultPlan.from_spec(
            [{"kind": "kill", "worker": 0, "repeat": True}]
        )
        pool = WorkerPool(workers=1, mode="inline", fault_plan=plan,
                          max_worker_restarts=1)
        service = PoolService(pool)
        fired = threading.Event()
        service.on_failure(fired.set)
        result = service.serve_payloads(
            [{"app": "search", "n_threads": 2, "seed": 0}]
        )
        assert fired.is_set()
        assert all(not r["ok"] for r in result.results)
        assert all("shutting down" in r["error"] for r in result.results)


class _FlakyServer:
    """Accepts connections; drops the first ``drops`` mid-round-trip."""

    def __init__(self, drops=1):
        self.drops = drops
        self.connections = 0
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with connection:
                line = connection.makefile("rb").readline()
                if not line:
                    continue
                if self.connections <= self.drops:
                    continue  # close without replying: mid-round-trip loss
                reply = {"ok": True, "echo": json.loads(line).get("app")}
                connection.sendall(json.dumps(reply).encode() + b"\n")

    def close(self):
        self._listener.close()


class TestClientReconnect:
    def test_request_reconnects_after_mid_roundtrip_loss(self):
        server = _FlakyServer(drops=1)
        try:
            with RuntimeClient("127.0.0.1", server.port, timeout=10.0,
                               backoff_s=0.01) as client:
                reply = client.request(app="search")
            assert reply == {"ok": True, "echo": "search"}
            assert server.connections == 2  # dropped once, healed once
        finally:
            server.close()

    def test_reconnect_budget_zero_surfaces_the_loss(self):
        server = _FlakyServer(drops=1)
        try:
            with RuntimeClient("127.0.0.1", server.port, timeout=10.0,
                               reconnect_retries=0) as client:
                with pytest.raises(ConnectionLostError):
                    client.request(app="search")
        finally:
            server.close()

    def test_exhausted_reconnect_budget_surfaces_the_loss(self):
        server = _FlakyServer(drops=10)
        try:
            with RuntimeClient("127.0.0.1", server.port, timeout=10.0,
                               reconnect_retries=2,
                               backoff_s=0.01) as client:
                with pytest.raises(ConnectionLostError):
                    client.request(app="search")
            assert server.connections == 3  # initial + 2 reconnects
        finally:
            server.close()


class TestRestartWindow:
    def test_old_restarts_age_out_of_the_breaker_window(self):
        pool = WorkerPool(workers=1, mode="inline", restart_window_s=0.05)
        # Simulate a respawn long enough ago to have aged out.
        pool._restart_times = [time.monotonic() - 1.0]
        pool.restarts.inc()
        assert pool.recent_restarts() == 0
        with pool:
            report = pool.process(synthetic_trace(TRACE))
        assert all(r.error is None for r in report.responses)
