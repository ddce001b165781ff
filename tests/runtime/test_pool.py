"""Worker pool: dispatch, determinism vs the single engine, process mode."""

import json

import pytest

from repro.runtime.engine import Engine, Request
from repro.runtime.pool import PoolError, WorkerPool
from repro.runtime.trace import TraceConfig, synthetic_trace

SMALL_TRACE = TraceConfig(
    size=24,
    apps=["hash-table", "search", "murmur3"],
    backend_mix={"vrda": 1.0},
    distinct_shapes=2,
    n_threads=2,
    seed=5,
)

#: The fields that must be bit-identical however the trace is executed.
#: Cache-hit flags are excluded by design: per-worker caches legitimately
#: hit/miss differently from one shared cache.
PAYLOAD_FIELDS = ("request_id", "app", "backend", "ok", "error", "outputs",
                  "correct", "modeled_gbs", "modeled_runtime_s", "batch_id")


def payload(response):
    return tuple(getattr(response, name) for name in PAYLOAD_FIELDS)


class TestConstruction:
    def test_rejects_bad_configuration(self):
        with pytest.raises(PoolError):
            WorkerPool(workers=0)
        with pytest.raises(PoolError):
            WorkerPool(mode="threads")

    def test_flush_after_close_rejected(self):
        pool = WorkerPool(workers=1)
        pool.close()
        with pytest.raises(PoolError):
            pool.flush()


class TestInlinePool:
    def test_matches_single_engine_bit_for_bit(self):
        single = Engine().process(synthetic_trace(SMALL_TRACE))
        with WorkerPool(workers=3, mode="inline") as pool:
            report = pool.process(synthetic_trace(SMALL_TRACE))
        assert [payload(r) for r in report.responses] == \
            [payload(r) for r in single]

    def test_responses_sorted_by_submission_order(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process(synthetic_trace(SMALL_TRACE))
        ids = [r.request_id for r in report.responses]
        assert ids == sorted(ids)

    def test_bad_requests_become_error_responses(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process([
                Request(app="hash-table", n_threads=2),
                Request(app="no-such-app"),
                Request(app="search", n_threads=2),
            ])
        assert [r.ok for r in report.responses] == [True, False, True]
        assert "no-such-app" in report.responses[1].error

    def test_mixed_backends_flow_through(self):
        trace = TraceConfig(size=20, apps=["search", "murmur3"],
                            distinct_shapes=1, n_threads=2, seed=2)
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process(synthetic_trace(trace))
        assert all(r.ok for r in report.responses)
        assert {r.backend for r in report.responses} > {"vrda"}

    def test_residency_feedback_keeps_programs_sticky(self):
        with WorkerPool(workers=2, mode="inline",
                        policy="cache-affinity") as pool:
            first = pool.process(synthetic_trace(SMALL_TRACE))
            second = pool.process(synthetic_trace(SMALL_TRACE))
        # Round two is dispatched against seeded residency: every batch of a
        # program lands on the worker that already compiled it, so the pool
        # performs zero new compiles.
        new_misses = (second.aggregate_program_stats().misses
                      - first.aggregate_program_stats().misses)
        assert new_misses == 0
        assert all(s.resident_keys for s in second.workers
                   if s.requests > 0)

    def test_request_ids_stay_monotonic_across_flushes(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            first = pool.process(synthetic_trace(SMALL_TRACE))
            second = pool.process(synthetic_trace(SMALL_TRACE))
        assert first.responses[-1].request_id < second.responses[0].request_id

    def test_reports_are_json_serializable(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process(synthetic_trace(SMALL_TRACE))
            stats = pool.stats_row()
        json.dumps(report.to_dict())
        json.dumps(stats)
        assert report.to_dict()["ok"] == SMALL_TRACE.size
        assert len(stats["workers"]) == 2


class TestProcessPool:
    def test_matches_inline_pool_and_single_engine(self):
        trace = TraceConfig(size=12, apps=["hash-table", "search"],
                            backend_mix={"vrda": 1.0}, distinct_shapes=2,
                            n_threads=2, seed=9)
        single = Engine().process(synthetic_trace(trace))
        with WorkerPool(workers=2, mode="process") as pool:
            processed = pool.process(synthetic_trace(trace))
        with WorkerPool(workers=2, mode="inline") as pool:
            inline = pool.process(synthetic_trace(trace))
        assert [payload(r) for r in processed.responses] == \
            [payload(r) for r in inline.responses] == \
            [payload(r) for r in single]
        assert all(r.correct for r in processed.responses)

    def test_externally_killed_worker_is_respawned_and_masked(self):
        trace = TraceConfig(size=4, apps=["search"],
                            backend_mix={"vrda": 1.0}, distinct_shapes=1,
                            n_threads=2, seed=1)
        with WorkerPool(workers=2, mode="process") as control:
            control.process(synthetic_trace(trace))
            fault_free = control.process(synthetic_trace(trace))
        pool = WorkerPool(workers=2, mode="process")
        try:
            pool.process(synthetic_trace(trace))
            pool._workers[0].process.kill()
            pool._workers[0].process.join()
            # The same trace again: the dead worker is detected, respawned,
            # and its batches replayed — responses match the fault-free run.
            report = pool.process(synthetic_trace(trace))
            assert [payload(r) for r in report.responses] == \
                [payload(r) for r in fault_free.responses]
            assert report.worker_restarts == 1
            assert report.replayed_batches >= 1
            assert pool.worker_restarts == 1
        finally:
            pool.close()

    def test_worker_loss_is_fatal_when_self_healing_is_disabled(self):
        trace = TraceConfig(size=4, apps=["search"],
                            backend_mix={"vrda": 1.0}, distinct_shapes=1,
                            n_threads=2, seed=1)
        pool = WorkerPool(workers=2, mode="process", max_worker_restarts=0)
        try:
            pool.process(synthetic_trace(trace))
            pool._workers[0].process.kill()
            pool._workers[0].process.join()
            with pytest.raises(PoolError):
                pool.process(synthetic_trace(trace))
            # The pool closed itself: a later flush must not hand back stale
            # pipe replies from the surviving worker.
            with pytest.raises(PoolError):
                pool.flush()
        finally:
            pool.close()

    def test_worker_snapshots_cross_the_process_boundary(self):
        trace = TraceConfig(size=8, apps=["search"],
                            backend_mix={"vrda": 1.0}, distinct_shapes=1,
                            n_threads=2, seed=1)
        with WorkerPool(workers=2, mode="process") as pool:
            report = pool.process(synthetic_trace(trace))
        assert sum(s.requests for s in report.workers) == trace.size
        assert sum(len(s.resident_keys) for s in report.workers) >= 1
        json.dumps(report.to_dict())


class TestMeasuredRateDispatch:
    """Workers time their flushes; the admission budget reads the rates."""

    def _trace(self, size=24):
        return synthetic_trace(TraceConfig(
            size=size, apps=["hash-table"], backend_mix={"vrda": 1.0},
            distinct_shapes=size, n_threads=1, seed=3))

    def test_snapshots_report_busy_time_and_rate(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process(self._trace())
        active = [s for s in report.workers if s.requests]
        assert active
        for snapshot in active:
            assert snapshot.busy_s > 0.0
            assert snapshot.service_rate_rps > 0.0
            row = snapshot.to_dict()
            assert row["busy_s"] > 0.0
            assert row["service_rate_rps"] > 0.0

    def test_service_delays_validated(self):
        with pytest.raises(PoolError):
            WorkerPool(workers=2, service_delays=[0.1])
