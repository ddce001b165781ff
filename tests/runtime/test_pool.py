"""Worker pool: dispatch, determinism vs the single engine, process mode."""

import json

import pytest

from repro.runtime import pool as pool_module
from repro.runtime.engine import Batch, Engine, EngineError, Request
from repro.runtime.pool import PoolError, WorkerPool
from repro.runtime.telemetry import render_prometheus
from repro.runtime.trace import TraceConfig, synthetic_trace

from runtime_helpers import pool_stats, worker_document, worker_requests

SMALL_TRACE = TraceConfig(
    size=24,
    apps=["hash-table", "search", "murmur3"],
    distinct_shapes=2,
    n_threads=2,
    seed=5,
)

#: The fields that must be bit-identical however the trace is executed.
#: Cache-hit flags are excluded by design: per-worker caches legitimately
#: hit/miss differently from one shared cache.
PAYLOAD_FIELDS = ("request_id", "app", "ok", "error", "outputs",
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

    def test_a_raising_process_queues_nothing(self):
        """process() queues all of its requests or none of them."""
        with WorkerPool(workers=2, mode="inline") as pool:
            with pytest.raises(EngineError, match="either 'app' or 'source'"):
                pool.process([Request(app="search", n_threads=2), Request()])
            report = pool.process([Request(app="strlen", n_threads=2)])
        assert [(r.request_id, r.app) for r in report.responses] == \
            [(0, "strlen")]

    def test_mixed_programs_flow_through(self):
        """Batches form per program key; every answered request is counted."""
        trace = TraceConfig(size=20, apps=["search", "murmur3"],
                            distinct_shapes=1, n_threads=2, seed=2)
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process(synthetic_trace(trace))
            scrape = render_prometheus(pool.metrics_snapshots())
        assert all(r.ok for r in report.responses)
        apps_of_batch = {}
        for response in report.responses:
            apps_of_batch.setdefault(response.batch_id, set()).add(response.app)
        assert sorted(map(sorted, apps_of_batch.values())) == [
            ["murmur3"], ["search"]]
        # One shape per app: two reach a worker, eighteen are replayed by the
        # dispatcher, and the one served count holds all twenty.
        assert worker_requests(pool) == 2
        assert "\nengine_requests_total 20\n" in scrape

    def test_residency_feedback_keeps_programs_sticky(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            pool.process(synthetic_trace(SMALL_TRACE))
            first = pool_stats(pool)
            pool.process(synthetic_trace(SMALL_TRACE))
            second = pool_stats(pool)
        misses = [stats["program_cache"]["misses"] for stats in (first, second)]
        # Round two is routed by the workers' reported residency: every batch
        # of a program lands on the worker that already compiled it, so the
        # pool performs zero new compiles.
        assert misses[1] == misses[0]
        assert all(row["resident_programs"] for row in second["workers"]
                   if row["requests"] > 0)

    def test_request_ids_stay_monotonic_across_flushes(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            first = pool.process(synthetic_trace(SMALL_TRACE))
            second = pool.process(synthetic_trace(SMALL_TRACE))
        assert first.responses[-1].request_id < second.responses[0].request_id

    def test_reports_are_json_serializable(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process(synthetic_trace(SMALL_TRACE))
            stats = pool_stats(pool)
        json.dumps(stats)
        assert sum(r.ok for r in report.responses) == SMALL_TRACE.size
        assert len(stats["workers"]) == 2


class TestProcessPool:
    def test_matches_inline_pool_and_single_engine(self):
        trace = TraceConfig(size=12, apps=["hash-table", "search"],
                            distinct_shapes=2, n_threads=2, seed=9)
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
                            distinct_shapes=1, n_threads=2, seed=1)
        # No result tier: the repeated trace has to reach a worker.
        with WorkerPool(workers=2, mode="process",
                        result_cache_capacity=0) as control:
            control.process(synthetic_trace(trace))
            fault_free = control.process(synthetic_trace(trace))
        pool = WorkerPool(workers=2, mode="process", result_cache_capacity=0)
        try:
            pool.process(synthetic_trace(trace))
            pool._workers[0].process.kill()
            pool._workers[0].process.join()
            # The same trace again: the dead worker is detected, respawned,
            # and its batches replayed — responses match the fault-free run.
            report = pool.process(synthetic_trace(trace))
            assert [payload(r) for r in report.responses] == \
                [payload(r) for r in fault_free.responses]
            assert pool.restarts.value() == 1
            assert pool.replays.value() >= 1
        finally:
            pool.close()

    def test_worker_loss_is_fatal_when_self_healing_is_disabled(
            self, monkeypatch):
        # The breaker runs in the parent, so the patch reaches process pools.
        monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 0)
        trace = TraceConfig(size=4, apps=["search"],
                            distinct_shapes=1, n_threads=2, seed=1)
        pool = WorkerPool(workers=2, mode="process", result_cache_capacity=0)
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
                            distinct_shapes=1, n_threads=2, seed=1)
        # One shape repeated: without the tier all eight reach a worker.
        with WorkerPool(workers=2, mode="process",
                        result_cache_capacity=0) as pool:
            pool.process(synthetic_trace(trace))
            rows = pool_stats(pool)["workers"]
        assert sum(row["requests"] for row in rows) == trace.size
        assert sum(row["resident_programs"] for row in rows) >= 1
        json.dumps(rows)


def sized_batches(*sizes):
    """One batch of ``n`` requests per size."""
    return [Batch(i, "key", [(j, Request(app="search")) for j in range(n)])
            for i, n in enumerate(sizes)]


class TestMeasuredRateDispatch:
    """Workers time their flushes; admission and hang deadlines read it."""

    def _trace(self, size=24):
        return synthetic_trace(TraceConfig(
            size=size, apps=["hash-table"], distinct_shapes=size,
            n_threads=1, seed=3))

    def test_snapshots_report_busy_time_and_rate(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            pool.process(self._trace())
            active = [row for row in pool_stats(pool)["workers"] if row["requests"]]
        assert active
        for row in active:
            assert row["busy_s"] > 0.0
            assert row["service_rate_rps"] > 0.0

    def test_capacity_sums_requests_per_busy_second(self):
        with WorkerPool(workers=3, mode="inline") as pool:
            assert pool.capacity_rps() == 0.0  # nothing served yet
            pool.worker_metrics = [
                worker_document(requests=10, busy_s=0.5),
                worker_document(requests=3, busy_s=1.0),
                worker_document(),
            ]
            rates = [pool_module.service_rate_rps(document)
                     for document in pool.worker_metrics]
            capacity = pool.capacity_rps()
            rows = pool_stats(pool)["workers"]
        assert rates == [20.0, 3.0, 0.0]
        assert capacity == 23.0
        assert [row["service_rate_rps"] for row in rows] == rates


class TestHangDeadline:
    """A process worker's reply deadline, from hand-set snapshots."""

    def test_warm_cold_and_unmeasured_workers(self, monkeypatch):
        monkeypatch.setattr(pool_module, "HANG_DEADLINE_FACTOR", 8.0)
        monkeypatch.setattr(pool_module, "HANG_DEADLINE_MIN_S", 1.0)
        monkeypatch.setattr(pool_module, "HANG_COLD_DEADLINE_S", 120.0)
        with WorkerPool(workers=1, mode="process") as pool:
            unmeasured = pool._collect_deadline_s(0, sized_batches(3, 2))
            pool.worker_metrics[0] = worker_document(requests=40, busy_s=2.0)
            # 8 x 5 requests x 2.0 busy seconds / 40 requests.
            warm = pool._collect_deadline_s(0, sized_batches(3, 2))
            floored = pool._collect_deadline_s(0, sized_batches(1))  # 0.4 s
            cold = pool._collect_deadline_s(0, sized_batches(3, 2), cold=True)
        assert unmeasured == 120.0
        assert warm == pytest.approx(2.0)
        assert floored == 1.0
        assert cold == 120.0

    def test_inline_workers_have_no_deadline(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            pool.worker_metrics[0] = worker_document(requests=40, busy_s=2.0)
            assert pool._collect_deadline_s(0, sized_batches(3, 2)) is None


class TestResultTier:
    """The pool's one result tier lives in the dispatcher, not in workers."""

    SEARCH = dict(app="search", n_threads=2)

    @staticmethod
    def wire(report):
        return [(r.request_id, r.batch_id, r.ok, r.error, r.outputs)
                for r in report.responses]

    def test_ids_and_batch_ids_equal_a_pool_without_the_tier(self):
        first = [Request(seed=0, **self.SEARCH),
                 Request(app="murmur3", n_threads=2)]
        mixed = [Request(seed=0, **self.SEARCH),        # hit
                 Request(app="no-such-app"),            # bad
                 Request(seed=1, **self.SEARCH),        # miss
                 Request(app="murmur3", n_threads=2),   # hit
                 Request(seed=1, **self.SEARCH),        # repeat of the miss
                 Request(app=["search"])]               # wrong-typed
        reports, dispatched = {}, {}
        for capacity in (512, 0):
            with WorkerPool(workers=2, mode="inline",
                            result_cache_capacity=capacity) as pool:
                warm = pool.process(list(first))
                before = worker_requests(pool)
                reports[capacity] = [warm, pool.process(list(mixed))]
                dispatched[capacity] = worker_requests(pool) - before
        for with_tier, without in zip(reports[512], reports[0]):
            assert self.wire(with_tier) == self.wire(without)
        hits = [r.result_cache_hit for r in reports[512][1].responses]
        assert hits == [True, False, False, True, True, False]
        assert not any(r.result_cache_hit for r in reports[0][1].responses)
        assert dispatched == {512: 1, 0: 4}

    def test_intra_flush_duplicate_executes_once(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            report = pool.process([Request(seed=3, **self.SEARCH)
                                   for _ in range(3)])
            stats = pool_stats(pool)
        assert [r.result_cache_hit for r in report.responses] == \
            [False, True, True]
        assert [r.outputs for r in report.responses] == \
            [report.responses[0].outputs] * 3
        # The repeats carry the first one's program-cache verdict, as a
        # worker-side replay inside one batch always did.
        assert [r.program_cache_hit for r in report.responses] == [False] * 3
        assert worker_requests(pool) == 1
        tier = stats["result_cache"]
        assert (tier["hits"], tier["misses"]) == (2, 1)
        assert all("result_cache" not in w for w in stats["workers"])

    def test_failed_request_caches_nothing_and_fails_its_duplicate_alike(self):
        failing = dict(app="search", n_threads=0)   # divides by zero
        with WorkerPool(workers=1, mode="inline") as pool:
            report = pool.process([Request(**failing), Request(**failing)])
            served = worker_requests(pool)
            again = pool.process([Request(**failing)])
            served_again = worker_requests(pool)
            tier = pool_stats(pool)["result_cache"]
        errors = [r.error for r in report.responses]
        assert errors[0] and errors[0] == errors[1]
        assert [r.request_id for r in report.responses] == [0, 1]
        assert not any(r.result_cache_hit for r in report.responses)
        assert served == 1
        # Nothing was cached: the same request reaches the worker again.
        assert served_again == 2
        assert again.responses[0].error == errors[0]
        assert tier["hits"] == 0

    def test_tier_is_bounded_and_counts_evictions(self):
        keys = [Request(app="hash-table", n_threads=1, seed=s)
                for s in range(513)]
        with WorkerPool(workers=1, mode="inline") as pool:
            pool.process(list(keys[:512]))
            assert pool_stats(pool)["result_cache"]["evictions"] == 0
            pool.process([keys[512]])
            assert pool_stats(pool)["result_cache"]["evictions"] == 1
            # The oldest key went: it misses, every younger one still hits.
            oldest = pool.process([keys[0]]).responses[0]
            youngest = pool.process([keys[512]]).responses[0]
            stats = pool_stats(pool)
        assert not oldest.result_cache_hit and youngest.result_cache_hit
        assert stats["result_cache"]["evictions"] == 2
        assert all("result_cache" not in w for w in stats["workers"])

    def test_traced_hit_carries_a_fresh_span_and_never_anothers(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            miss, = pool.process([Request(trace=True, trace_id="first",
                                          **self.SEARCH)]).responses
            hit, = pool.process([Request(trace=True, trace_id="second",
                                         **self.SEARCH)]).responses
            plain, = pool.process([Request(**self.SEARCH)]).responses
        assert miss.trace["trace_id"] == "first" and miss.trace["worker"] == 0
        assert hit.trace == {"trace_id": "second", "compile_s": 0.0,
                             "execute_s": 0.0, "result_cache_hit": True}
        assert hit.program_cache_hit is True
        assert plain.trace is None and plain.result_cache_hit
        assert "trace" not in plain.to_dict()

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_killed_worker_leaves_no_crash_response_in_the_tier(self, mode):
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan.from_spec(
            [{"kind": "kill", "worker": 0, "after_batches": 1}])
        requests = [Request(app=app, n_threads=2, seed=seed)
                    for app in ("search", "hash-table", "murmur3")
                    for seed in range(2)]
        with WorkerPool(workers=2, mode=mode, fault_plan=plan) as pool:
            report = pool.process(list(requests))
            served = worker_requests(pool)
            assert pool.restarts.value() == 1 and pool.replays.value() >= 1
            again = pool.process(list(requests))
            assert worker_requests(pool) == served
            tier = pool_stats(pool)["result_cache"]
        assert all(r.ok and r.error is None for r in report.responses)
        # Only final responses entered the tier, each once.
        assert all(r.result_cache_hit for r in again.responses)
        assert [r.outputs for r in again.responses] == \
            [r.outputs for r in report.responses]
        assert (tier["hits"], tier["misses"], tier["evictions"]) == (6, 6, 0)
