"""Rate-aware admission control: token budget, shedding, and overload."""

import itertools
import sys
import threading
import time

import pytest

from repro.runtime.gateway import admission as admission_module
from repro.runtime.gateway.admission import (
    COLD_CAPACITY_RPS,
    HEADROOM_S,
    MAX_RETRY_S,
    MIN_RETRY_S,
    AdmissionController,
    PoolService,
    drain_rps,
    overload_envelope,
)
from repro.runtime.engine import Request
from repro.runtime.pool import WorkerPool

from runtime_helpers import slow_workers


def fresh_payloads(seeds, n):
    """``n`` cheap requests that each reach a worker (no two share a seed)."""
    return [{"app": "hash-table", "n_threads": 2, "seed": next(seeds)}
            for _ in range(n)]


class TestAdmissionController:
    def test_fixed_budget_accounting(self):
        controller = AdmissionController(max_inflight=4)
        first = controller.try_acquire(3)
        assert first.admitted and first.inflight == 3 and first.limit == 4
        second = controller.try_acquire(2)  # 3 + 2 > 4
        assert not second.admitted
        assert second.retry_after_s > 0.0
        controller.release(3)
        assert controller.try_acquire(2).admitted

    def test_zero_budget_sheds_everything(self):
        controller = AdmissionController(max_inflight=0)
        for n in (1, 2, 500):
            decision = controller.try_acquire(n)
            assert not decision.admitted and decision.limit == 0
        assert controller.inflight == 0

    def test_derived_budget_is_capacity_times_headroom(self):
        controller = AdmissionController()
        assert HEADROOM_S == 2.0
        assert controller.limit(15.0) == 30 and drain_rps(15.0) == 15.0

    def test_cold_capacity_is_the_module_constant(self):
        controller = AdmissionController()
        # No worker has served yet.
        assert drain_rps(0.0) == COLD_CAPACITY_RPS == 100.0
        assert controller.limit(0.0) == 200
        assert controller.try_acquire(1).limit == 200

    @pytest.mark.parametrize("n", [1, 2, 3, 500])
    def test_an_idle_server_admits_a_call_of_any_size(self, n):
        controller = AdmissionController()  # budget 2 at 1 rps
        decision = controller.try_acquire(n, capacity_rps=1.0)
        assert decision.admitted
        assert decision.limit == 2 and decision.inflight == n

    def test_a_call_over_the_budget_runs_alone(self):
        controller = AdmissionController()  # budget 1 at 0.5 rps
        assert controller.try_acquire(5, capacity_rps=0.5).admitted
        shed = controller.try_acquire(1, capacity_rps=0.5)
        assert not shed.admitted and (shed.inflight, shed.limit) == (5, 1)
        controller.release(5)
        assert controller.try_acquire(1, capacity_rps=0.5).admitted

    def test_a_busy_server_sheds_past_the_derived_budget(self):
        controller = AdmissionController()  # budget 20 at 10 rps
        assert controller.try_acquire(15, capacity_rps=10.0).admitted
        assert controller.try_acquire(5, capacity_rps=10.0).admitted
        shed = controller.try_acquire(1, capacity_rps=10.0)
        assert not shed.admitted
        assert (shed.inflight, shed.limit) == (20, 20)
        assert controller.inflight == 20  # a shed call takes no token

    def test_a_fixed_budget_refuses_an_oversized_call_on_an_idle_server(self):
        controller = AdmissionController(max_inflight=4)
        decision = controller.try_acquire(5, capacity_rps=1000.0)
        assert not decision.admitted
        assert (decision.inflight, decision.limit) == (0, 4)

    @pytest.mark.parametrize("n, capacity, retry", [
        (1, 10.0, 1 / 10.0),
        (20, 10.0, 20 / 10.0),
        (20, 0.0, 20 / COLD_CAPACITY_RPS),   # cold
        (1, 1000.0, MIN_RETRY_S),            # clamped up
        (1000, 10.0, MAX_RETRY_S),           # clamped down
    ])
    def test_retry_after_is_excess_over_capacity_clamped(self, n, capacity, retry):
        controller = AdmissionController(max_inflight=0)
        decision = controller.try_acquire(n, capacity_rps=capacity)
        assert not decision.admitted
        assert decision.retry_after_s == retry
        assert (MIN_RETRY_S, MAX_RETRY_S) == (0.05, 10.0)

    def test_counters_and_peak(self):
        controller = AdmissionController(max_inflight=5)
        assert controller.try_acquire(4).admitted
        assert not controller.try_acquire(4).admitted
        controller.release(4)
        assert controller.peak_inflight == 4
        assert controller.inflight == 0

    def test_thread_safety_of_token_accounting(self):
        controller = AdmissionController(max_inflight=8)
        iterations = 200

        admitted = []

        def hammer():
            for _ in range(iterations):
                if controller.try_acquire(2).admitted:
                    admitted.append(2)
                    controller.release(2)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert controller.inflight == 0
        assert admitted
        assert controller.peak_inflight <= 8

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=-1)


class TestOverloadEnvelope:
    def test_wire_shape(self):
        controller = AdmissionController(max_inflight=0)
        envelope = overload_envelope(controller.try_acquire(3))
        assert envelope["ok"] is False
        assert envelope["code"] == 429
        assert envelope["retry_after_s"] > 0
        assert "overloaded" in envelope["error"]


class TestPoolService:
    def test_a_service_always_has_a_derived_budget_controller(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool)
            result = service.serve_payloads(
                [{"app": "search", "n_threads": 2}] * 3
            )
        assert not result.shed
        assert [r["ok"] for r in result.results] == [True] * 3
        assert service.admission.max_inflight is None
        stats = service.stats_payload()
        assert (stats["served"], stats["shed"]) == (3, 0)
        assert stats["admission"]["admitted"] == 3

    def test_sheds_whole_call_without_touching_the_pool(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool, AdmissionController(max_inflight=0))
            result = service.serve_payloads([{"app": "search"}] * 2)
            stats = service.stats_payload()
        assert result.shed and result.retry_after_s > 0
        assert all(r["code"] == 429 for r in result.results)
        assert (stats["shed"], stats["served"]) == (2, 0)
        program = stats["pool"]["program_cache"]
        assert program["hits"] + program["misses"] == 0
        assert stats["admission"]["rejected"] == 2

    def test_malformed_payloads_become_envelopes_not_shed(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool, AdmissionController(max_inflight=16))
            result = service.serve_payloads(
                [{"app": "search", "n_threads": 2}, {"bogus": 1}]
            )
        assert not result.shed
        assert result.results[0]["ok"]
        assert not result.results[1]["ok"]
        assert "bogus" in result.results[1]["error"]

    def test_tokens_are_released_after_serving(self):
        controller = AdmissionController(max_inflight=4)
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool, controller)
            service.serve_payloads([{"app": "search", "n_threads": 2}] * 4)
            assert controller.inflight == 0
            # The budget is free again: the next full batch is admitted.
            result = service.serve_payloads(
                [{"app": "search", "n_threads": 2}] * 4
            )
        assert not result.shed

    def test_malformed_payloads_do_not_poison_the_drain_estimate(self):
        """Rejected-at-submit payloads must not count as drained work."""
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool, AdmissionController())
            result = service.serve_payloads([{"bogus": 1}] * 32)
            capacity = pool.capacity_rps()
            stats = service.stats_payload()
        assert all(not r["ok"] for r in result.results)
        # No worker served anything: the budget is still the cold one.
        assert capacity == 0.0
        assert stats["admission"]["drain_rps"] == COLD_CAPACITY_RPS

    def test_flushes_feed_the_drain_estimate(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool, AdmissionController())
            service.serve_payloads([{"app": "search", "n_threads": 2}] * 4)
            capacity = pool.capacity_rps()
            stats = service.stats_payload()
        assert capacity > 0.0
        assert stats["admission"]["drain_rps"] == round(capacity, 2)

    def test_an_idle_server_serves_a_batch_larger_than_the_budget(
            self, monkeypatch):
        seeds = itertools.count()
        monkeypatch.setattr(admission_module, "HEADROOM_S", 0.05)
        controller = AdmissionController()
        slow_workers(monkeypatch, 0.02)
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool, controller)
            # One slow request: under 50 requests per busy second.
            assert not service.serve_payloads(fresh_payloads(seeds, 1)).shed
            assert service.stats_payload()["admission"]["limit"] < 10
            result = service.serve_payloads(fresh_payloads(seeds, 10))
        assert not result.shed
        assert [r["ok"] for r in result.results] == [True] * 10
        assert controller.inflight == 0


class TestOpTable:
    """The table takes decoded arguments and an opaque endpoint label."""

    REQUEST = {"app": "search", "n_threads": 2}

    def test_request_and_batch_reply_with_their_results(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool)
            one = service.request(dict(self.REQUEST), "door-a")
            many = service.batch([dict(self.REQUEST), {"app": "nope"}], "door-b")
            text = service.metrics_text()
        assert one.status == 200 and one.payload["ok"]
        assert many.status == 200
        assert [r["ok"] for r in many.payload] == [True, False]
        # The label is the caller's, passed through to the metrics untouched.
        assert 'frontdoor_requests_total{endpoint="door-a",status="ok"} 1' in text
        assert 'frontdoor_requests_total{endpoint="door-b",status="error"} 1' in text

    def test_a_shed_call_is_one_429_envelope_with_the_unrounded_hint(
            self, monkeypatch):
        controller = AdmissionController(max_inflight=0)
        slow_workers(monkeypatch, 0.1)
        with WorkerPool(workers=1, mode="inline") as pool:
            # About 10 requests per busy second, so each hint is ~0.1 s per
            # request: above the clamp, and not a round number.
            pool.process([Request.from_dict(self.REQUEST)])
            capacity = pool.capacity_rps()
            service = PoolService(pool, controller)
            replies = [
                service.request(dict(self.REQUEST), "x"),
                service.batch([dict(self.REQUEST)] * 3, "x"),
            ]
        for reply, requested in zip(replies, (1, 3)):
            hint = requested / capacity
            assert reply.status == 429 and reply.retry_after_s == hint
            assert hint != round(hint, 3)
            assert list(reply.payload) == [
                "ok", "error", "code", "retry_after_s", "requested", "limit"
            ]
            assert reply.payload["retry_after_s"] == hint
            assert reply.payload["requested"] == requested
        assert service.stats_payload()["shed"] == 4

    def test_stream_flushes_lazily_in_chunks(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool)
            reply = service.stream([dict(self.REQUEST)] * 5, 2, "x")
            def served():
                return service.stats_payload()["served"]

            assert reply.status == 200 and served() == 0  # nothing ran yet
            sizes = []
            for flush in reply.payload:
                sizes.append(len(flush.results))
                assert served() == sum(sizes)
        assert sizes == [2, 2, 1]

    @pytest.mark.parametrize("chunk", [0, -1, 1.5, "2", None, True])
    def test_stream_refuses_a_bad_chunk(self, chunk):
        with WorkerPool(workers=1, mode="inline") as pool:
            reply = PoolService(pool).stream([dict(self.REQUEST)], chunk, "x")
        assert reply.status == 400
        assert reply.payload == {
            "ok": False, "error": "'chunk' must be a positive integer"
        }


class TestTwoLockFlush:
    """A hit is answered under the front lock; only a miss takes pool_lock."""

    HIT = {"app": "search", "n_threads": 2, "seed": 0}
    MISS = {"app": "search", "n_threads": 2, "seed": 1}

    @staticmethod
    def in_thread(call):
        """Run ``call`` on a thread; its result lands in the returned list."""
        box = []
        thread = threading.Thread(target=lambda: box.append(call()), daemon=True)
        thread.start()
        return thread, box

    def test_a_hit_returns_while_a_miss_is_parked_inside_a_worker(self):
        entered, release = threading.Event(), threading.Event()
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool, AdmissionController(max_inflight=8))
            assert service.serve_payloads([self.HIT]).results[0]["ok"]
            engine = pool._workers[0].state.engine
            execute = engine.execute_batch

            def parked(batch):
                entered.set()
                assert release.wait(timeout=30)
                return execute(batch)

            engine.execute_batch = parked
            miss_thread, miss = self.in_thread(
                lambda: service.serve_payloads([self.MISS, self.HIT]))
            assert entered.wait(timeout=30)
            assert service.pool_lock.locked()       # the miss holds the pool
            hit_thread, hit = self.in_thread(
                lambda: service.serve_payloads([self.HIT]))
            hit_thread.join(timeout=30)
            assert not hit_thread.is_alive(), "the hit queued behind the miss"
            assert miss_thread.is_alive() and not miss
            # Reads do not queue behind it either.
            assert service.stats_payload()["admission"]["inflight"] == 2
            release.set()
            miss_thread.join(timeout=30)
            assert not miss_thread.is_alive()
        [reply] = hit[0].results
        assert reply["ok"] and reply["result_cache_hit"]
        parked_miss, rode_along = miss[0].results
        assert parked_miss["ok"] and not parked_miss["result_cache_hit"]
        assert rode_along["ok"] and rode_along["result_cache_hit"]
        assert parked_miss["request_id"] + 1 == rode_along["request_id"]

    def test_pool_lock_is_taken_only_for_worker_dispatch(self):
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool)
            service.serve_payloads([self.HIT])
            with service.pool_lock:
                # Hits, malformed payloads and stats never ask for it ...
                thread, box = self.in_thread(lambda: [
                    service.serve_payloads([self.HIT, {"app": ["x"]}]),
                    service.stats_payload(),
                ])
                thread.join(timeout=30)
                assert not thread.is_alive()
                # ... a miss does, and waits.
                blocked, miss = self.in_thread(
                    lambda: service.serve_payloads([self.MISS]))
                blocked.join(timeout=0.2)
                assert blocked.is_alive() and not miss
            blocked.join(timeout=30)
            stats = service.stats_payload()
        assert [r["ok"] for r in box[0][0].results] == [True, False]
        assert miss[0].results[0]["ok"]
        assert stats["queue_wait_p99_s"] >= 0.2

    def test_concurrent_callers_lose_no_update(self):
        """Eight threads on two locks: ids, tier and counters stay exact."""
        callers, calls = 8, 40

        def client(index, service):
            return [
                service.serve_payloads([
                    self.HIT,
                    {"app": "hash-table", "n_threads": 1,
                     "seed": (index + call) % 4},
                    {"app": ["search"]},
                ]).results
                for call in range(calls)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(workers=2, mode="inline") as pool:
                service = PoolService(pool)
                running = [
                    self.in_thread(lambda index=index: client(index, service))
                    for index in range(callers)
                ]
                for thread, _ in running:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                stats = service.stats_payload()
        finally:
            sys.setswitchinterval(interval)
        replies = [r for _, box in running for call in box[0] for r in call]
        good = [r for r in replies if r["ok"]]
        assert len(replies) == stats["served"] == callers * calls * 3
        assert len(good) == callers * calls * 2
        ids = [r["request_id"] for r in good]
        assert len(set(ids)) == len(ids)
        # One lookup per cacheable request; every miss reached one worker
        # (two callers may both miss a key before either has filled it).
        tier = stats["pool"]["result_cache"]
        assert tier["hits"] + tier["misses"] == len(good)
        assert tier["hits"] == sum(r["result_cache_hit"] for r in good)
        assert tier["misses"] >= 5
        assert sum(w["requests"] for w in stats["pool"]["workers"]) == \
            tier["misses"]

    def test_replays_hold_tokens_but_do_not_feed_the_drain_estimate(
            self, monkeypatch):
        monkeypatch.setattr(admission_module, "HEADROOM_S", 0.05)
        controller = AdmissionController()
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool, controller)
            service.serve_payloads([self.HIT])          # a miss: measured
            capacity = pool.capacity_rps()
            assert 0.0 < capacity < 10_000
            for _ in range(50):
                assert service.serve_payloads([self.HIT]).results[0]["ok"]
            stats = service.stats_payload()
            scrape = service.metrics_text()
            # Fifty replays in ~20 us each would read as tens of thousands
            # of rps; no worker served them, so capacity did not move.
            assert pool.capacity_rps() == capacity
        assert stats["admission"]["admitted"] == 51
        assert stats["admission"]["inflight"] == 0
        assert stats["pool"]["result_cache"]["hits"] == 50
        assert stats["pool"]["workers"][0]["requests"] == 1
        assert "result_cache" not in stats["pool"]["workers"][0]
        assert 'engine_cache_lookups_total{tier="result",outcome="hit"} 50' in scrape
        assert "executor" not in stats["pool"]
        assert "\nengine_requests_total 51\n" in scrape
        assert "engine_executor_requests_total" not in scrape


class TestOverloadIntegration:
    """Saturate a 2-worker inline pool at ~2x its measured rate."""

    def test_two_x_overload_sheds_and_accepted_requests_complete(
            self, monkeypatch):
        monkeypatch.setattr(admission_module, "HEADROOM_S", 0.05)
        controller = AdmissionController()
        slow_workers(monkeypatch, 0.002)
        pool = WorkerPool(workers=2, mode="inline")
        # Every request gets a seed of its own: a repeat would be replayed by
        # the dispatcher, and only work that reaches a (slow) worker
        # saturates the pool or feeds its capacity.  `next` on a `count` is
        # atomic, so the client threads can share it.
        seeds = itertools.count()

        with pool:
            service = PoolService(pool, controller)
            # Warm up so the budget comes from measured capacity, not the
            # cold constant; one call at a time finds the server idle.
            for round_ in range(5):
                warm = service.serve_payloads(fresh_payloads(seeds, 4))
                assert not warm.shed
                assert all(r["ok"] for r in warm.results)
            drain = pool.capacity_rps()
            assert drain > 0.0

            # Offered load: 6 closed-loop clients x batches of 8 against a
            # budget of ~drain x 0.05s -- far beyond 2x the pool's rate.
            results = []
            results_lock = threading.Lock()

            def client():
                for _ in range(6):
                    result = service.serve_payloads(fresh_payloads(seeds, 8))
                    with results_lock:
                        results.append(result)

            threads = [threading.Thread(target=client) for _ in range(6)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            offered_rps = (6 * 6 * 8) / elapsed
            stats = service.stats_payload()

        shed = [r for r in results if r.shed]
        accepted = [r for r in results if not r.shed]
        # The pool was genuinely saturated (offered well beyond measured
        # drain) and the controller shed some of it with 429 envelopes.
        assert offered_rps > 1.5 * drain
        assert shed, "expected 429s under 2x overload"
        assert accepted, "expected some admitted work under overload"
        assert all(r["code"] == 429 for s in shed for r in s.results)
        # Every accepted request completed successfully.
        assert all(r["ok"] for a in accepted for r in a.results)
        # Counters and cache stats stay consistent: everything offered is
        # either served or shed, and the pool-wide cache saw exactly the
        # served requests (each flush = one lookup per program batch, but
        # lookups+amortized hits must cover every served request).
        served_n = sum(len(a.results) for a in accepted) + 20
        shed_n = sum(len(s.results) for s in shed)
        assert stats["served"] == served_n
        assert stats["shed"] == shed_n
        assert served_n + shed_n == 6 * 6 * 8 + 20
        program = stats["pool"]["program_cache"]
        assert program["hit_rate"] == pytest.approx(
            program["hits"] / max(1, program["hits"] + program["misses"]),
            abs=1e-3,
        )
        assert stats["admission"]["inflight"] == 0
        assert stats["queue_wait_p99_s"] >= stats["queue_wait_p50_s"]
