"""Cache-affinity admission: policy semantics and the end-to-end hit-rate win."""

import pytest

from repro.runtime.pool import WorkerPool
from repro.runtime.scheduler import ShardScheduler
from repro.runtime.trace import TraceConfig, synthetic_trace
from repro.sim.policies import (
    POLICIES,
    CacheAffinityPolicy,
    make_policy,
    run_admission,
)

MIXED_TRACE = TraceConfig(
    size=500,
    apps=["hash-table", "search", "huff-enc", "murmur3", "strlen", "ip2int",
          "isipv4"],
    distinct_shapes=2,
    n_threads=2,
    seed=42,
)


class TestPolicyUnit:
    def test_registered(self):
        assert "cache-affinity" in POLICIES
        policy = make_policy("cache-affinity")
        assert isinstance(policy, CacheAffinityPolicy)
        assert policy.uses_keys and policy.uses_feedback

    def test_prefers_resident_worker(self):
        policy = CacheAffinityPolicy()
        policy.seed([["a"], ["b"], []])
        assert policy.choose([1, 1, 1], [0.0, 0.0, 0.0], "b") == 1
        assert policy.choose([1, 1, 1], [5.0, 0.0, 0.0], "a") == 0

    def test_resident_but_busy_worker_is_skipped(self):
        policy = CacheAffinityPolicy()
        policy.seed([["a"], []])
        # Worker 0 holds the key but has no free buffer: fall back.
        assert policy.choose([0, 1], [1.0, 0.0], "a") == 1

    def test_least_pending_breaks_residency_ties(self):
        policy = CacheAffinityPolicy()
        policy.seed([["a"], ["a"], ["a"]])
        assert policy.choose([1, 1, 1], [3.0, 1.0, 2.0], "a") == 1

    def test_unknown_key_falls_back_round_robin(self):
        policy = CacheAffinityPolicy()
        picks = [policy.choose([1, 1, 1], [0.0, 0.0, 0.0], f"k{i}")
                 for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_waits_when_no_buffer_free(self):
        policy = CacheAffinityPolicy()
        assert policy.choose([0, 0], [1.0, 1.0], "a") is None

    def test_record_is_lru_bounded(self):
        policy = CacheAffinityPolicy(cache_capacity=2)
        for key in ("a", "b", "c"):
            policy.record(0, key)
        assert policy.resident_keys()[0] == ["b", "c"]
        policy.record(0, "b")  # touch refreshes recency
        policy.record(0, "d")
        assert policy.resident_keys()[0] == ["b", "d"]

    def test_reset_keeps_residency(self):
        policy = CacheAffinityPolicy()
        policy.record(1, "a")
        policy.reset()
        assert policy.choose([1, 1], [0.0, 0.0], "a") == 1
        policy.clear_residency()
        assert policy.resident_keys() == []


class TestKeyedAdmission:
    def test_repeated_keys_stick_to_their_worker(self):
        result = run_admission(
            [1.0] * 8, [1.0, 1.0], [4, 4], CacheAffinityPolicy(),
            task_keys=["x", "y", "x", "y", "x", "y", "x", "y"])
        by_key = {"x": set(), "y": set()}
        for key, worker in zip("xyxyxyxy", result.assignments):
            by_key[key].add(worker)
        assert by_key["x"] == {0} and by_key["y"] == {1}

    def test_key_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_admission([1.0] * 3, [1.0], [4], "cache-affinity",
                          task_keys=["a"])

    def test_keys_are_ignored_by_key_free_policies(self):
        result = run_admission([1.0] * 4, [1.0, 1.0], [4, 4], "round-robin",
                               task_keys=["a", "a", "a", "a"])
        assert result.assignments == [0, 1, 0, 1]

    def test_scheduler_threads_keys_through(self):
        scheduler = ShardScheduler(workers=2, policy="cache-affinity")
        report = scheduler.dispatch([1.0] * 6, keys=["p", "q", "p", "q", "p",
                                                     "q"])
        assert report.policy == "cache-affinity"
        assert len(set(report.assignments[0::2])) == 1  # all 'p' together
        assert len(set(report.assignments[1::2])) == 1  # all 'q' together


class TestEndToEndHitRate:
    def test_affinity_strictly_beats_round_robin_on_mixed_trace(self):
        """Acceptance: 500-request mixed-app trace, affinity > round-robin."""
        rates = {}
        snapshots = {}
        for policy in ("round-robin", "cache-affinity"):
            # No result tier, or only the 14 distinct requests would reach
            # a worker and every program would be compiled exactly once.
            with WorkerPool(workers=4, mode="inline", policy=policy,
                            cache_capacity=2, result_cache_capacity=0) as pool:
                report = pool.process(synthetic_trace(MIXED_TRACE))
            assert len(report.responses) == MIXED_TRACE.size
            assert all(r.ok for r in report.responses)
            rates[policy] = report.program_hit_rate()
            snapshots[policy] = report.workers
        assert rates["cache-affinity"] > rates["round-robin"]
        # The win comes from fewer compiles, i.e. strictly fewer misses.
        misses = {policy: sum(s.program_cache.misses for s in workers)
                  for policy, workers in snapshots.items()}
        assert misses["cache-affinity"] < misses["round-robin"]
