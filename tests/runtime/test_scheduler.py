"""Shard scheduler: policy behaviour and equivalence with Figure 14."""

import tracemalloc

import pytest

from repro.runtime.scheduler import ShardScheduler
from repro.sim.load_balance import LoadBalanceSimulator
from repro.sim.policies import (
    POLICIES,
    make_policy,
    run_admission,
)


class TestPolicies:
    def test_registry_names(self):
        assert set(POLICIES) == {"round-robin", "least-loaded",
                                 "hoisted-buffer", "cache-affinity"}
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("fifo")

    def test_round_robin_ignores_load(self):
        result = run_admission([1.0] * 9, [5.0, 1.0, 1.0], [2, 2, 2],
                               "round-robin")
        assert result.counts == [3, 3, 3]
        assert result.assignments[:3] == [0, 1, 2]

    def test_static_round_robin_scales_to_large_traces(self):
        # A million-task static sweep must stay O(workers) in memory: a
        # task count instead of a cost list, no assignment list, no event
        # heap.  One million-element list alone is 8 MB.
        tracemalloc.start()
        try:
            result = run_admission(1_000_000, [1.3] + [1.0] * 7, [8] * 8,
                                   "round-robin", collect_assignments=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert result.counts == [125_000] * 8

    def test_least_loaded_prefers_fast_workers(self):
        result = run_admission([1.0] * 90, [3.0, 1.0, 1.0], [4, 4, 4],
                               "least-loaded")
        assert result.counts[0] < result.counts[1]
        assert result.counts[0] < result.counts[2]

    def test_hoisted_buffer_tracks_throughput(self):
        result = run_admission([1.0] * 10_000, [2.0, 1.0], [8, 8],
                               "hoisted-buffer")
        share_slow = result.counts[0] / sum(result.counts)
        # Twice-as-slow worker converges to ~1/3 of the work.
        assert share_slow == pytest.approx(1 / 3, abs=0.02)


class TestSchedulerFairness:
    def test_hoisted_buffer_matches_load_balance_simulator(self):
        """The runtime scheduler and the Figure 14 simulator share one
        admission loop, so their shares agree within 1% (exactly, in fact)."""
        regions, buffers, total = 8, 64, 100_000
        slow_factor = 1.3
        simulator = LoadBalanceSimulator(regions=regions, buffers=buffers,
                                         slow_factor=slow_factor)
        expected = simulator.run(total)

        scales = [slow_factor if w == 0 else 1.0 for w in range(regions)]
        scheduler = ShardScheduler(workers=regions,
                                   buffers_per_worker=buffers // regions,
                                   policy="hoisted-buffer",
                                   worker_scales=scales)
        report = scheduler.dispatch([1.0] * total)

        assert report.total_tasks == total
        for load, worker in zip(expected, report.workers):
            assert worker.share_percent == pytest.approx(
                load.share_percent, abs=1.0)

    def test_static_round_robin_matches_simulator_static_mode(self):
        simulator = LoadBalanceSimulator(regions=4, slow_factor=2.0)
        expected = simulator.run(1000, hoisted=False)
        scheduler = ShardScheduler(workers=4, policy="round-robin",
                                   worker_scales=[2.0, 1.0, 1.0, 1.0])
        report = scheduler.dispatch([1.0] * 1000)
        for load, worker in zip(expected, report.workers):
            assert worker.tasks == load.threads

    def test_least_loaded_beats_round_robin_makespan(self):
        scales = [2.0, 1.0, 1.0, 1.0]
        costs = [1.0] * 4000
        balanced = ShardScheduler(workers=4, policy="least-loaded",
                                  worker_scales=scales).dispatch(costs)
        static = ShardScheduler(workers=4, policy="round-robin",
                                worker_scales=scales).dispatch(costs)
        assert balanced.makespan_s < static.makespan_s
        assert balanced.imbalance() < static.imbalance()


class TestSchedulerAPI:
    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            ShardScheduler(workers=0)
        with pytest.raises(ValueError):
            ShardScheduler(workers=2, worker_scales=[1.0])

    def test_dispatch_charges_each_task_its_cost(self):
        report = ShardScheduler(workers=2, policy="least-loaded")\
            .dispatch([0.5, 0.25, 0.25])
        assert report.total_tasks == 3
        assert report.makespan_s == pytest.approx(0.5)
        assert len(report.assignments) == 3

    def test_empty_dispatch(self):
        report = ShardScheduler(workers=2).dispatch([])
        assert report.total_tasks == 0
        assert report.makespan_s == 0.0
        assert report.imbalance() == 1.0


class TestMeasuredRates:
    """Measured service rates: what the admission budget is sized from."""

    def test_estimator_ewma(self):
        from repro.sim.policies import ServiceRateEstimator

        est = ServiceRateEstimator(alpha=0.5)
        assert est.rate == 0.0
        assert est.observe(10, 1.0) == pytest.approx(10.0)   # first sample
        assert est.observe(20, 1.0) == pytest.approx(15.0)   # 0.5*20 + 0.5*10
        # Degenerate measurements leave the estimate untouched.
        assert est.observe(0, 1.0) == pytest.approx(15.0)
        assert est.observe(10, 0.0) == pytest.approx(15.0)

