"""Figure 14 admission policies and their discrete-event loop."""

import tracemalloc

import pytest

from repro.sim.load_balance import LoadBalanceSimulator
from repro.sim.policies import (
    AdmissionPolicy,
    HoistedBufferPolicy,
    RoundRobinPolicy,
    run_admission,
)


class TestPolicyChoice:
    """One ``choose`` call at a time, against hand-built worker state."""

    def test_round_robin_cycles_and_reset_restarts_it(self):
        policy = RoundRobinPolicy()
        picks = [policy.choose([0, 0, 0], [9.0, 0.0, 0.0]) for _ in range(4)]
        assert picks == [0, 1, 2, 0]
        policy.reset()
        assert policy.choose([1, 1, 1], [0.0, 0.0, 0.0]) == 0

    def test_hoisted_buffer_skips_workers_without_a_free_buffer(self):
        policy = HoistedBufferPolicy()
        picks = [policy.choose([0, 1, 1], [0.0, 0.0, 0.0]) for _ in range(3)]
        assert picks == [1, 2, 1]

    def test_hoisted_buffer_waits_when_no_buffer_is_free(self):
        assert HoistedBufferPolicy().choose([0, 0], [1.0, 1.0]) is None


class TestAdmissionLoop:
    def test_buffer_and_scale_lists_must_match(self):
        with pytest.raises(ValueError):
            run_admission([1.0] * 3, [1.0, 1.0], [4], HoistedBufferPolicy())

    def test_empty_trace(self):
        result = run_admission([], [1.0, 1.0], [2, 2], HoistedBufferPolicy())
        assert result.assignments == []
        assert result.counts == [0, 0]
        assert result.makespan == 0.0
        assert result.shares_percent() == [0.0, 0.0]

    def test_each_task_is_charged_cost_times_worker_scale(self):
        result = run_admission([0.5, 0.25, 0.25], [1.0, 2.0], [4, 4],
                               RoundRobinPolicy())
        assert result.assignments == [0, 1, 0]
        assert result.busy_time == pytest.approx([0.75, 0.5])
        assert result.makespan == pytest.approx(0.75)
        assert result.shares_percent() == pytest.approx([200 / 3, 100 / 3])

    def test_the_policy_it_is_given_is_reset_first(self):
        policy = RoundRobinPolicy()
        policy.choose([1, 1], [0.0, 0.0])
        result = run_admission([1.0, 1.0], [1.0, 1.0], [2, 2], policy)
        assert result.assignments == [0, 1]

    def test_a_policy_that_never_admits_stalls_loudly(self):
        class Never(AdmissionPolicy):
            def choose(self, free, pending):
                return None

        with pytest.raises(RuntimeError, match="stalled"):
            run_admission([1.0], [1.0], [1], Never())


class TestFigure14Simulator:
    """:class:`LoadBalanceSimulator` is the admission loop with Figure 14's
    region skew and buffer split; its shares are the loop's, exactly."""

    def test_hoisted_shares_are_the_admission_loops(self):
        simulator = LoadBalanceSimulator(regions=8, buffers=64,
                                         slow_factor=1.3)
        expected = run_admission(100_000, [1.3] + [1.0] * 7, [8] * 8,
                                 HoistedBufferPolicy())
        shares = [load.share_percent for load in simulator.run(100_000)]
        assert shares == expected.shares_percent()

    def test_unhoisted_run_partitions_statically(self):
        simulator = LoadBalanceSimulator(regions=4, slow_factor=2.0)
        static = simulator.run(1000, hoisted=False)
        assert [load.threads for load in static] == [250] * 4
        assert simulator.completion_time(static) == pytest.approx(500.0)


class TestPolicies:
    def test_round_robin_ignores_load(self):
        result = run_admission([1.0] * 9, [5.0, 1.0, 1.0], [2, 2, 2],
                               RoundRobinPolicy())
        assert result.counts == [3, 3, 3]
        assert result.assignments[:3] == [0, 1, 2]

    def test_static_round_robin_scales_to_large_traces(self):
        # A million-task static sweep must stay O(workers) in memory: a
        # task count instead of a cost list, no assignment list, no event
        # heap.  One million-element list alone is 8 MB.
        tracemalloc.start()
        try:
            result = run_admission(1_000_000, [1.3] + [1.0] * 7, [8] * 8,
                                   RoundRobinPolicy(), collect_assignments=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert result.counts == [125_000] * 8

    def test_hoisted_buffer_tracks_throughput(self):
        result = run_admission([1.0] * 10_000, [2.0, 1.0], [8, 8],
                               HoistedBufferPolicy())
        share_slow = result.counts[0] / sum(result.counts)
        # Twice-as-slow worker converges to ~1/3 of the work.
        assert share_slow == pytest.approx(1 / 3, abs=0.02)
