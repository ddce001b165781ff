"""Figure 14: the hoisted allocator's admission loop and the figure built on it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval import fig14_load_balancing
from repro.sim.load_balance import hoisted_counts


class TestHoistedCounts:
    def test_hand_worked_trace_with_a_tie(self):
        # Region 0 takes 2.0 per thread, region 1 takes 1.0, one buffer each.
        # 1 -> r0 (done 2.0); 2 -> r1 (done 1.0), all taken: r1 frees at 1.0.
        # 3 -> r1, as r0 is full (done 2.0); both complete at 2.0, and the
        # tie frees r0, the lower index, first.  4 -> r0 (done 4.0); r1
        # frees at 2.0.  5 -> r1 (done 3.0), which frees it.  6 -> r1.
        # Freeing r1 first at the tie would send thread 4 to r1: [1, 3].
        prefixes = [hoisted_counts(n, [2.0, 1.0], 2) for n in range(1, 7)]
        assert prefixes == [[1, 0], [1, 1], [1, 2], [2, 2], [2, 3], [2, 4]]

    def test_regions_without_a_free_buffer_are_skipped(self):
        # Region 0 holds its only buffer for 10.0 while the others cycle.
        assert hoisted_counts(6, [10.0, 1.0, 1.0], 3) == [1, 3, 2]

    def test_a_twice_as_slow_region_gets_a_third_of_the_work(self):
        counts = hoisted_counts(10_000, [2.0, 1.0], 16)
        assert sum(counts) == 10_000
        assert counts[0] / 10_000 == pytest.approx(1 / 3, abs=0.02)

    def test_zero_threads(self):
        assert hoisted_counts(0, [1.0, 1.0], 4) == [0, 0]

    def test_before_every_buffer_is_taken_threads_go_round_robin(self):
        # No completion is drawn while a buffer is free, so a slow region
        # still gets its turn: 9 buffers, 3 each, 9 threads.
        assert hoisted_counts(9, [10.0, 1.0, 1.0], 9) == [3, 3, 3]
        assert hoisted_counts(5, [10.0, 1.0, 1.0], 9) == [2, 2, 1]

    def test_equal_regions_split_evenly_to_within_their_buffers(self):
        for regions in (2, 3, 5):
            for buffers in (regions, 2 * regions, 3 * regions + 1):
                for threads in range(300):
                    counts = hoisted_counts(threads, [1.0] * regions, buffers)
                    assert max(counts) - min(counts) <= buffers // regions

    def test_buffers_beyond_an_even_split_stay_unused(self):
        # Each region holds buffers // regions: 5 buffers over 2 regions
        # behave as 4.
        for threads in range(40):
            assert (hoisted_counts(threads, [2.0, 1.0], 5)
                    == hoisted_counts(threads, [2.0, 1.0], 4))

    def test_a_single_region_takes_every_thread(self):
        assert hoisted_counts(7, [3.0], 1) == [7]
        assert hoisted_counts(7, [3.0], 4) == [7]

    def test_only_the_ratio_of_service_times_matters(self):
        # Doubling is exact in binary floating point, so every completion
        # time doubles and no tie breaks differently.
        times = [1.3] + [1.0] * 7
        doubled = [2 * t for t in times]
        for threads in (1, 63, 64, 65, 1000, 32_000):
            assert (hoisted_counts(threads, times, 64)
                    == hoisted_counts(threads, doubled, 64))

    def test_counts_sum_to_the_total(self):
        for times in ([1.0, 1.0], [1.3] + [1.0] * 7, [5.0, 1.0, 2.5]):
            for buffers in (len(times), 64):
                for threads in (0, 1, 7, 64, 999, 10_000):
                    assert sum(hoisted_counts(threads, times, buffers)) == threads

    def test_fewer_buffers_than_regions_is_refused(self):
        with pytest.raises(ValueError, match="3 buffers cannot feed 4 regions"):
            hoisted_counts(10, [1.0] * 4, 3)


class TestFigure14:
    def test_shares_are_the_admission_loops(self):
        counts = hoisted_counts(100_000, [1.3] + [1.0] * 7, 64)
        assert sum(counts) == 100_000
        (row,) = fig14_load_balancing(sizes=[100_000])
        assert row["slow_region_%"] == round(100.0 * counts[0] / 100_000, 2)
        assert row["fast_region_%"] == round(100.0 * max(counts[1:]) / 100_000, 2)
        assert row["slow_region_%"] < row["equal_share_%"] == 12.5
        assert row["hoisted_makespan"] < row["static_makespan"]

    def test_static_split_is_equal_and_its_makespan_is_the_slow_regions(self):
        # 8000 threads: 1000 each, the slow region's at 1.3 apiece.
        assert fig14_load_balancing(sizes=[8000])[0]["static_makespan"] == 1300.0
        # 10 threads: regions 0 and 1 take the two left over, so the slow
        # region holds 2 threads (2.6), not the 1 (1.3) the others hold.
        assert fig14_load_balancing(sizes=[10])[0]["static_makespan"] == 2.6

    def test_hoisted_makespan_is_the_largest_count_times_service_time(self):
        times = [1.3] + [1.0] * 7
        counts = hoisted_counts(32_000, times, 64)
        (row,) = fig14_load_balancing(sizes=[32_000])
        assert row["hoisted_makespan"] == round(
            max(count * time for count, time in zip(counts, times)), 1)

    def test_zero_threads(self):
        (row,) = fig14_load_balancing(sizes=[0])
        assert row["slow_region_%"] == row["fast_region_%"] == 0.0
        assert row["hoisted_makespan"] == row["static_makespan"] == 0.0


def test_the_serving_engine_does_not_load_the_admission_loop():
    # A fresh interpreter: this test session has imported it already.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[2] / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, repro.runtime.engine; "
             "print(*sorted(m for m in sys.modules if m.startswith('repro.sim')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro.sim", "repro.sim.perf_model"]
