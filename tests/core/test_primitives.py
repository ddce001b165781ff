"""Tests for the streaming tensor primitives (paper Section III-B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import primitives as prim
from repro.core.sltf import Barrier, Data, data_values, decode, encode
from repro.errors import PrimitiveError


class TestElementwise:
    def test_add_two_streams(self):
        a = encode([1, 2, 3], 1)
        b = encode([10, 20, 30], 1)
        out = prim.elementwise(lambda x, y: x + y, a, b)
        assert data_values(out) == [11, 22, 33]

    def test_barriers_pass_through(self):
        a = encode([[1], [2]], 2)
        out = prim.elementwise(lambda x: x * 2, a)
        assert decode(out, 2) == [[2], [4]]

    def test_requires_inputs(self):
        with pytest.raises(PrimitiveError):
            prim.elementwise(lambda: 0)

    def test_misaligned_inputs_raise(self):
        with pytest.raises(PrimitiveError):
            prim.elementwise(lambda x, y: x, [Data(1), Barrier(1)], [Barrier(1), Data(1)])

    def test_length_mismatch_raises(self):
        with pytest.raises(PrimitiveError):
            prim.elementwise(lambda x, y: x, encode([1, 2], 1), encode([1], 1))

    def test_mismatched_barrier_levels_raise(self):
        with pytest.raises(PrimitiveError):
            prim.elementwise(lambda x, y: x, [Barrier(1)], [Barrier(2)])

    def test_map_and_const(self):
        s = encode([[1, 2]], 2)
        assert data_values(prim.map_stream(lambda v: v + 1, s)) == [2, 3]
        assert data_values(prim.constant_like(s, 9)) == [9, 9]


class TestBroadcast:
    def test_parent_value_repeats_over_children(self):
        outer = encode([100, 200], 1)
        inner = encode([[1, 2, 3], [4]], 2)
        out = prim.broadcast(outer, inner)
        assert decode(out, 2) == [[100, 100, 100], [200]]

    def test_empty_child_group_skips_parent(self):
        outer = encode([7, 8], 1)
        inner = encode([[], [1, 2]], 2)
        out = prim.broadcast(outer, inner)
        assert decode(out, 2) == [[], [8, 8]]

    def test_runs_out_of_outer_elements(self):
        with pytest.raises(PrimitiveError):
            prim.broadcast(encode([1], 1), encode([[1], [2]], 2))


class TestCounterFork:
    def test_counter_expands_ranges(self):
        lo = encode([0, 0], 1)
        hi = encode([3, 1], 1)
        step = encode([1, 1], 1)
        out = prim.counter(lo, hi, step)
        assert decode(out, 2) == [[0, 1, 2], [0]]

    def test_counter_empty_range(self):
        out = prim.counter(encode([5], 1), encode([5], 1), encode([1], 1))
        assert decode(out, 2) == [[]]

    def test_counter_negative_step(self):
        out = prim.counter(encode([3], 1), encode([0], 1), encode([-1], 1))
        assert decode(out, 2) == [[3, 2, 1]]

    def test_counter_zero_step_raises(self):
        with pytest.raises(PrimitiveError):
            prim.counter(encode([0], 1), encode([1], 1), encode([0], 1))

    def test_fork_duplicates_threads(self):
        counts = encode([2, 0, 3], 1)
        payload = encode([7, 8, 9], 1)
        out = prim.fork_stream(counts, payload)
        assert decode(out, 1) == [7, 7, 9, 9, 9]

    def test_fork_negative_count_raises(self):
        with pytest.raises(PrimitiveError):
            prim.fork_stream(encode([-1], 1), encode([1], 1))


class TestFilterMerge:
    def test_filter_keeps_true_elements(self):
        data = encode([[1, 2, 3], [4, 5]], 2)
        pred = encode([[1, 0, 1], [0, 1]], 2)
        assert decode(prim.filter_stream(data, pred), 2) == [[1, 3], [5]]

    def test_filter_misaligned_raises(self):
        with pytest.raises(PrimitiveError):
            prim.filter_stream([Data(1), Barrier(1)], [Barrier(1), Data(1)])
        with pytest.raises(PrimitiveError):
            prim.filter_stream([Data(1)], [Data(1), Barrier(1)])

    def test_partition_covers_both_branches(self):
        data = encode([1, 2, 3, 4], 1)
        pred = encode([1, 0, 0, 1], 1)
        [taken], [fallthrough] = prim.partition_streams([data], pred)
        assert data_values(taken) == [1, 4]
        assert data_values(fallthrough) == [2, 3]

    def test_forward_merge_interleaves_within_barriers(self):
        a = encode([[1, 2], [5]], 2)
        b = encode([[3], [6, 7]], 2)
        merged = prim.forward_merge(a, b)
        out = decode(merged, 2)
        assert sorted(out[0]) == [1, 2, 3]
        assert sorted(out[1]) == [5, 6, 7]

    def test_forward_merge_barrier_mismatch_raises(self):
        with pytest.raises(PrimitiveError):
            prim.forward_merge([Barrier(1)], [Barrier(2)])
        with pytest.raises(PrimitiveError):
            prim.forward_merge([Data(1)], [Barrier(1)])

    def test_filter_then_merge_is_a_permutation_within_groups(self):
        # The if-statement contract (Figure 3): filter into two branches and
        # forward-merge them back; threads stay within their barrier group.
        data = encode([[1, 2, 3, 4], [5, 6]], 2)
        pred = encode([[1, 0, 1, 0], [0, 1]], 2)
        [taken], [other] = prim.partition_streams([data], pred)
        merged = prim.forward_merge(taken, other)
        out = decode(merged, 2)
        assert sorted(out[0]) == [1, 2, 3, 4]
        assert sorted(out[1]) == [5, 6]

class TestCompositionProperties:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_counter_expands_one_group_per_range(self, counts):
        lo = encode([0] * len(counts), 1)
        hi = encode(counts, 1)
        step = encode([1] * len(counts), 1)
        expanded = prim.counter(lo, hi, step)
        assert decode(expanded, 2) == [list(range(n)) for n in counts]

    @given(
        st.lists(st.tuples(st.integers(-20, 20), st.booleans()), max_size=10)
    )
    @settings(max_examples=60)
    def test_partition_then_merge_preserves_multiset(self, items):
        data = encode([v for v, _ in items], 1)
        pred = encode([int(p) for _, p in items], 1)
        [taken], [other] = prim.partition_streams([data], pred)
        merged = prim.forward_merge(taken, other)
        assert sorted(data_values(merged)) == sorted(v for v, _ in items)

    @given(st.lists(st.lists(st.integers(-10, 10), max_size=4), max_size=4))
    @settings(max_examples=60)
    def test_barriers_exit_once_and_in_order(self, tensor):
        # SLTF constraint 1: every barrier entering a primitive exits exactly
        # once, in order.  Check it for a filter (keep-all predicate).
        stream = encode(tensor, 2)
        pred = prim.constant_like(stream, 1)
        out = prim.filter_stream(stream, pred)
        assert [t for t in out if isinstance(t, Barrier)] == [
            t for t in stream if isinstance(t, Barrier)
        ]
