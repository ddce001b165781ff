"""Tests for the Structured-Link Tensor Format encode/decode and utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sltf import Barrier, Data, data_values, decode, decode_all, encode
from repro.errors import SLTFError


class TestTokens:
    def test_data_holds_value(self):
        assert Data(7).value == 7

    def test_barrier_level_must_be_positive(self):
        with pytest.raises(SLTFError):
            Barrier(0)

    def test_barrier_level_bounded(self):
        with pytest.raises(SLTFError):
            Barrier(16)


class TestPaperEncodings:
    """The exact encodings given in Section III-A of the paper."""

    def test_two_dim_example(self):
        # [[0, 1], [2]] -> 0, 1, O1, 2, O2
        assert encode([[0, 1], [2]], ndim=2) == [
            Data(0),
            Data(1),
            Barrier(1),
            Data(2),
            Barrier(2),
        ]

    def test_empty_tensor_distinctions(self):
        # [[]] vs [[],[]] vs [] have distinct encodings.
        assert encode([[]], ndim=2) == [Barrier(1), Barrier(2)]
        assert encode([[], []], ndim=2) == [Barrier(1), Barrier(1), Barrier(2)]
        assert encode([], ndim=2) == [Barrier(2)]

    def test_one_dim(self):
        assert encode([5, 6], ndim=1) == [Data(5), Data(6), Barrier(1)]
        assert encode([], ndim=1) == [Barrier(1)]

    def test_three_dim_nested(self):
        stream = encode([[[1]], []], ndim=3)
        assert stream == [Data(1), Barrier(2), Barrier(2), Barrier(3)]

    def test_trailing_empty_inner_group(self):
        assert encode([[1], []], ndim=2) == [
            Data(1),
            Barrier(1),
            Barrier(1),
            Barrier(2),
        ]

    def test_leading_empty_inner_group(self):
        assert encode([[], [1]], ndim=2) == [Barrier(1), Data(1), Barrier(2)]


class TestDecode:
    def test_roundtrip_simple(self):
        t = [[0, 1], [2]]
        assert decode(encode(t, 2), 2) == t

    def test_decode_rejects_multiple_tensors(self):
        stream = encode([1], 1) + encode([2], 1)
        with pytest.raises(SLTFError):
            decode(stream, 1)
        assert decode_all(stream, 1) == [[1], [2]]

    def test_decode_rejects_unterminated(self):
        with pytest.raises(SLTFError):
            decode([Data(1)], 1)

    def test_decode_rejects_over_rank_barrier(self):
        with pytest.raises(SLTFError):
            decode([Data(1), Barrier(3)], 2)


def ragged(depth: int):
    """Hypothesis strategy for ragged tensors of a given depth."""
    values = st.integers(min_value=-100, max_value=100)
    strategy = st.lists(values, max_size=4)
    for _ in range(depth - 1):
        strategy = st.lists(strategy, max_size=3)
    return strategy


class TestRoundtripProperties:
    @given(ragged(1))
    @settings(max_examples=100)
    def test_roundtrip_1d(self, tensor):
        assert decode(encode(tensor, 1), 1) == tensor

    @given(ragged(2))
    @settings(max_examples=100)
    def test_roundtrip_2d(self, tensor):
        assert decode(encode(tensor, 2), 2) == tensor

    @given(ragged(3))
    @settings(max_examples=100)
    def test_roundtrip_3d(self, tensor):
        assert decode(encode(tensor, 3), 3) == tensor

    @given(ragged(2))
    @settings(max_examples=100)
    def test_exactly_one_top_level_barrier(self, tensor):
        stream = encode(tensor, 2)
        assert stream.count(Barrier(2)) == 1
        assert stream[-1] == Barrier(2)

    @given(ragged(2))
    @settings(max_examples=100)
    def test_element_count_preserved(self, tensor):
        stream = encode(tensor, 2)
        assert len(data_values(stream)) == sum(len(g) for g in tensor)

    @given(ragged(2), ragged(2))
    @settings(max_examples=50)
    def test_concatenated_tensors_decode_all(self, a, b):
        stream = encode(a, 2) + encode(b, 2)
        assert decode_all(stream, 2) == [a, b]


class TestUtilities:
    def test_data_values(self):
        assert data_values(encode([[1, 2], [3]], 2)) == [1, 2, 3]

    def test_encode_rejects_bad_rank(self):
        with pytest.raises(SLTFError):
            encode([1], 0)
        with pytest.raises(SLTFError):
            decode_all([], 0)
