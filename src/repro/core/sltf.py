"""Structured-Link Tensor Format (SLTF).

The SLTF is Revet's on-chip data representation (paper Section III-A).  A
link carries a stream of tokens: data elements interleaved with *barriers*
(done-tokens) that encode the ends of ragged-tensor dimensions.  A barrier of
level ``n`` (written Omega_n in the paper) terminates dimension ``n``; it
implies the termination of lower dimensions only when data is pending in
them, which is what gives the empty tensors ``[[]]``, ``[[],[]]`` and ``[]``
their distinct encodings.

This module provides:

* :class:`Data` and :class:`Barrier` tokens,
* :func:`encode` / :func:`decode` between nested Python lists (ragged
  tensors) and token streams, and
* :func:`data_values`, a stream's data payloads.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Union

from repro.errors import SLTFError

#: Maximum barrier level supported by the on-chip encoding (4 bits, paper
#: Section III-A: "we assume ... n <= 15").
MAX_BARRIER_LEVEL = 15


class Data:
    """A single data element travelling on an SLTF link.

    Tokens are the most-allocated objects in the system (every primitive
    builds fresh streams), so they are hand-written slotted classes rather
    than frozen dataclasses: construction is ~2x faster, which is directly
    visible in cold serving throughput.  They are immutable by convention;
    value equality and hashing match the old dataclass behaviour.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is Data:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Data, self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"D({self.value!r})"


class Barrier:
    """A done-token terminating tensor dimension ``level`` (Omega_level)."""

    #: ``_closed_empty`` is transient bookkeeping for :func:`_compress`.
    __slots__ = ("level", "_closed_empty")

    def __init__(self, level: int):
        if level < 1:
            raise SLTFError(f"barrier level must be >= 1, got {level}")
        if level > MAX_BARRIER_LEVEL:
            raise SLTFError(
                f"barrier level {level} exceeds MAX_BARRIER_LEVEL "
                f"({MAX_BARRIER_LEVEL})"
            )
        self.level = level

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is Barrier:
            return self.level == other.level
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Barrier, self.level))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"B{self.level}"


Token = Union[Data, Barrier]
Stream = List[Token]


def data_values(stream: Iterable[Token]) -> List[Any]:
    """Extract the data payloads of a stream, dropping barriers."""
    return [tok.value for tok in stream if isinstance(tok, Data)]


def _encode_nested(tensor: Sequence, ndim: int) -> Stream:
    """Recursively encode ``tensor`` (an ``ndim``-dimensional nested list)."""
    if ndim == 1:
        return [Data(v) for v in tensor]
    tokens: Stream = []
    for child in tensor:
        tokens.extend(_encode_nested(child, ndim - 1))
        tokens.append(Barrier(ndim - 1))
    return tokens


def _compress(tokens: Stream) -> Stream:
    """Drop barriers implied by an immediately following higher barrier.

    A barrier Omega_k that closes a *non-empty* group is implied when it is
    immediately followed by a barrier of a strictly higher level, matching
    the paper's example ``[[0,1],[2]] -> 0, 1, O1, 2, O2``.
    """
    out: Stream = []
    # ``group_nonempty[k]`` tracks whether dimension ``k`` has pending data
    # (data or closed sub-groups) since the last barrier of level >= k.
    pending = [False] * (MAX_BARRIER_LEVEL + 2)
    for tok in tokens:
        if isinstance(tok, Data):
            out.append(tok)
            for lvl in range(1, MAX_BARRIER_LEVEL + 2):
                pending[lvl] = True
            continue
        # Barrier: drop trailing lower barriers that closed non-empty groups.
        while out and isinstance(out[-1], Barrier) and out[-1].level < tok.level:
            # The lower barrier is implied only if its group was non-empty.
            # Because we appended it, its group must have been empty or
            # non-empty; we recorded emptiness via a sentinel below.
            if getattr(out[-1], "_closed_empty", False):
                break
            out.pop()
        emitted = Barrier(tok.level)
        if not pending[tok.level]:
            # Closing an empty group: mark so a following higher barrier
            # does not absorb it.
            object.__setattr__(emitted, "_closed_empty", True)
        out.append(emitted)
        for lvl in range(1, tok.level + 1):
            pending[lvl] = False
        for lvl in range(tok.level + 1, MAX_BARRIER_LEVEL + 2):
            pending[lvl] = True
    # Strip the bookkeeping attribute so tokens compare equal to plain ones.
    cleaned: Stream = []
    for tok in out:
        if isinstance(tok, Barrier):
            cleaned.append(Barrier(tok.level))
        else:
            cleaned.append(tok)
    return cleaned


def encode(tensor: Sequence, ndim: int) -> Stream:
    """Encode an ``ndim``-dimensional ragged tensor into an SLTF stream.

    The stream is terminated by a single barrier of level ``ndim``.

    >>> encode([[0, 1], [2]], ndim=2)
    [D(0), D(1), B1, D(2), B2]
    >>> encode([[]], ndim=2)
    [B1, B2]
    >>> encode([], ndim=2)
    [B2]
    """
    if ndim < 1:
        raise SLTFError(f"tensor rank must be >= 1, got {ndim}")
    if ndim > MAX_BARRIER_LEVEL:
        raise SLTFError(f"tensor rank {ndim} exceeds MAX_BARRIER_LEVEL")
    tokens = _encode_nested(tensor, ndim)
    tokens.append(Barrier(ndim))
    return _compress(tokens)


def decode(stream: Iterable[Token], ndim: int) -> list:
    """Decode an SLTF stream back into an ``ndim``-dimensional nested list.

    The stream may contain multiple top-level tensors (each terminated by a
    level-``ndim`` barrier); in that case a list of tensors is *not*
    returned — use :func:`decode_all` instead.  :func:`decode` requires the
    stream to contain exactly one top-level tensor.
    """
    tensors = decode_all(stream, ndim)
    if len(tensors) != 1:
        raise SLTFError(
            f"expected exactly one level-{ndim} tensor in stream, found "
            f"{len(tensors)}"
        )
    return tensors[0]


def decode_all(stream: Iterable[Token], ndim: int) -> List[list]:
    """Decode a stream containing zero or more ``ndim``-D tensors."""
    if ndim < 1:
        raise SLTFError(f"tensor rank must be >= 1, got {ndim}")
    # groups[k] is the partially-built list of dimension k+1 (0-indexed).
    groups: List[list] = [[] for _ in range(ndim)]
    # pending[k] is True when dimension k+1 has received content since it
    # was last closed.
    pending = [False] * ndim
    results: List[list] = []

    def close(level: int) -> None:
        """Close dimensions 1..level, respecting implied-closure rules."""
        for lvl in range(1, level):
            if pending[lvl - 1]:
                groups[lvl].append(groups[lvl - 1])
                groups[lvl - 1] = []
                pending[lvl - 1] = False
                pending[lvl] = True
        # Explicitly close ``level`` itself (even if empty).
        if level < ndim:
            groups[level].append(groups[level - 1])
            pending[level] = True
        else:
            results.append(groups[level - 1])
        groups[level - 1] = []
        pending[level - 1] = False

    for tok in stream:
        if isinstance(tok, Data):
            groups[0].append(tok.value)
            pending[0] = True
        else:
            if tok.level > ndim:
                raise SLTFError(
                    f"barrier level {tok.level} exceeds stream rank {ndim}"
                )
            close(tok.level)
    if any(pending) or any(groups[k] for k in range(ndim)):
        raise SLTFError("stream ended with unterminated dimensions")
    return results
