"""Streaming tensor primitives (paper Section III-B).

These are the functional (untimed) semantics of the primitives a Revet
machine provides on SLTF links:

* element-wise operations,
* expansion (broadcast and counters, i.e. ``foreach``) and ``fork``,
* filtering and forward merging (acyclic subgraphs, i.e. ``if``).

Forward-backward merging (cyclic subgraphs, i.e. ``while``) is the token
executor's ``_op_while`` drain over these primitives.

Each primitive obeys the SLTF composability constraints:

1. every barrier that enters a primitive exits it exactly once, in order;
2. thread data is not reordered with respect to barriers (reordering is only
   allowed between barriers).

The functions here operate on complete token streams (Python lists); the
cycle-level simulator in :mod:`repro.sim` re-implements the same behaviour
with per-cycle bandwidth and buffering.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import PrimitiveError
from repro.core.sltf import Barrier, Data, Stream, Token

# ---------------------------------------------------------------------------
# Element-wise operations
# ---------------------------------------------------------------------------


def elementwise(fn: Callable[..., Any], *streams: Sequence[Token]) -> Stream:
    """Apply ``fn`` across the aligned data elements of parallel streams.

    All input streams must carry the same thread structure (same data count
    and identical barrier placement); this is what "parallel tensors carrying
    the live variables of the same threads" means in the paper.

    This is the hottest primitive on the serving path (every ``compute``
    node firing lands here), so the common unary and binary arities take
    single-pass specializations instead of the general token-tuple loop.
    """
    if not streams:
        raise PrimitiveError("elementwise requires at least one input stream")
    if len(streams) == 1:
        # Unary: no alignment to check; barriers pass through unchanged.
        return [Data(fn(t.value)) if isinstance(t, Data) else t
                for t in streams[0]]
    first = streams[0]
    length = len(first)
    for other in streams[1:]:
        if len(other) != length:
            raise PrimitiveError("element-wise inputs have different lengths")
    out: Stream = []
    append = out.append
    if len(streams) == 2:
        for ta, tb in zip(first, streams[1]):
            if isinstance(ta, Data):
                if not isinstance(tb, Data):
                    raise PrimitiveError(
                        f"element-wise inputs misaligned at {[ta, tb]}")
                append(Data(fn(ta.value, tb.value)))
            else:
                if not isinstance(tb, Barrier):
                    raise PrimitiveError(
                        f"element-wise inputs misaligned at {[ta, tb]}")
                if ta.level != tb.level:
                    raise PrimitiveError(
                        "element-wise inputs have mismatched barrier levels: "
                        f"{[ta, tb]}")
                append(ta)
        return out
    for toks in zip(*streams):
        if isinstance(toks[0], Data):
            values = []
            for t in toks:
                if not isinstance(t, Data):
                    raise PrimitiveError(
                        f"element-wise inputs misaligned at {list(toks)}")
                values.append(t.value)
            append(Data(fn(*values)))
        else:
            level = toks[0].level
            for t in toks[1:]:
                if not isinstance(t, Barrier):
                    raise PrimitiveError(
                        f"element-wise inputs misaligned at {list(toks)}")
                if t.level != level:
                    raise PrimitiveError(
                        "element-wise inputs have mismatched barrier levels: "
                        f"{list(toks)}")
            append(toks[0])
    return out


def map_stream(fn: Callable[[Any], Any], stream: Sequence[Token]) -> Stream:
    """Apply a unary function to every data element of a stream."""
    return [Data(fn(t.value)) if isinstance(t, Data) else t for t in stream]


def constant_like(stream: Sequence[Token], value: Any) -> Stream:
    """Produce a stream with the same structure as ``stream`` but constant data."""
    return [Data(value) if isinstance(t, Data) else t for t in stream]


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def broadcast(outer: Sequence[Token], inner: Sequence[Token]) -> Stream:
    """Repeat each element of ``outer`` across one group of ``inner``.

    ``outer`` is a k-D stream and ``inner`` a (k+1)-D stream; the result has
    the structure of ``inner`` with data drawn from ``outer``.  This is the
    scalar-to-vector broadcast used when a parent thread's live value is
    shared by all its children (paper Sections III-B(b) and III-C).
    """
    out: Stream = []
    outer_iter = iter(outer)
    current: Optional[Data] = None
    have_current = False

    def advance() -> None:
        nonlocal current, have_current
        current = None
        have_current = False
        for tok in outer_iter:
            if isinstance(tok, Data):
                current = tok
                have_current = True
                return
            # Barriers on the outer link are consumed when the matching
            # higher-level barrier arrives on the inner link; we simply skip
            # them here because the inner stream carries the full structure.
        have_current = False

    advance()
    for tok in inner:
        if isinstance(tok, Data):
            if not have_current:
                raise PrimitiveError("broadcast ran out of outer elements")
            out.append(Data(current.value))
        else:
            # The group of the current outer element ended.
            out.append(Barrier(tok.level))
            advance()
    return out


def counter(
    min_stream: Sequence[Token],
    max_stream: Sequence[Token],
    step_stream: Sequence[Token],
) -> Stream:
    """Expand k-D (min, max, step) streams into a (k+1)-D iteration stream.

    Every (min, max, step) triple becomes the sequence
    ``min, min+step, ... < max`` terminated by a level-1 barrier; existing
    barriers are raised by one level.
    """
    out: Stream = []
    zipped = elementwise(lambda a, b, c: (a, b, c), min_stream, max_stream, step_stream)
    for tok in zipped:
        if isinstance(tok, Data):
            lo, hi, step = tok.value
            if step == 0:
                raise PrimitiveError("counter step must be non-zero")
            value = lo
            while (step > 0 and value < hi) or (step < 0 and value > hi):
                out.append(Data(value))
                value += step
            # The level-1 barrier is kept explicit (one group per parent
            # thread); canonical compression is a link-level concern.
            out.append(Barrier(1))
        else:
            out.append(Barrier(tok.level + 1))
    return out


def fork_stream(counts: Sequence[Token], payload: Sequence[Token]) -> Stream:
    """Duplicate each thread ``count`` times *without* adding hierarchy.

    ``counts`` and ``payload`` are parallel streams; each payload element is
    repeated ``count`` times in place.  Barriers pass through unmodified.
    This implements the expansion half of a ``fork`` (expansion + flattening).
    """
    out: Stream = []
    for tok in elementwise(lambda n, v: (n, v), counts, payload):
        if isinstance(tok, Data):
            n, value = tok.value
            if n < 0:
                raise PrimitiveError(f"fork count must be >= 0, got {n}")
            out.extend(Data(value) for _ in range(n))
        else:
            out.append(tok)
    return out


# ---------------------------------------------------------------------------
# Acyclic subgraphs: filtering & forward merging
# ---------------------------------------------------------------------------


def filter_stream(data: Sequence[Token], predicate: Sequence[Token]) -> Stream:
    """Keep only the elements whose predicate is truthy; pass barriers through."""
    if len(data) != len(predicate):
        raise PrimitiveError("filter data and predicate have different lengths")
    out: Stream = []
    append = out.append
    for tok, keep in zip(data, predicate):
        if isinstance(tok, Barrier):
            if not isinstance(keep, Barrier) or keep.level != tok.level:
                raise PrimitiveError("filter predicate misaligned with data")
            append(tok)
        else:
            if isinstance(keep, Barrier):
                raise PrimitiveError("filter predicate misaligned with data")
            if keep.value:
                append(tok)
    return out


def _tags(stream: Sequence[Token]) -> List[int]:
    """A stream's structure: 0 per data element, each barrier's level."""
    return [tok.level if isinstance(tok, Barrier) else 0 for tok in stream]


def _check_structure(stream: Sequence[Token], tags: List[int], op: str) -> None:
    """Raise unless ``stream`` has the structure ``tags`` of ``op``'s predicate."""
    if len(stream) != len(tags):
        raise PrimitiveError(f"{op} data and predicate have different lengths")
    if _tags(stream) != tags:
        raise PrimitiveError("filter predicate misaligned with data")


def filter_streams(
    streams: Sequence[Sequence[Token]], predicate: Sequence[Token]
) -> List[Stream]:
    """Filter parallel streams by one predicate with a single predicate scan.

    Equivalent to ``[filter_stream(s, predicate) for s in streams]``: the
    predicate is scanned once for surviving positions, then each stream,
    checked against the predicate's structure, is gathered by index.
    """
    tags = _tags(predicate)
    positions = [j for j, tok in enumerate(predicate)
                 if isinstance(tok, Barrier) or tok.value]
    outs: List[Stream] = []
    for s in streams:
        _check_structure(s, tags, "filter")
        outs.append([s[j] for j in positions])
    return outs


def partition_streams(
    streams: Sequence[Sequence[Token]], predicate: Sequence[Token]
) -> Tuple[List[Stream], List[Stream]]:
    """Split parallel aligned streams into (kept, dropped) bundles.

    One predicate scan decides every stream's kept/dropped positions;
    barriers appear in both outputs (each branch of an ``if`` sees the same
    control structure).  Every stream must share the predicate's structure.
    """
    tags = _tags(predicate)
    kept_positions: List[int] = []
    dropped_positions: List[int] = []
    for j, tok in enumerate(predicate):
        if isinstance(tok, Barrier):
            kept_positions.append(j)
            dropped_positions.append(j)
        elif tok.value:
            kept_positions.append(j)
        else:
            dropped_positions.append(j)
    for s in streams:
        _check_structure(s, tags, "partition")
    kept = [[s[j] for j in kept_positions] for s in streams]
    dropped = [[s[j] for j in dropped_positions] for s in streams]
    return kept, dropped


def forward_merge(a: Sequence[Token], b: Sequence[Token]) -> Stream:
    """Merge two streams at the lowest dimension (the join after an ``if``).

    Data elements from both inputs within one barrier group are interleaved
    (here: ``a``'s elements then ``b``'s); when a barrier is reached on one
    input, that input stalls until an equal barrier arrives on the other,
    and a single barrier is emitted.  Threads therefore never cross barriers.
    """
    out: Stream = []
    ia, ib = 0, 0
    while ia < len(a) or ib < len(b):
        # Drain data from a until its next barrier.
        while ia < len(a) and isinstance(a[ia], Data):
            out.append(a[ia])
            ia += 1
        while ib < len(b) and isinstance(b[ib], Data):
            out.append(b[ib])
            ib += 1
        if ia >= len(a) and ib >= len(b):
            break
        if ia >= len(a) or ib >= len(b):
            raise PrimitiveError("forward merge inputs have mismatched barriers")
        bar_a, bar_b = a[ia], b[ib]
        if bar_a.level != bar_b.level:
            raise PrimitiveError(
                f"forward merge barrier mismatch: {bar_a} vs {bar_b}"
            )
        out.append(Barrier(bar_a.level))
        ia += 1
        ib += 1
    return out
