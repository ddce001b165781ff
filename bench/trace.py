"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
span that was open when this one started (``None`` for a root) and ``op``
identifies the benchmark operation the span belongs to, so all spans of one
operation share it.  Spans stay in memory until :meth:`Tracer.write`.

A span's *self time* is its duration minus the part of its interval that its
child spans cover; children may overlap each other, so the cover is the union
of their intervals clipped to the parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread; the clock is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        self._clock = clock
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[Span]:
        """Time the body as a child of whichever span is open now."""
        parent = self._open[-1] if self._open else None
        span = Span(name, self._clock(), 0.0, parent, op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._open.pop()

    def add(self, name: str, start: float, end: float, op: int,
            parent: Optional[int] = None) -> int:
        """Record a span whose times were taken elsewhere; returns its index."""
        self.spans.append(Span(name, start, end, parent, op))
        return len(self.spans) - 1

    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return [
            span.duration - _covered(span, children.get(index, []))
            for index, span in enumerate(self.spans)
        ]

    def write(self, path: Path) -> None:
        """Dump every span (with its self time) as one JSON document."""
        rows = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, "self": self_time}
            for s, self_time in zip(self.spans, self.self_times())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n")


def _covered(parent: Span, children: List[Span]) -> float:
    """Length of the union of the children's intervals inside the parent's."""
    covered = 0.0
    reach = parent.start
    for child in sorted(children, key=lambda s: s.start):
        start = max(child.start, reach)
        end = min(child.end, parent.end)
        if end > start:
            covered += end - start
            reach = end
    return covered
