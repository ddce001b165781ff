"""Stack-wide telemetry: metrics registry, request tracing, slow-request ring.

Three pillars, all stdlib-only:

* **Metrics registry** — :class:`MetricsRegistry` holds lock-cheap
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` families with
  optional labels.  Histograms use fixed log-spaced buckets, so p50/p95/p99
  are derivable from the bucket counts without storing samples.  A registry
  is instantiated per process and is the only store of the counts the
  serving stack reports: each event increments one family where it
  happens.  :meth:`MetricsRegistry.snapshot` produces a picklable, mergeable
  document, which is how worker-child metrics flow back to the pool parent
  with each flush reply, and :func:`family_total` reads a count back out of
  one.

* **Request tracing** — :func:`new_trace_id` mints ids (clients may mint
  their own); ``trace_id``/``trace`` ride the
  :class:`~repro.runtime.engine.Request` wire form through the gateway,
  :class:`PoolService`, pool dispatch, and worker execution, and the
  accumulated span breakdown (queue-wait → dispatch/flush → compile →
  execute → respond) comes back in the opt-in ``trace`` response field.
  Tracing is byte-transparent: a request that does not opt in gets the
  bytes a bare :class:`~repro.runtime.engine.Engine` answers it with.

* **Slow-request ring** — :class:`SlowRing` retains the top-K slowest
  requests seen by the front door (a min-heap keyed on duration), queryable
  via ``GET /v1/slow`` and the NDJSON ``slow`` op, so "where did this slow
  request spend its time?" is answerable after the fact.

:func:`render_prometheus` is the one exposition renderer, shared by the
gateway's ``GET /metrics`` and the NDJSON ``metrics`` op.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import threading
import uuid
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowRing",
    "default_buckets",
    "family_total",
    "merge_snapshots",
    "new_trace_id",
    "quantile_from_buckets",
    "render_prometheus",
]


def new_trace_id() -> str:
    """Mint one request trace id (16 hex chars, collision-safe enough)."""
    return uuid.uuid4().hex[:16]


def default_buckets() -> List[float]:
    """The stack's shared log-spaced latency buckets, in seconds.

    10 µs to ~84 s doubling per bucket (24 bounds): fine enough that
    p50/p95/p99 interpolation is meaningful for both the ~20 µs warm hit
    path and multi-second cold flushes, and coarse enough that a histogram
    snapshot is 24 ints, not a sample list.
    """
    return [1e-5 * 2.0**i for i in range(24)]


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile from bucket counts (Prometheus-style).

    ``counts`` has one entry per bound plus the overflow (+Inf) bucket.
    Linear interpolation inside the target bucket; the overflow bucket
    reports its lower bound (there is no upper edge to interpolate to).
    Returns 0.0 for an empty histogram.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            if index >= len(bounds):
                return bounds[-1] if bounds else 0.0
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (rank - seen) / count
            return lower + (upper - lower) * fraction
        seen += count
    return bounds[-1] if bounds else 0.0


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, str]) -> Tuple[str, ...]:
    if labels.keys() != set(labelnames):
        raise ValueError(f"expected labels {list(labelnames)}, got {sorted(labels)}")
    return tuple([str(labels[name]) for name in labelnames])


class _Metric:
    """Shared family plumbing: name, help, label schema, child table.

    A child is a one-element list holding the value, except a histogram's.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _zero(self) -> Any:
        return [0.0]

    def _child(self, labels: Dict[str, str]) -> Any:
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children.setdefault(key, self._zero())
        return child

    def snapshot_values(self) -> Dict[Tuple[str, ...], Any]:
        """Picklable copy of every child's value, keyed by label values."""
        with self._lock:
            return {key: child[0] for key, child in self._children.items()}


class Counter(_Metric):
    """A monotonically increasing count (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to this counter's labelled child."""
        with self._lock:
            self._child(labels)[0] += amount

    def value(self, **labels: str) -> float:
        """Current total for one label set (0.0 if never incremented)."""
        with self._lock:
            key = _label_key(self.labelnames, labels)
            child = self._children.get(key)
            return child[0] if child else 0.0


class Gauge(_Metric):
    """A value that can go up and down (per label set).

    Merging snapshots *sums* gauges: pool-level gauges (in-flight work,
    resident programs) are per-process shares of one stack-wide quantity.
    """

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the gauge's current value for one label set."""
        with self._lock:
            self._child(labels)[0] = float(value)


class Histogram(_Metric):
    """Bucketed latency distribution over fixed log-spaced bounds.

    Each child is ``[counts per bound + overflow, sum, count]``; quantiles
    come from :func:`quantile_from_buckets`, so no samples are retained.
    One ``observe`` is a bisect plus three in-place adds under the family
    lock — cheap enough for per-batch (and even per-request) use.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help, labelnames)
        self.bounds: List[float] = sorted(
            buckets if buckets is not None else default_buckets()
        )

    def _zero(self) -> Dict[str, Any]:
        return {"buckets": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels: str) -> None:
        """Record one measurement into its bucket."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            child = self._child(labels)
            child["buckets"][index] += 1
            child["sum"] += value
            child["count"] += 1

    def snapshot_values(self) -> Dict[Tuple[str, ...], Dict[str, Any]]:
        """Picklable deep copy of every child's buckets/sum/count."""
        with self._lock:
            return {
                key: {
                    "buckets": list(child["buckets"]),
                    "sum": child["sum"],
                    "count": child["count"],
                }
                for key, child in self._children.items()
            }


class MetricsRegistry:
    """One process's metric families, snapshot-mergeable across processes.

    ``counter``/``gauge``/``histogram`` create-or-return a family by name
    (idempotent, so instrumented modules need no central declaration
    point).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def _register(self, factory: Callable[[], _Metric], name: str, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {kind}"
                )
            return metric

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()):
        """Create or fetch a :class:`Counter` family."""
        return self._register(lambda: Counter(name, help, labelnames), name, "counter")

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()):
        """Create or fetch a :class:`Gauge` family."""
        return self._register(lambda: Gauge(name, help, labelnames), name, "gauge")

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        """Create or fetch a :class:`Histogram` family."""
        return self._register(
            lambda: Histogram(name, help, labelnames, buckets), name, "histogram"
        )

    def add_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at snapshot time to set gauges.

        A collector reads live state that is not an event count (tokens in
        flight, programs resident); counts are incremented where they
        happen, never copied in here.
        """
        self._collectors.append(collector)

    def snapshot(self) -> Dict[str, Any]:
        """Picklable document of every family (collectors run first).

        Format (stable, merged by :func:`merge_snapshots`)::

            {name: {"kind": ..., "help": ..., "labelnames": [...],
                    "bounds": [...]  # histograms only
                    "values": {(label values...): value}}}
        """
        for collector in list(self._collectors):
            collector(self)
        document: Dict[str, Any] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            entry: Dict[str, Any] = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "values": metric.snapshot_values(),
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
            document[metric.name] = entry
        return document


def _merge_value(kind: str, into: Any, value: Any) -> Any:
    if kind == "histogram":
        if into is None:
            return {
                "buckets": list(value["buckets"]),
                "sum": value["sum"],
                "count": value["count"],
            }
        if len(into["buckets"]) != len(value["buckets"]):
            raise ValueError("cannot merge histograms with different buckets")
        into["buckets"] = [a + b for a, b in zip(into["buckets"], value["buckets"])]
        into["sum"] += value["sum"]
        into["count"] += value["count"]
        return into
    return value if into is None else into + value


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold many registry snapshots into one (counters/histograms sum).

    This is how per-worker engine metrics aggregate into the pool-wide
    view: each worker ships its own registry snapshot back with the flush
    reply, and the parent merges the latest snapshot per worker.  Families
    must agree on kind and (for histograms) bucket bounds.
    """
    merged: Dict[str, Any] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            target = merged.get(name)
            if target is None:
                target = {
                    "kind": entry["kind"],
                    "help": entry["help"],
                    "labelnames": list(entry["labelnames"]),
                    "values": {},
                }
                if "bounds" in entry:
                    target["bounds"] = list(entry["bounds"])
                merged[name] = target
            elif target["kind"] != entry["kind"]:
                raise ValueError(
                    f"metric {name!r} has conflicting kinds: "
                    f"{target['kind']} vs {entry['kind']}"
                )
            for key, value in entry["values"].items():
                target["values"][key] = _merge_value(
                    entry["kind"], target["values"].get(key), value
                )
    return merged


def family_total(snapshot: Dict[str, Any], name: str, **labels: str) -> float:
    """Sum of one family's children in a snapshot document.

    ``labels`` picks the children whose labels include those values; none
    sums every child.  A histogram child contributes the sum of its
    observations.  An absent family reads 0.0 (a worker that has not
    replied yet has an empty document).
    """
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    names = entry["labelnames"]
    wanted = {names.index(label): str(value) for label, value in labels.items()}
    return sum(
        total["sum"] if entry["kind"] == "histogram" else total
        for key, total in entry["values"].items()
        if not wanted or all(key[i] == value for i, value in wanted.items())
    )


def _format_value(value: float) -> str:
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames: Sequence[str], key: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(f'{name}="{val}"' for name, val in zip(labelnames, key))
    return "{" + pairs + "}"


def _bucket_labels(labelnames: Sequence[str], key: Sequence[str], le: str) -> str:
    pairs = [f'{name}="{val}"' for name, val in zip(labelnames, key)]
    pairs.append(f'le="{le}"')
    return "{" + ",".join(pairs) + "}"


def render_prometheus(snapshots: Iterable[Dict[str, Any]]) -> str:
    """Render merged snapshots as Prometheus text exposition (format 0.0.4).

    One renderer serves both exposition surfaces: the gateway's
    ``GET /metrics`` and the NDJSON ``metrics`` op.  Families are emitted
    in sorted-name order with ``# HELP``/``# TYPE`` preambles; histograms
    expand to cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.
    """
    merged = merge_snapshots(snapshots)
    lines: List[str] = []
    for name in sorted(merged):
        entry = merged[name]
        labelnames = entry["labelnames"]
        lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        for key in sorted(entry["values"]):
            value = entry["values"][key]
            if entry["kind"] == "histogram":
                bounds = entry["bounds"]
                cumulative = list(itertools.accumulate(value["buckets"]))
                for bound, count in zip(bounds, cumulative):
                    lines.append(
                        f"{name}_bucket"
                        f"{_bucket_labels(labelnames, key, repr(float(bound)))}"
                        f" {count}"
                    )
                lines.append(
                    f"{name}_bucket{_bucket_labels(labelnames, key, '+Inf')}"
                    f" {cumulative[-1] if cumulative else 0}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labelnames, key)}"
                    f" {repr(float(value['sum']))}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labelnames, key)}"
                    f" {value['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labelnames, key)}"
                    f" {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


class SlowRing:
    """Bounded retention of the top-K slowest requests the front door saw.

    A min-heap keyed on duration: a new entry displaces the current
    fastest member only when it is slower, so the ring always holds the K
    slowest requests observed (not the K most recent).  Thread-safe;
    :meth:`payload` is the wire form ``GET /v1/slow`` and the NDJSON
    ``slow`` op share.
    """

    def __init__(self, capacity: int = 32):
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._heap: List[Tuple[float, int, Dict[str, Any]]] = []
        self._sequence = 0
        self.recorded = 0

    def record(self, duration_s: float, entry: Dict[str, Any]) -> None:
        """Offer one request record; kept only if among the K slowest."""
        with self._lock:
            self.recorded += 1
            self._sequence += 1
            item = (duration_s, self._sequence, entry)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, item)
            elif duration_s > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)

    def entries(self) -> List[Dict[str, Any]]:
        """The retained records, slowest first."""
        with self._lock:
            items = sorted(self._heap, key=lambda item: (-item[0], item[1]))
        return [dict(entry, duration_s=round(duration, 6))
                for duration, _, entry in items]

    def payload(self) -> Dict[str, Any]:
        """JSON envelope for the slow-request endpoints."""
        return {
            "ok": True,
            "op": "slow",
            "capacity": self.capacity,
            "recorded": self.recorded,
            "slowest": self.entries(),
        }
