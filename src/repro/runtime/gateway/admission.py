"""Rate-aware admission control and the shared pool front door.

The pool measures one number, its capacity: requests per worker-busy-second
summed over workers.  :class:`AdmissionController` turns it into a *token
budget* — at most ``capacity × headroom`` requests in flight (``headroom``
is literally "seconds of queued work"), though an idle server admits any
call — and sheds everything beyond it with a computed retry hint instead
of queueing it.

:class:`PoolService` is the front door: one
:class:`~repro.runtime.pool.WorkerPool`, its short front lock (submit,
coalesce, result-tier lookup) and one ``pool_lock`` serializing only the
flushes that reach a worker, one admission controller, and the one table
of what the service can do (``request``, ``batch``, ``stream``,
``stats``, ``metrics``, ``slow``, ``health``).  The table does
not know who calls it: every entry takes already-decoded, already-shaped
arguments plus the caller's own endpoint label, and answers a door-neutral
:class:`Reply`.  The listener (:class:`~repro.runtime.server.RuntimeServer`)
only frames: its NDJSON line handler and its HTTP handler
(:mod:`repro.runtime.gateway.http`) each own their op/route map, the body
shapes they accept, their refusal wording and their envelope keys, so both
doors shed load identically — a 429 envelope on one wire is a 429 status on
the other, backed by the same token bucket.  Its counts live in the pool's
registry; ``stats`` and ``metrics`` render from one list of snapshots.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

from repro.errors import ReproError
from repro.runtime.engine import Request
from repro.runtime.logs import event, get_logger
from repro.runtime.pool import PoolError, WorkerPool
from repro.runtime.telemetry import (
    MetricsRegistry,
    SlowRing,
    family_total,
    new_trace_id,
    quantile_from_buckets,
    render_prometheus,
)

_LOG = get_logger(__name__)

#: Bumped when a wire-visible field changes meaning; every framing stamps it.
PROTOCOL_VERSION = 1
#: The capacity (requests/s) assumed until a worker has served.
COLD_CAPACITY_RPS = 100.0
#: Bounds of the retry hint on a shed call, seconds.
MIN_RETRY_S = 0.05
MAX_RETRY_S = 10.0
#: Slowest front-door calls the ``slow`` op retains.
SLOW_RING_SIZE = 32


class Reply(NamedTuple):
    """What a table entry answers, before a framing encodes it.

    ``status`` is 200, 429 (the whole call was shed; ``payload`` is the one
    envelope that says so and ``retry_after_s`` the unrounded hint) or 400
    (``payload`` is an ``{"ok": false, "error": ...}`` envelope).  On 200
    ``payload`` is the entry's own: one result object, a list of them, or
    an iterator of per-flush :class:`ServeResult`.
    """

    status: int
    payload: Any
    retry_after_s: float = 0.0


@dataclass
class AdmissionDecision:
    """Outcome of one :meth:`AdmissionController.try_acquire` call."""

    admitted: bool
    requested: int
    inflight: int
    limit: int
    #: Suggested client wait before retrying, seconds (0.0 when admitted).
    retry_after_s: float = 0.0


def drain_rps(capacity_rps: float) -> float:
    """The capacity a budget is sized from: the measured one, or
    :data:`COLD_CAPACITY_RPS` before any worker has served."""
    return capacity_rps if capacity_rps > 0.0 else COLD_CAPACITY_RPS


class AdmissionController:
    """Token-budget admission over the pool's measured capacity.

    The budget is ``max_inflight`` when set explicitly, otherwise
    ``ceil(capacity × headroom)``, where each call passes ``capacity_rps``
    in (:meth:`~repro.runtime.pool.WorkerPool.capacity_rps`; 0.0, before
    any worker has served, reads as :data:`COLD_CAPACITY_RPS`).  The
    derived budget is work-conserving: a call that finds nothing in flight
    is admitted whatever its size, and runs alone.  An operator-set
    ``max_inflight`` refuses an oversized call even on an idle server.

    ``retry_after_s`` on a rejection is the time that capacity needs to
    clear the excess — the ``Retry-After`` the gateway puts on the wire —
    clamped to ``[MIN_RETRY_S, MAX_RETRY_S]``.

    Thread-safe: the handler threads of both listeners share one
    controller.  It keeps only state under its lock (tokens in flight and
    their peak); :class:`PoolService` counts what it admits and sheds.
    """

    def __init__(self, max_inflight: Optional[int] = None, headroom: float = 2.0):
        if max_inflight is not None and max_inflight < 0:
            raise ValueError("max_inflight must be >= 0")
        if not (math.isfinite(headroom) and headroom > 0.0):
            raise ValueError("headroom must be finite and positive (seconds)")
        self.max_inflight = max_inflight
        self.headroom = headroom
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak_inflight = 0

    @property
    def inflight(self) -> int:
        """Requests holding a token now."""
        return self._inflight

    def limit(self, capacity_rps: float = 0.0) -> int:
        """The token budget (maximum admitted in-flight requests)."""
        if self.max_inflight is not None:
            return self.max_inflight
        return math.ceil(drain_rps(capacity_rps) * self.headroom)

    # -- token accounting ---------------------------------------------------

    def try_acquire(self, n: int = 1, capacity_rps: float = 0.0) -> AdmissionDecision:
        """Admit ``n`` requests, or reject them with a retry hint."""
        capacity = drain_rps(capacity_rps)
        limit = self.limit(capacity)
        with self._lock:
            idle = self._inflight == 0 and self.max_inflight is None
            admitted = idle or self._inflight + n <= limit
            retry = 0.0
            if admitted:
                self._inflight += n
                self.peak_inflight = max(self.peak_inflight, self._inflight)
            else:
                excess = self._inflight + n - limit
                retry = min(max(excess / capacity, MIN_RETRY_S), MAX_RETRY_S)
            return AdmissionDecision(admitted, n, self._inflight, limit, retry)

    def release(self, n: int = 1) -> None:
        """Return ``n`` tokens after their flush completes; never raises."""
        with self._lock:
            self._inflight = max(0, self._inflight - n)


@dataclass
class ServeResult:
    """One front-door serve call: per-request result dicts plus shed state."""

    results: List[Dict[str, Any]]
    shed: bool = False
    retry_after_s: float = 0.0


def overload_envelope(decision: AdmissionDecision) -> Dict[str, Any]:
    """The wire form of a shed request, shared by both front-ends.

    ``requested``/``limit`` say how far over the budget the call was.  A
    call larger than a derived budget is still admitted once the server
    is idle, so neither is a reason to stop retrying.
    """
    return {
        "ok": False,
        "error": (
            f"overloaded: {decision.inflight}/{decision.limit} requests in "
            f"flight; retry in {decision.retry_after_s:.3f}s"
        ),
        "code": 429,
        "retry_after_s": round(decision.retry_after_s, 3),
        "requested": decision.requested,
        "limit": decision.limit,
    }


def iter_subbatches(items: Sequence[Any], chunk: int) -> Iterator[List[Any]]:
    """Split a request list into flush-sized sub-batches, order-preserving."""
    step = max(1, int(chunk))
    for start in range(0, len(items), step):
        yield list(items[start : start + step])


def _shed_reply(result: ServeResult) -> Reply:
    """One 429 envelope for a whole shed call.

    Every request of a shed call carries the same envelope; the whole-call
    form is the first of them with the retry hint left unrounded.
    """
    envelope = dict(result.results[0], retry_after_s=result.retry_after_s)
    return Reply(429, envelope, result.retry_after_s)


class PoolService:
    """The shared front door: one pool, its locks, one admission controller.

    ``admission=None`` disables shedding entirely (kept for tests).  What
    the service can do is the table below — :meth:`request`, :meth:`batch`
    and :meth:`stream` answer a :class:`Reply` (they can be shed or
    refused); :meth:`stats_payload`, :meth:`metrics_text`,
    :meth:`slow_payload` and :meth:`health_payload` always succeed and
    return their payload directly.  Everything that serves requests goes
    through :meth:`serve_payloads`.
    """

    def __init__(
        self,
        pool: WorkerPool,
        admission: Optional[AdmissionController] = None,
    ):
        self.pool = pool
        self.admission = admission
        self.pool_lock = threading.Lock()
        self._failure_callbacks: List[Callable[[], None]] = []
        # The front-door families join the pool's registry, the process's one.
        metrics = pool.metrics
        self.slow_ring = SlowRing(capacity=SLOW_RING_SIZE)
        self._m_requests = metrics.counter(
            "frontdoor_requests_total",
            "Requests through the shared front door, by endpoint and status.",
            ("endpoint", "status"),
        )
        self._m_latency = metrics.histogram(
            "frontdoor_request_seconds",
            "Front-door serve-call wall clock, by endpoint.",
            ("endpoint",),
        )
        self._m_queue_wait = metrics.histogram(
            "frontdoor_queue_wait_seconds",
            "Seconds an admitted serve call waited for the pool lock.",
        )
        if admission is not None:
            self._m_admitted = metrics.counter(
                "admission_admitted_total", "Requests granted an in-flight token."
            )
            self._m_shed = metrics.counter(
                "admission_shed_total", "Requests shed with a retry hint."
            )
            self._m_admitted.inc(0)
            self._m_shed.inc(0)
            metrics.add_collector(self._collect_metrics)

    def on_failure(self, callback: Callable[[], None]) -> None:
        """Register a listener's stop callback (pool failure, ``shutdown``)."""
        self._failure_callbacks.append(callback)

    def stop_listeners(self) -> None:
        """Ask every registered listener to stop accepting."""
        for callback in self._failure_callbacks:
            callback()

    # -- the op table -------------------------------------------------------
    #
    # Arguments arrive decoded and shaped (a request object, a list of
    # them, a list plus ``chunk``) with the caller's own ``endpoint`` label
    # for metrics and spans; nothing here knows which framing is calling.

    def request(self, payload: Dict[str, Any], endpoint: str) -> Reply:
        """Serve one request object; the payload is its result."""
        result = self.serve_payloads([payload], endpoint)
        return _shed_reply(result) if result.shed else Reply(200, result.results[0])

    def batch(self, requests: List[Any], endpoint: str) -> Reply:
        """Serve a list through one pool flush; the payload is the results.

        Order-preserving; malformed entries become per-request error
        envelopes without poisoning the rest.
        """
        result = self.serve_payloads(requests, endpoint)
        return _shed_reply(result) if result.shed else Reply(200, result.results)

    def stream(self, requests: List[Any], chunk: Any, endpoint: str) -> Reply:
        """Serve a list ``chunk`` requests per flush, lazily.

        The payload iterates one :class:`ServeResult` per pool flush, each
        produced only when asked for, so the first results can be on the
        wire while later sub-batches execute.  A shed sub-batch comes back
        as its per-request 429 envelopes without ending the iteration: a
        partially overloaded stream still delivers what was admitted.
        """
        # Exactly int, as for request fields: ``true`` is not a chunk size.
        if type(chunk) is not int or chunk < 1:
            error = "'chunk' must be a positive integer"
            return Reply(400, {"ok": False, "error": error})
        flushes = (
            self.serve_payloads(sub, endpoint)
            for sub in iter_subbatches(requests, chunk)
        )
        return Reply(200, flushes)

    # -- serving ------------------------------------------------------------

    def serve_payloads(
        self, payloads: Sequence[Any], endpoint: str = "ndjson"
    ) -> ServeResult:
        """Serve one batch of JSON request payloads, order-preserving.

        Admission is all-or-nothing per call: either every payload gets a
        token (and malformed ones become error envelopes without poisoning
        the rest), or the whole call is shed with one retry hint.  Tokens
        are held from admission until the flush completes (a replay's too),
        so work waiting on the pool lock counts against the in-flight budget
        — that is the wire-level backpressure.

        ``endpoint`` labels this call's metrics (and trace spans) with the
        front door it came through — the NDJSON op or the HTTP route.
        """
        n = len(payloads)
        if n == 0:
            return ServeResult(results=[])
        started = time.perf_counter()
        if self.admission is not None:
            decision = self.admission.try_acquire(n, self.pool.capacity_rps())
            if not decision.admitted:
                self._m_requests.inc(n, endpoint=endpoint, status="shed")
                self._m_shed.inc(n)
                event(
                    _LOG,
                    logging.WARNING,
                    "admission shed",
                    endpoint=endpoint,
                    requested=n,
                    inflight=decision.inflight,
                    limit=decision.limit,
                    retry_after_s=round(decision.retry_after_s, 3),
                )
                return ServeResult(
                    results=[overload_envelope(decision) for _ in payloads],
                    shed=True,
                    retry_after_s=decision.retry_after_s,
                )
            self._m_admitted.inc(n)
        try:
            return self._serve_admitted(payloads, endpoint, started)
        finally:
            if self.admission is not None:
                self.admission.release(n)

    def _serve_admitted(
        self, payloads: Sequence[Any], endpoint: str, started: float
    ) -> ServeResult:
        n = len(payloads)
        slots: List[tuple] = []
        queued_at = time.perf_counter()
        try:
            with self.pool.front_lock:
                wait = time.perf_counter() - queued_at
                for payload in payloads:
                    try:
                        if (
                            isinstance(payload, dict)
                            and payload.get("trace")
                            and not payload.get("trace_id")
                        ):
                            # Front-door minting: a traced request without a
                            # client-supplied id gets one here, so its spans
                            # are correlatable across layers.
                            payload = dict(payload, trace_id=new_trace_id())
                        slots.append(
                            ("id", self.pool.submit(Request.from_dict(payload)))
                        )
                    except (ReproError, TypeError, ValueError) as error:
                        slots.append(("error", str(error)))
                flush = self.pool.lookup()
            if not flush.batches:
                # All replays (or malformed): no worker, so no pool lock — a
                # hit never queues behind another connection's miss.
                report = self.pool.dispatch(flush)
            else:
                queued_at = time.perf_counter()
                with self.pool_lock:
                    wait += time.perf_counter() - queued_at
                    report = self.pool.dispatch(flush)
        except PoolError as error:
            # Transient worker loss never lands here — the pool masks it by
            # respawning and replaying.  A PoolError means the circuit
            # breaker tripped (or a respawn itself failed) and the pool
            # closed: a front door that can never serve again must tell its
            # servers to exit (cleanly) so a supervisor restarts them, not
            # linger as listening zombies.  Clients still get an error
            # envelope per request.
            self.stop_listeners()
            self._m_requests.inc(n, endpoint=endpoint, status="error")
            message = f"worker pool failed: {error}; server shutting down"
            return ServeResult(
                results=[{"ok": False, "error": message} for _ in payloads]
            )
        responses = {r.request_id: r for r in report.responses}
        results: List[Dict[str, Any]] = []
        for kind, value in slots:
            if kind == "id":
                results.append(responses[value].to_dict())
            else:
                results.append({"ok": False, "error": value})
        total_s = time.perf_counter() - started
        self._finish_telemetry(results, endpoint, wait, report.flush_s, total_s)
        return ServeResult(results=results)

    def _finish_telemetry(
        self,
        results: List[Dict[str, Any]],
        endpoint: str,
        wait: float,
        flush_s: float,
        total_s: float,
    ) -> None:
        """Per-call accounting: counters, latency, span enrichment, ring.

        Runs after the locks are released.  Traced results gain the
        front-door spans (queue-wait, flush, total) next to the engine's
        compile/execute spans; untraced results are untouched, preserving
        byte transparency.
        """
        errors = 0
        trace_id: Optional[str] = None
        for result in results:
            if not result.get("ok", False):
                errors += 1
            trace = result.get("trace")
            if trace is not None:
                trace["endpoint"] = endpoint
                trace["queue_wait_s"] = round(wait, 6)
                trace["flush_s"] = round(flush_s, 6)
                trace["total_s"] = round(total_s, 6)
                if trace_id is None:
                    trace_id = trace.get("trace_id")
        if errors < len(results):
            self._m_requests.inc(len(results) - errors, endpoint=endpoint, status="ok")
        if errors:
            self._m_requests.inc(errors, endpoint=endpoint, status="error")
        self._m_latency.observe(total_s, endpoint=endpoint)
        self._m_queue_wait.observe(wait)
        self.slow_ring.record(
            total_s,
            {
                "endpoint": endpoint,
                "requests": len(results),
                "errors": errors,
                "queue_wait_s": round(wait, 6),
                "flush_s": round(flush_s, 6),
                "trace_id": trace_id,
            },
        )

    # -- stats --------------------------------------------------------------

    def health_payload(self) -> Dict[str, Any]:
        """Liveness + degradation view, cheap enough for ``/healthz``.

        Reads only lock-free pool counters (never the pool lock), so health
        probes stay fast even while a long flush holds the pool.  ``ok`` is
        True as long as the pool can still serve — transient worker loss is
        *degraded*, not down: the pool respawned a worker inside the current
        breaker window and caches are rewarming, but traffic flows.  A pool
        that tripped the breaker shut the server down, so probes then fail
        at the connection level, not here.
        """
        recent = self.pool.recent_restarts()
        return {
            "ok": True,
            "degraded": recent > 0,
            "recent_restarts": recent,
            "worker_restarts": int(self.pool.restarts.value()),
            "replayed_batches": int(self.pool.replays.value()),
        }

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` wire envelope, rendered from one list of snapshots
        (:meth:`~repro.runtime.pool.WorkerPool.metrics_snapshots`).

        ``served`` counts the requests a serve call answered (errors
        included) and ``shed`` those refused with a 429.  The queue-wait
        quantiles are read from the ``frontdoor_queue_wait_seconds``
        buckets, so they cover every admitted call since the server
        started.  Lock-free: never behind a flush.
        """
        snapshots = self.pool.metrics_snapshots()
        own = snapshots[0]
        calls = family_total(own, "frontdoor_requests_total")
        shed = family_total(own, "frontdoor_requests_total", status="shed")
        waits = own["frontdoor_queue_wait_seconds"]
        counts = waits["values"].get((), {}).get("buckets", [])
        payload: Dict[str, Any] = {
            "ok": True,
            "op": "stats",
            "served": int(calls - shed),
            "shed": int(shed),
            "queue_wait_p50_s": round(
                quantile_from_buckets(waits["bounds"], counts, 0.50), 6
            ),
            "queue_wait_p99_s": round(
                quantile_from_buckets(waits["bounds"], counts, 0.99), 6
            ),
            "pool": self.pool.stats_from(snapshots),
        }
        if self.admission is not None:
            payload["admission"] = {
                "inflight": int(family_total(own, "admission_inflight")),
                "limit": int(family_total(own, "admission_limit")),
                "drain_rps": round(family_total(own, "admission_drain_rps"), 2),
                "admitted": int(family_total(own, "admission_admitted_total")),
                "rejected": int(family_total(own, "admission_shed_total")),
                "peak_inflight": self.admission.peak_inflight,
            }
        return payload

    # -- telemetry ----------------------------------------------------------

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Set the admission gauges from the controller's live state."""
        capacity = drain_rps(self.pool.capacity_rps())
        inflight, limit = self.admission.inflight, self.admission.limit(capacity)
        registry.gauge(
            "admission_inflight", "Requests currently holding tokens."
        ).set(inflight)
        registry.gauge(
            "admission_limit", "Current in-flight token budget."
        ).set(limit)
        registry.gauge(
            "admission_drain_rps", "Estimated pool drain rate, requests/s."
        ).set(capacity)

    def metrics_text(self) -> str:
        """Prometheus text exposition across every layer of the stack.

        The single renderer both front doors share, over the same list of
        snapshots ``stats`` reads: one scrape covers admission, engine cache
        tiers, pool flush/restart, and per-endpoint latency.
        """
        return render_prometheus(self.pool.metrics_snapshots())

    def slow_payload(self) -> Dict[str, Any]:
        """The ``slow`` wire envelope: the top-K slowest front-door calls."""
        return self.slow_ring.payload()
