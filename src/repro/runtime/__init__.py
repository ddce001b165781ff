"""``repro.runtime`` — a cached, batched, multi-worker serving engine.

The seed repo's entry points recompile every program from source and serve
one request at a time.  This package turns the compiler + executor into a
serving layer:

* :mod:`repro.runtime.cache` — content-addressed in-memory LRU program
  cache keyed on source hash and
  :meth:`repro.compiler.CompileOptions.cache_key`.
* :mod:`repro.runtime.engine` — request/response engine that coalesces
  requests into per-program batches, executes them on the functional vRDA
  executor, memoizes deterministic results, and attaches the paper's
  modeled latency.  (The CPU / GPU / Aurochs comparison columns are
  evaluation tables: ``python -m repro.eval table5``.)
* :mod:`repro.runtime.pool` — real multi-worker execution: N inline or
  ``multiprocessing`` workers, each owning its own program cache; a batch
  goes to the worker whose cache holds its program; dead or hung
  workers are respawned in place and their batches replayed (fail-fast
  only once a circuit breaker trips).
* :mod:`repro.runtime.faults` — injectable fault plans (kill/hang a
  worker, delay/drop a pipe reply) for chaos tests and smokes, threaded
  through ``--fault-plan``.
* :mod:`repro.runtime.server` / :mod:`repro.runtime.client` — the
  persistent service: one threaded listener class framing the front
  door's operations as NDJSON-over-TCP (and, on a second port, HTTP/1.1),
  and its client (plus the CI smoke driver, ``python -m
  repro.runtime.client --smoke``).  Both are ``python -m`` entry points,
  so import them by module path, not from this package.
* :mod:`repro.runtime.gateway` — the front door itself: rate-aware
  admission control (429 + ``Retry-After`` beyond the measured token
  budget), the :class:`PoolService` table of operations, which does not
  know which framing calls it, and the HTTP framing (a blocking handler
  on the same threaded listener) with chunked streaming and
  slow-reader/idle handling.
* :mod:`repro.runtime.trace` — synthetic repeated-app request traces
  (tests and the smoke).
* :mod:`repro.runtime.telemetry` / :mod:`repro.runtime.logs` — the
  observability plane: a snapshot-mergeable metrics registry (counters,
  gauges, log-bucketed latency histograms) rendered as Prometheus text on
  ``GET /metrics`` and the NDJSON ``metrics`` op, opt-in request tracing
  with a top-K slowest ring (``GET /v1/slow``), and structured (optionally
  JSON) logging for restarts, breaker trips, and sheds.

``python -m repro.runtime.server`` serves the engine as a long-lived
socket process; a shell drives it through ``python -m
repro.runtime.client``.
"""

from repro.runtime.cache import CacheStats, LRUCache, ProgramCache, program_key
from repro.runtime.engine import Batch, Engine, EngineError, Request, Response
from repro.runtime.faults import Fault, FaultInjector, FaultPlan, load_fault_plan
from repro.runtime.gateway.admission import AdmissionController, PoolService
from repro.runtime.pool import PoolError, PoolReport, WorkerPool
from repro.runtime.logs import JsonFormatter, configure_logging
from repro.runtime.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowRing,
    merge_snapshots,
    new_trace_id,
    render_prometheus,
)
from repro.runtime.trace import DEFAULT_TRACE_APPS, TraceConfig, synthetic_trace

__all__ = [
    "AdmissionController",
    "Batch",
    "CacheStats",
    "Counter",
    "DEFAULT_TRACE_APPS",
    "Engine",
    "EngineError",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "LRUCache",
    "MetricsRegistry",
    "PoolError",
    "PoolReport",
    "PoolService",
    "ProgramCache",
    "Request",
    "Response",
    "SlowRing",
    "TraceConfig",
    "WorkerPool",
    "configure_logging",
    "load_fault_plan",
    "merge_snapshots",
    "new_trace_id",
    "program_key",
    "render_prometheus",
    "synthetic_trace",
]
