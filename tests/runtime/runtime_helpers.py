"""Helpers shared by the runtime tests (imported, not collected)."""

import time

from repro.runtime import engine as engine_module
from repro.runtime.telemetry import MetricsRegistry


def slow_workers(monkeypatch, delay):
    """Slow every in-process engine to ``delay`` seconds per executed request.

    The sleep follows each :func:`~repro.runtime.engine.execute`, so it
    falls inside the engine's timed batch: for an inline pool ``busy_s``
    and ``capacity_rps()`` read a small, stable drain rate, which the
    overload and streaming tests rely on.  Process workers run in fresh
    interpreters and are not slowed.
    """
    execute = engine_module.execute

    def slow_execute(program, request):
        payload = execute(program, request)
        time.sleep(delay)
        return payload

    monkeypatch.setattr(engine_module, "execute", slow_execute)


def pool_stats(pool):
    """The ``pool`` object of the ``stats`` envelope for a bare pool."""
    return pool.stats_from(pool.metrics_snapshots())


def worker_requests(pool):
    """Requests the pool's workers have been sent so far."""
    return sum(row["requests"] for row in pool_stats(pool)["workers"])


def worker_document(requests=0, busy_s=0.0):
    """A hand-set worker snapshot: only ``requests`` and ``busy_s`` matter."""
    registry = MetricsRegistry()
    registry.counter("engine_batch_requests_total", "").inc(requests)
    if busy_s:
        registry.histogram("engine_batch_execute_seconds", "").observe(busy_s)
    return registry.snapshot()
