"""Helpers shared by the runtime tests (imported, not collected)."""

import time

from repro.runtime.engine import Engine


def slow_workers(monkeypatch, delay):
    """Slow every in-process engine to ``delay`` seconds per request.

    The sleep follows each ``execute_batch``, so for an inline pool it falls
    inside the worker's timed window: ``busy_s`` and ``capacity_rps()`` read
    a small, stable drain rate, which the overload and streaming tests rely
    on.  Process workers run in fresh interpreters and are not slowed.
    """
    execute = Engine.execute_batch

    def execute_batch(self, batch):
        responses = execute(self, batch)
        time.sleep(delay * len(batch))
        return responses

    monkeypatch.setattr(Engine, "execute_batch", execute_batch)
