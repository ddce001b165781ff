"""Engine-level oracle: both executors serve byte-identical responses.

CI's bit-identity gate: every registered servable app is served through an
engine on the columnar executor it always runs, then again with
``CompiledProgram.run`` defaulting to the per-token reference (patched here,
in the test: the serving path has no executor switch).  The JSON wire form
of every response — outputs, oracle verdicts, modeled latency, cache flags —
must be byte-for-byte equal, along with the cache counters.
"""

import json
from functools import partialmethod

import pytest

from repro.apps import REGISTRY
from repro.dataflow.lowering import CompiledProgram
from repro.runtime.engine import Engine, Request
from repro.runtime.telemetry import family_total


def _serve(app: str):
    engine = Engine()
    # Three requests: two identical (the second must be a result-cache hit,
    # identically on both engines) and one distinct shape.
    requests = [
        Request(app=app, n_threads=4, seed=0),
        Request(app=app, n_threads=4, seed=0),
        Request(app=app, n_threads=2, seed=1),
    ]
    responses = engine.process(requests)
    wire = [json.dumps(r.to_dict(), sort_keys=True) for r in responses]
    stats = {
        "program": engine.program_cache_stats,
        "result": engine.result_cache_stats,
        "served": family_total(engine.metrics.snapshot(), "engine_requests_total"),
    }
    return wire, stats


@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_engine_responses_bit_identical(app, monkeypatch):
    columnar_wire, columnar_stats = _serve(app)
    monkeypatch.setattr(CompiledProgram, "run",
                        partialmethod(CompiledProgram.run, executor="token"))
    token_wire, token_stats = _serve(app)
    assert columnar_wire == token_wire
    assert columnar_stats == token_stats
    # The trace really exercised both cache tiers and the oracle.
    assert token_stats["result"].hits >= 1
    for line in token_wire:
        payload = json.loads(line)
        assert payload["ok"] is True
        assert payload["correct"] is True
