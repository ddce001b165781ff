"""Engine-level oracle: both executors serve byte-identical responses.

CI's bit-identity gate: every registered servable app is served through two
engines that differ only in ``executor=``, and the JSON wire form of every
response — outputs, oracle verdicts, modeled latency, cache flags — must be
byte-for-byte equal, along with the cache counters.
"""

import json

import pytest

from repro.apps import REGISTRY
from repro.core.columnar import HAVE_NUMPY
from repro.runtime.engine import Engine, Request

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def _serve(executor: str, app: str):
    engine = Engine(executor=executor)
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
        "program": engine.program_cache_stats.as_dict(),
        "result": engine.result_cache_stats.as_dict(),
        "served": engine.served,
    }
    return wire, stats


@requires_numpy
@pytest.mark.parametrize("app", sorted(REGISTRY.servable_names()))
def test_engine_responses_bit_identical(app):
    token_wire, token_stats = _serve("token", app)
    columnar_wire, columnar_stats = _serve("columnar", app)
    assert columnar_wire == token_wire
    assert columnar_stats == token_stats
    # The trace really exercised both cache tiers and the oracle.
    assert token_stats["result"]["hits"] >= 1
    for line in token_wire:
        payload = json.loads(line)
        assert payload["ok"] is True
        assert payload["correct"] is True
