"""The one execute function: run a compiled program, check it, model it."""

from functools import partialmethod

import pytest

from repro.apps import REGISTRY
from repro.compiler import compile_source
from repro.dataflow.lowering import CompiledProgram
from repro.runtime.engine import (
    INIT_LATENCY_S,
    Engine,
    EngineError,
    Request,
    execute,
)

SQUARE = """
DRAM<int> data;
DRAM<int> out;

void main(int n) {
  foreach (n) { int i =>
    int v = data[i];
    out[i] = v * v;
  };
}
"""


def program_of(spec):
    return compile_source(spec.source)


class TestExecute:
    def test_app_request_is_run_checked_and_modeled(self):
        spec = REGISTRY.get("hash-table")
        payload = execute(program_of(spec),
                          Request(app="hash-table", n_threads=2, seed=3))
        twin = spec.make_instance(2, 3)
        expected = spec.reference(twin)
        assert payload["outputs"][:len(expected)] == expected
        assert payload["correct"] is True
        assert payload["modeled_gbs"] > 0
        assert payload["report"].throughput_gbs == payload["modeled_gbs"]
        assert INIT_LATENCY_S == 1e-4
        assert payload["modeled_runtime_s"] == (
            twin.total_bytes / (payload["modeled_gbs"] * 1e9) + 1e-4)

    @pytest.mark.parametrize("app", ["hash-table", "search", "murmur3"])
    def test_token_and_columnar_give_equal_payloads(self, app, monkeypatch):
        program = program_of(REGISTRY.get(app))
        request = Request(app=app, n_threads=4, seed=1)
        columnar = execute(program, request)
        monkeypatch.setattr(CompiledProgram, "run", partialmethod(
            CompiledProgram.run, executor="token"))
        assert execute(program, request) == columnar

    def test_staged_memory_is_run_but_not_checked(self):
        """Only an engine-generated instance carries the oracle's context."""
        spec = REGISTRY.get("hash-table")
        instance = spec.make_instance(2, seed=3)
        payload = execute(program_of(spec),
                          Request(app="hash-table", memory=instance.memory,
                                  args=instance.args, n_threads=2))
        assert payload["correct"] is None
        assert payload["outputs"][:4] == spec.reference(instance)[:4]

    def test_raw_source_without_staged_memory_raises_for_the_engine(self):
        with pytest.raises(EngineError, match="pre-staged 'memory'"):
            execute(compile_source(SQUARE), Request(source=SQUARE))

    def test_raw_source_without_staged_memory_is_an_error_response(self):
        [response] = Engine().process([Request(source=SQUARE)])
        assert not response.ok and "memory" in response.error
        assert response.outputs is None and response.report is None


class TestThroughTheEngine:
    def test_response_carries_the_payload(self):
        request = Request(app="search", n_threads=2, seed=5)
        [response] = Engine().process([request])
        payload = execute(program_of(REGISTRY.get("search")),
                          request)
        assert response.ok and response.error is None
        assert {name: getattr(response, name) for name in payload} == payload
        assert "backend" not in response.to_dict()
