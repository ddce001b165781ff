"""Engine behaviour: batching, response ordering, memoization, errors."""

import random

import pytest

from repro.apps import REGISTRY
from repro.core.memory import MemorySystem
from repro.runtime import engine as engine_module
from repro.runtime.engine import Engine, EngineError, Request
from repro.runtime.telemetry import family_total

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


def app_request(app, **kwargs):
    kwargs.setdefault("n_threads", 2)
    return Request(app=app, **kwargs)


def served(engine):
    """Requests the engine answered without an error, from its registry."""
    return family_total(engine.metrics.snapshot(), "engine_requests_total")


class TestValidation:
    def test_request_needs_exactly_one_target(self):
        with pytest.raises(EngineError):
            Request().validate()
        with pytest.raises(EngineError):
            Request(app="hash-table", source=SQUARE).validate()

    def test_unknown_app_becomes_error_response(self):
        engine = Engine()
        responses = engine.process([Request(app="no-such-app")])
        assert len(responses) == 1
        assert not responses[0].ok
        assert "no-such-app" in responses[0].error

    @pytest.mark.parametrize("poison", [
        dict(app=["search"]), dict(app={"name": "search"}), dict(source=["x"]),
    ])
    def test_an_unplaceable_request_never_stays_queued(self, poison):
        """Any failure to place an entry is that entry's error, once."""
        engine = Engine()
        bad, good = engine.process([Request(**poison),
                                    app_request("hash-table")])
        assert not bad.ok and bad.error and bad.batch_id == -1
        assert good.ok
        assert engine.coalesce() == [] and engine.drain_failed() == []
        [later] = engine.process([app_request("hash-table")])
        assert later.ok and later.request_id == 2

    @pytest.mark.parametrize("payload, field", [
        ({"app": ["search"]}, "app"),
        ({"app": {"name": "search"}}, "app"),
        ({"source": ["x"]}, "source"),
        ({"app": "search", "function": 1}, "function"),
        ({"app": "search", "trace_id": 7}, "trace_id"),
        ({"app": "search", "n_threads": 0}, "n_threads"),
        ({"app": "search", "n_threads": "8"}, "n_threads"),
        ({"app": "search", "n_threads": True}, "n_threads"),
        ({"app": "search", "n_threads": 2.0}, "n_threads"),
        ({"app": "search", "seed": "1"}, "seed"),
        ({"app": "search", "args": [1]}, "args"),
        ({"app": "search", "args": {"n": "1"}}, "args"),
        ({"app": "search", "options": [1]}, "options"),
        ({"app": "search", "options": {"verify_each": [1]}}, "options"),
        ({"app": "search", "options": {"verify_each": 1}}, "options"),
    ])
    def test_wire_fields_are_type_checked(self, payload, field):
        with pytest.raises(EngineError, match=f"'{field}'"):
            Request.from_dict(payload)

    def test_backend_is_not_a_wire_field(self):
        """The engine serves one target; naming one is an unknown field."""
        with pytest.raises(EngineError,
                           match=r"unknown request fields \['backend'\]"):
            Request.from_dict({"app": "search", "backend": "vrda"})
        assert "backend" not in Request(app="search").to_dict()

    def test_wire_null_means_not_given_and_in_process_callers_pay_nothing(self):
        request = Request.from_dict(
            {"app": "search", "seed": None, "options": None, "trace_id": None})
        assert request == Request(app="search")
        Request(app="search", n_threads="8").validate()   # not from_dict's job

    def test_raw_source_without_memory_is_an_error(self):
        engine = Engine()
        [response] = engine.process([Request(source=SQUARE)])
        assert not response.ok
        assert "memory" in response.error


class TestBatching:
    def test_same_app_coalesces_into_one_batch(self):
        engine = Engine()
        for _ in range(4):
            engine.submit(app_request("hash-table"))
        batches = engine.coalesce()
        assert len(batches) == 1
        assert len(batches[0]) == 4

    def test_batches_split_by_program_key(self):
        engine = Engine()
        engine.submit(app_request("hash-table"))
        engine.submit(app_request("search"))
        engine.submit(app_request("hash-table", seed=7))
        batches = engine.coalesce()
        assert [len(batch) for batch in batches] == [2, 1]
        keys = [batch.program_key for batch in batches]
        assert all(isinstance(key, str) for key in keys)
        assert len(set(keys)) == 2

    def test_max_batch_size_splits_batches(self):
        engine = Engine(max_batch_size=2)
        for _ in range(5):
            engine.submit(app_request("hash-table"))
        sizes = [len(b) for b in engine.coalesce()]
        assert sizes == [2, 2, 1]

    def test_responses_keep_submission_order(self):
        # Interleave apps so coalescing reorders execution,
        # then check the engine restores client order.
        engine = Engine()
        pattern = ["hash-table", "search", "hash-table", "search",
                   "hash-table"]
        requests = [app_request(app, seed=i) for i, app in enumerate(pattern)]
        responses = engine.process(requests)
        assert [r.request_id for r in responses] == [0, 1, 2, 3, 4]
        assert [r.app for r in responses] == pattern
        # The interleaved hash-table requests shared one batch.
        assert responses[0].batch_id == responses[4].batch_id
        assert responses[0].batch_id != responses[1].batch_id


class TestExecution:
    def test_functional_response_checks_reference(self):
        engine = Engine()
        [response] = engine.process([app_request("hash-table")])
        assert response.ok
        assert response.correct is True
        assert response.outputs
        assert response.modeled_runtime_s > 0
        assert response.report is not None

    def test_program_cache_amortizes_across_requests(self):
        engine = Engine()
        responses = engine.process([app_request("hash-table", seed=s)
                                    for s in range(3)])
        assert engine.program_cache_stats.misses == 1
        assert engine.program_cache_stats.hits == 2
        assert [r.program_cache_hit for r in responses] == [False, False, False]
        # A second flush of the same app is a true cache hit.
        [response] = engine.process([app_request("hash-table", seed=9)])
        assert response.program_cache_hit is True

    def test_result_cache_memoizes_identical_requests(self):
        engine = Engine()
        first = engine.process([app_request("hash-table", seed=1)])[0]
        second = engine.process([app_request("hash-table", seed=1)])[0]
        third = engine.process([app_request("hash-table", seed=2)])[0]
        assert not first.result_cache_hit
        assert second.result_cache_hit
        assert second.outputs == first.outputs
        assert second.request_id != first.request_id
        assert not third.result_cache_hit

    def test_result_cache_hits_are_isolated_from_client_mutation(self):
        engine = Engine()
        first = engine.process([app_request("hash-table", seed=1)])[0]
        first.outputs.clear()  # a rude client mutates its response
        second = engine.process([app_request("hash-table", seed=1)])[0]
        assert second.result_cache_hit
        assert second.outputs  # served from an independent copy
        second.outputs[0] ^= 1
        third = engine.process([app_request("hash-table", seed=1)])[0]
        assert third.outputs != second.outputs

    def test_generated_app_requests_reject_custom_args(self):
        with pytest.raises(EngineError):
            Request(app="hash-table", args={"count": 4}).validate()

    def test_result_cache_can_be_disabled(self):
        engine = Engine(result_cache_capacity=0)
        engine.process([app_request("hash-table", seed=1)])
        [again] = engine.process([app_request("hash-table", seed=1)])
        assert not again.result_cache_hit

    def test_raw_source_request_with_memory(self):
        memory = MemorySystem()
        memory.dram_alloc("data", data=[1, 2, 3])
        memory.dram_alloc("out", size=3)
        engine = Engine()
        [response] = engine.process(
            [Request(source=SQUARE, memory=memory, args={"n": 3})])
        assert response.ok
        assert memory.segment_data("out") == [1, 4, 9]
        # External state is never memoized.
        stats = engine.result_cache_stats
        assert stats.hits + stats.misses == 0

    def test_user_memory_requests_bypass_result_cache(self):
        spec = REGISTRY.get("hash-table")
        engine = Engine()
        for _ in range(2):
            instance = spec.make_instance(2, seed=3)
            [response] = engine.process(
                [Request(app="hash-table", memory=instance.memory,
                         args=instance.args, n_threads=2)])
            assert response.ok
            assert not response.result_cache_hit

    def test_served_count_accumulates(self):
        """Executed and replayed requests count; error responses do not."""
        engine = Engine()
        engine.process([app_request("hash-table"), app_request("search"),
                        app_request("hash-table"), Request(app="no-such-app")])
        assert served(engine) == 3
        engine.process([app_request("search")])
        assert served(engine) == 4

    def test_a_raising_process_queues_nothing(self):
        """process() queues all of its requests or none of them."""
        engine = Engine()
        with pytest.raises(EngineError, match="either 'app' or 'source'"):
            engine.process([app_request("search"), Request()])
        responses = engine.process([app_request("strlen")])
        assert [(r.request_id, r.app) for r in responses] == [(0, "strlen")]


class TestTraceGeneration:
    def test_overrides_do_not_mutate_the_config(self):
        from repro.runtime import TraceConfig, synthetic_trace

        config = TraceConfig(size=10)
        trace = synthetic_trace(config, size=5)
        assert len(trace) == 5
        assert config.size == 10
        assert len(synthetic_trace(config)) == 10

    def test_trace_is_deterministic_per_seed_and_cycles_apps_in_order(self):
        from repro.runtime import TraceConfig, synthetic_trace

        apps = ["search", "murmur3", "strlen"]
        config = TraceConfig(size=30, apps=apps, distinct_shapes=4,
                             n_threads=2, seed=11)
        trace = synthetic_trace(config)
        assert trace == synthetic_trace(config)
        assert [r.app for r in trace] == [apps[i % 3] for i in range(30)]
        assert {r.n_threads for r in trace} == {2}
        assert {r.seed for r in trace} <= set(range(4))
        # One RNG draw per request: the shape of request i is draw i.
        rng = random.Random(11)
        assert [r.seed for r in trace] == [rng.randrange(4) for _ in trace]
        assert synthetic_trace(config, seed=12) != trace

    def test_unknown_override_rejected(self):
        from repro.runtime import synthetic_trace

        with pytest.raises(ValueError):
            synthetic_trace(bogus=1)

    def test_unknown_app_rejected(self):
        from repro.runtime import synthetic_trace

        with pytest.raises(ValueError):
            synthetic_trace(apps=["not-an-app"])


class TestServableRegistry:
    def test_all_table3_apps_are_servable(self):
        from repro.apps import TABLE3_APPS

        servable = REGISTRY.servable_names()
        for name in TABLE3_APPS + ["strlen"]:
            assert name in servable

    def test_get_servable_rejects_unknown(self):
        with pytest.raises(KeyError):
            REGISTRY.get_servable("nope")


class TestIntraBatchFanOut:
    """Entries of one batch are served in entry order, one after another.

    (The thread fan-out these cases once guarded is gone; the class and test
    names are kept so the test ids stay stable.)
    """

    def test_duplicate_requests_share_one_execution(self):
        """Duplicates of one request inside a batch replay the first result."""
        engine = Engine()
        responses = engine.process(
            [app_request("hash-table", seed=5) for _ in range(6)])
        assert [r.result_cache_hit for r in responses] == [False] + [True] * 5
        assert len({tuple(r.outputs) for r in responses}) == 1
        stats = engine.result_cache_stats
        assert (stats.hits, stats.misses) == (5, 1)

    def test_duplicate_of_a_failed_request_executes_for_real(self, monkeypatch):
        """A failure caches nothing, so its in-batch duplicate runs."""
        real_execute = engine_module.execute
        calls = []

        def fails_once(program, request):
            calls.append(request)
            if len(calls) == 1:
                raise EngineError("transient")
            return real_execute(program, request)

        monkeypatch.setattr(engine_module, "execute", fails_once)
        engine = Engine()
        responses = engine.process(
            [app_request("hash-table") for _ in range(3)])
        assert [r.ok for r in responses] == [False, True, True]
        assert responses[0].error == "transient"
        assert [r.result_cache_hit for r in responses] == [False, False, True]
        assert len(calls) == 2
        stats = engine.result_cache_stats
        assert (stats.hits, stats.misses) == (1, 2)
        assert served(engine) == 2

    def test_fanout_preserves_error_responses(self):
        """An unknown app errors alone; its batch neighbours are served."""
        engine = Engine()
        requests = [app_request("hash-table"), Request(app="no-such-app"),
                    app_request("search")]
        responses = engine.process(requests)
        assert [r.ok for r in responses] == [True, False, True]
        assert "no-such-app" in responses[1].error

    def test_staged_memory_requests_stay_serial(self):
        """Entries sharing one client-staged MemorySystem run in entry order."""
        memory = MemorySystem()
        memory.dram_alloc("data", data=[1, 2, 3])
        memory.dram_alloc("out", size=3)
        engine = Engine()
        responses = engine.process(
            [Request(source=SQUARE, memory=memory, args={"n": 3})
             for _ in range(4)])
        assert all(r.ok for r in responses)
        assert memory.segment_data("out") == [1, 4, 9]
