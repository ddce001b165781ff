"""The documentation checker's repo-path check, on planted text."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402

README = check_docs.REPO_ROOT / "README.md"


def test_dead_paths_are_reported_by_name():
    text = (
        "Recorded in `BENCH_old.json` by `benchmarks/test_runtime_gone.py`, "
        "see `tests/runtime/test_nothing.py::test_x` and `tests/no_such_*.py`."
    )
    failures = check_docs.check_paths(README, text)
    assert len(failures) == 4
    for dead in ("BENCH_old.json", "benchmarks/test_runtime_gone.py",
                 "tests/runtime/test_nothing.py::test_x", "tests/no_such_*.py"):
        assert any(f.endswith(f"-> {dead}") for f in failures), dead
    assert all(f.startswith("README.md: no such path") for f in failures)


def test_live_paths_and_non_paths_pass():
    text = (
        "`BENCHMARK.json`, `bench/run.py`, `benchmarks/`, `lexer.py`, "
        "`benchmarks/test_fig*.py`, "
        "`tests/runtime/test_faults.py::test_kill_mid_flush`; not paths: "
        "`/v1/stats`, `DIR/worker-N`, `repro.runtime.server`, "
        "`python3 bench/run.py --workload serve-warm`."
    )
    assert check_docs.check_paths(README, text) == []


def test_stale_routes_and_ops_are_reported_by_name():
    routes, ops = check_docs.served_names()
    assert "/v1/stream" in routes and "shutdown" in ops
    text = (
        "`GET /v1/gone`, `curl localhost:8080/v1/request`, `/healthz`, "
        "`curl -s localhost:8080/metrics`, `/readyz` is no route of ours; "
        '`{"op": "dance"}` beside `{"op": "batch", "requests": []}`; '
        "`docs/metrics` is a path, not a route."
    )
    failures = check_docs.check_routes(README, text, routes, ops)
    assert failures == [
        "README.md: the server has no route /v1/gone",
        "README.md: the server has no op 'dance'",
    ]


def test_stale_and_missing_metric_rows_are_reported_by_name():
    registered = check_docs.registered_families()
    assert {"engine_requests_total", "pool_flushes_total",
            "gateway_events_total"} <= registered.keys()
    assert "engine_executor_requests_total" not in registered
    text = check_docs.METRICS_DOC.read_text(encoding="utf-8")
    assert check_docs.check_metric_families(text, registered) == []
    planted = text + (
        "| `engine_executor_requests_total` | counter | `executor` | Gone. |\n"
    )
    assert check_docs.check_metric_families(planted, registered) == [
        "docs/observability.md: no metric family "
        "engine_executor_requests_total is registered"
    ]
    assert check_docs.check_metric_families(
        text, {**registered, "engine_new_total": ()}
    ) == [
        "docs/observability.md: metric family engine_new_total is registered "
        "but has no row"
    ]


def test_wrong_and_missing_metric_labels_are_reported_by_name():
    registered = check_docs.registered_families()
    assert registered["engine_requests_total"] == ()
    assert registered["engine_cache_lookups_total"] == ("tier", "outcome")
    text = check_docs.METRICS_DOC.read_text(encoding="utf-8")
    rows = {
        "wrong": ("| `engine_requests_total` | counter | — |",
                  "| `engine_requests_total` | counter | `executor` |"),
        "missing": ("| `engine_cache_lookups_total` | counter | `tier`, `outcome` |",
                    "| `engine_cache_lookups_total` | counter | `tier` |"),
    }
    for live, stale in rows.values():
        assert text.count(live) == 1
    assert check_docs.check_metric_families(
        text.replace(*rows["wrong"]), registered
    ) == [
        "docs/observability.md: metric family engine_requests_total has "
        "labels `executor` in its row but — in the source"
    ]
    assert check_docs.check_metric_families(
        text.replace(*rows["missing"]), registered
    ) == [
        "docs/observability.md: metric family engine_cache_lookups_total has "
        "labels `tier` in its row but `tier`, `outcome` in the source"
    ]


def test_dead_dotted_names_are_reported_by_name():
    text = (
        "`repro.sim.policies` and `repro.runtime.pool.ShardScheduler` are "
        "gone; `repro.runtime.pool.WorkerPool`, `repro.core.OPCODES`, "
        "`repro.sim.load_balance`, `repro.compiler.compile_source(source)` "
        "live; `python -m repro.eval` and `repro.eval fig14` are no names."
    )
    assert check_docs.check_dotted_names([(README, text)]) == [
        "README.md: no module or attribute repro.runtime.pool.ShardScheduler",
        "README.md: no module or attribute repro.sim.policies",
    ]


def test_every_dotted_name_in_the_docs_resolves():
    files = [(path, path.read_text(encoding="utf-8"))
             for path in check_docs.doc_files()]
    assert check_docs.check_dotted_names(files) == []
