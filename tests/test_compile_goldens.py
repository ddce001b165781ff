"""The compiler's output, pinned: token streams, optimized IR, lowered graphs.

``compile_goldens.json`` was captured on the commit *before* the lexer,
verifier, IR walk and capture analysis were rewritten (``PYTHONPATH=src
python tests/test_compile_goldens.py > tests/compile_goldens.json``), so a
match here means the rewrite compiles every application to the same program,
name for name.  The graph digests were re-captured once since, when the
dataflow lowering made constants ``compute`` immediates and dropped duplicate
and dead pure leaves; token streams and optimized IR kept their digests.
Op and value numbering comes from process-wide counters, which each capture
restarts so the names do not depend on what ran before.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.apps import REGISTRY
from repro.compiler import CompileOptions, compile_source
from repro.ir import core, print_module
from repro.lang import tokenize

GOLDENS = Path(__file__).with_name("compile_goldens.json")
APPS = sorted(REGISTRY.servable_names())
OPTIONS = {"default": CompileOptions(), "none": CompileOptions.none()}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def token_digest(app):
    tokens = tokenize(REGISTRY.get(app).source)
    return _digest([(t.kind, t.value, t.line, t.column) for t in tokens])


def _graph_rows(graph):
    """``(op, params-sans-callables, input names, output names)`` per node of
    ``graph`` and, depth first, of every region graph under it."""
    rows = [("graph", graph.name, [v.name for v in graph.inputs],
             [v.name for v in graph.outputs])]
    for node in graph.nodes:
        params = sorted((k, v) for k, v in node.params.items() if not callable(v))
        rows.append((node.op, params, [v.name for v in node.inputs],
                     [v.name for v in node.outputs]))
        for region in node.regions:
            rows.extend(_graph_rows(region))
    return rows


def program_digests(app, options):
    saved = core._op_ids, core._value_ids
    core._op_ids, core._value_ids = itertools.count(), itertools.count()
    try:
        program = compile_source(REGISTRY.get(app).source, options=options)
    finally:
        core._op_ids, core._value_ids = saved
    rows = _graph_rows(program.graph)
    return {"module": _digest(print_module(program.module)),
            "graph": _digest(rows), "graph_rows": len(rows)}


def capture():
    return {"tokens": {app: token_digest(app) for app in APPS},
            "programs": {f"{app}/{label}": program_digests(app, options)
                         for app in APPS for label, options in OPTIONS.items()}}


@pytest.mark.parametrize("app", APPS)
def test_token_stream_is_the_parents(app):
    assert token_digest(app) == json.loads(GOLDENS.read_text())["tokens"][app]


@pytest.mark.parametrize("label", OPTIONS)
@pytest.mark.parametrize("app", APPS)
def test_module_and_graph_are_the_parents(app, label):
    expected = json.loads(GOLDENS.read_text())["programs"][f"{app}/{label}"]
    assert program_digests(app, OPTIONS[label]) == expected


def test_compile_source_keeps_no_state_between_calls():
    """Two compiles of one source share nothing: no memo on source, tokens,
    module or options hands an object of the first to the second."""
    source = REGISTRY.get("strlen").source
    first, second = compile_source(source), compile_source(source)
    assert first.module is not second.module and first.graph is not second.graph
    assert not ({id(op) for op in first.module.walk()}
                & {id(op) for op in second.module.walk()})
    assert not ({id(node) for _, node in first.graph.walk()}
                & {id(node) for _, node in second.graph.walk()})


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
