"""Columnar executor: selection API, app-level oracle parity, fuzzing.

The columnar backend's contract is *bit-identity* with the per-token
reference executor (see ``docs/executor.md``): same memory contents, same
traffic counters, same profile, same errors.  These tests enforce it at the
``CompiledProgram.run`` level; ``tests/runtime/test_executor_parity.py``
enforces the same contract on full engine responses.
"""

import random

import pytest

from repro.apps import REGISTRY
from repro.compiler import CompileOptions
from repro.core.columnar import ColumnarExecutor, make_executor
from repro.core.executor import Executor
from repro.core.graph import DFGraph
from repro.core.sltf import data_values
from repro.errors import GraphError


class TestExecutorSelection:
    def test_make_executor_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor(DFGraph(), executor="vectorised")

    def test_make_executor_types(self):
        graph = DFGraph()
        assert type(make_executor(graph, executor="token")) is Executor
        for name in (None, "columnar"):
            assert isinstance(make_executor(graph, executor=name),
                              ColumnarExecutor)


def _profile_state(profile):
    return {
        "firings": dict(profile.node_firings),
        "loops": dict(profile.loop_iterations),
    }


def _run_both(program, make_instance):
    """Run one shared compiled program under both executors.

    The program MUST be compiled once and shared: separate compiles mint
    fresh node uids, so auto-generated labels/link names would differ and
    mask (or fake) real divergence.

    The columnar run must also never leave the vector path: a compiled
    program's values are int64 words, so no kernel traps and no bundle is
    misaligned.
    """
    states = {}
    for executor in ("token", "columnar"):
        instance = make_instance()
        runner = program.run(instance.memory, profile=True,
                             executor=executor, **instance.args)
        if executor == "columnar":
            assert runner.profile.vector_exits == {}
        states[executor] = (
            instance.memory.snapshot(),
            _profile_state(runner.profile),
        )
    return states


def _assert_app_bit_identity(app, options, n_threads):
    spec = REGISTRY.get(app)
    program = spec.compile(options)
    states = _run_both(program, lambda: spec.make_instance(n_threads, 0))
    token_state, columnar_state = states["token"], states["columnar"]
    assert columnar_state[0] == token_state[0]  # memory + traffic counters
    assert columnar_state[1] == token_state[1]  # execution profile


@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_app_bit_identity(app):
    """Every registered app: identical memory, stats, and profile."""
    _assert_app_bit_identity(app, CompileOptions(), 8)


_OPTION_SETS = {
    "default": CompileOptions(),
    "none": CompileOptions.none(),
    "unflattened": CompileOptions().disabled("hierarchy_elimination"),
}


@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
@pytest.mark.parametrize("options,n_threads", [
    (name, width) for name in _OPTION_SETS for width in (8, 32)
    if (name, width) != ("default", 8)  # that one is test_app_bit_identity
] + [("default", 128)])
def test_app_bit_identity_by_options_and_width(app, options, n_threads):
    """The same contract wider and without the optional passes.

    Without hierarchy elimination a ``while`` under a ``foreach`` arrives
    as one barrier group per outer thread, so these are the cases that
    drain several non-empty groups in one ``while`` firing.  At 128
    threads address bounds are loose and a firing moves many tiles, which
    is where the memory helpers' whole-array paths do their work.
    """
    _assert_app_bit_identity(app, _OPTION_SETS[options], n_threads)


def test_outputs_are_plain_python_ints():
    """No numpy scalar may leak into memory (it would break JSON later)."""
    spec = REGISTRY.get("murmur3")
    program = spec.compile()
    instance = spec.make_instance(4, 0)
    program.run(instance.memory, executor="columnar", **instance.args)
    for value in instance.memory.segment_data(spec.output_segment):
        assert type(value) is int


def test_opcodes_no_revet_source_reaches():
    """``ashr``/``min``/``max``/``neg``/``copy``/``land``/``lor`` kernels.

    The frontend lowers to none of them, so a hand-built graph is the only
    way in.  Columns mix small, negative and int64-edge values, and the
    vector kernels must equal the token executor; a value beyond int64 is
    no word, and both executors refuse it at the graph input.
    """
    graph = DFGraph("opcodes")
    a, b, shift = (graph.add_input(name) for name in ("a", "b", "shift"))
    operands = {"ashr": [a, shift], "min": [a, b], "max": [a, b], "neg": [a],
                "copy": [a], "land": [a, b], "lor": [a, b]}
    graph.set_outputs([
        graph.add_node("compute", ins, params={"fn": op}, name=op).outputs[0]
        for op, ins in operands.items()
    ])
    columns = {
        "small": ([3, 0, 7, 1], [0, 0, 2, 9]),
        "negative": ([-5, -1, 0, 6], [-7, 2, 0, -6]),
        "int64 edge": ([-2**63, 2**63 - 1, 2**62, -1], [1, -2**63, 0, 2**62]),
    }
    for label, (a_values, b_values) in columns.items():
        inputs = {"a": a_values, "b": b_values, "shift": [0, 1, 5, 63]}
        runs = {}
        for executor in ("token", "columnar"):
            ex = make_executor(graph, executor=executor)
            runs[executor] = (ex.run(inputs), _profile_state(ex.profile))
        assert runs["columnar"] == runs["token"], label
        for stream in runs["columnar"][0].values():
            assert all(type(v) is int for v in data_values(stream)), label
    beyond = {"a": [2**70, -2**65, 1, 0], "b": [0, 2**64, -2**80, 5],
              "shift": [0, 1, 5, 63]}
    for executor in ("token", "columnar"):
        with pytest.raises(GraphError, match="1180591620717411303424 is not an int64 word"):
            make_executor(graph, executor=executor).run(beyond)


# -- property-style fuzz over random straight-line bodies -------------------

_DIVISORS = (1, 2, 3, 5, 7, 16, 255)
#: DRAM columns of strictly positive, strictly negative and mixed-sign
#: non-zero divisors.
_DIVISOR_COLUMNS = ("dpos", "dneg", "dmix")
_SHIFTS = (0, 1, 3, 7, 13, 31)


def _random_straight_line_source(rng: random.Random, n_stmts: int) -> str:
    """A foreach over a straight-line body of random integer arithmetic."""
    lines = ["    int t0 = a[i];", "    int t1 = b[i];"]
    n_temps = 2
    for _ in range(n_stmts):
        lhs = f"t{rng.randrange(n_temps)}"
        kind = rng.randrange(10)
        if kind == 0:  # non-zero constant divisor: both executors may not trap
            expr = f"{lhs} {rng.choice(['/', '%'])} {rng.choice(_DIVISORS)}"
        elif kind == 1:  # bounded constant shift
            expr = f"{lhs} {rng.choice(['<<', '>>'])} {rng.choice(_SHIFTS)}"
        elif kind == 2:
            expr = f"{rng.choice(['-', '~', '!'])}{lhs}"
        elif kind == 3:
            expr = f"{lhs} {rng.choice(['<', '<=', '>', '>=', '==', '!='])} " \
                   f"t{rng.randrange(n_temps)}"
        else:
            op = rng.choice(["+", "-", "*", "&", "|", "^"])
            rhs = (f"t{rng.randrange(n_temps)}" if rng.random() < 0.7
                   else str(rng.choice([0, 1, 7, 0xFFFF, 2**31, 2**40])))
            expr = f"{lhs} {op} {rhs}"
        lines.append(f"    int t{n_temps} = {expr};")
        n_temps += 1
    lines.append(f"    out[i] = t{n_temps - 1};")
    # Division and remainder by whole columns of each sign class (the
    # sign-aware bounds of the div/rem kernels), each result kept live.
    slot = 0
    for divisor in _DIVISOR_COLUMNS:
        for op in ("/", "%"):
            lhs = f"t{rng.choice([0, 1, rng.randrange(n_temps)])}"
            lines.append(f"    quot[i * {2 * len(_DIVISOR_COLUMNS)} + {slot}] = "
                         f"{lhs} {op} {divisor}[i];")
            slot += 1
    body = "\n".join(lines)
    globals_ = "".join(f"DRAM<int> {name};\n"
                       for name in ("a", "b", "out", "quot") + _DIVISOR_COLUMNS)
    return (
        globals_ + "\nvoid main(int n) {\n  foreach (n) { int i =>\n"
        + body + "\n  };\n}\n"
    )


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_straight_line_parity(seed):
    """Random straight-line graphs agree bit-for-bit across executors.

    Inputs mix small, huge (> int64 after a few multiplies), and negative
    values, so both executors wrap to int64 in every arithmetic opcode.
    """
    from repro.compiler import compile_source
    from repro.core.memory import MemorySystem

    rng = random.Random(seed)
    source = _random_straight_line_source(rng, n_stmts=rng.randint(4, 12))
    program = compile_source(source)
    n = 13

    def make_instance():
        memory = MemorySystem()
        data_rng = random.Random(seed + 1)
        pick = lambda: data_rng.choice([
            data_rng.randint(-50, 50),
            data_rng.randint(-2**62, 2**62),
            0,
        ])
        memory.dram_alloc("a", data=[pick() for _ in range(n)])
        memory.dram_alloc("b", data=[pick() for _ in range(n)])
        memory.dram_alloc("out", size=n)
        memory.dram_alloc("quot", size=n * 2 * len(_DIVISOR_COLUMNS))

        def magnitude():
            return data_rng.choice(
                [1, 2, data_rng.randint(1, 40), data_rng.randint(1, 2**40)])

        memory.dram_alloc("dpos", data=[magnitude() for _ in range(n)])
        memory.dram_alloc("dneg", data=[-magnitude() for _ in range(n)])
        memory.dram_alloc("dmix", data=[data_rng.choice([-1, 1]) * magnitude()
                                        for _ in range(n)])

        class _Instance:
            pass

        instance = _Instance()
        instance.memory = memory
        instance.args = {"n": n}
        return instance

    states = _run_both(program, make_instance)
    assert states["columnar"] == states["token"]


@pytest.mark.parametrize("seed", range(6))
def test_div_rem_kernels_by_divisor_sign(seed):
    """The vector kernels equal the scalar ``//`` and ``%`` row by row, for
    each divisor sign class."""
    import numpy as np
    from repro.core.opcodes import OPCODES

    rng = random.Random(seed)
    span = rng.choice([5, 40, 2**31, 2**62])
    dividends = {"mixed": [rng.randint(-span, span) for _ in range(64)],
                 "non-negative": [rng.randint(0, span) for _ in range(64)]}
    magnitudes = [rng.choice([1, 2, 32, rng.randint(1, span)]) for _ in range(64)]
    divisors = {"positive": magnitudes,
                "negative": [-m for m in magnitudes],
                "mixed": [rng.choice([-1, 1]) * m for m in magnitudes]}
    for a in dividends.values():
        for b in divisors.values():
            for fn in ("div", "rem"):
                scalar, vector = OPCODES[fn]
                values = vector([np.array(a, np.int64), np.array(b, np.int64)])
                assert values.tolist() == [scalar(x, y) for x, y in zip(a, b)]
