"""The opcode table: a Revet value is a 64-bit word, and every ``vector``
kernel is its ``scalar`` applied row by row (``docs/executor.md``, "Values").
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import make_executor
from repro.core.graph import DFGraph
from repro.core.opcodes import INT64_MAX, INT64_MIN, OPCODES, immediate, is_word
from repro.errors import GraphError

#: Always in every value column.
SPECIAL = [INT64_MIN, INT64_MAX, -1, 0]
WORDS = st.one_of(st.sampled_from(SPECIAL), st.integers(INT64_MIN, INT64_MAX))
COUNTS = st.integers(-2, 130)
SHIFTS = {"shl", "shr", "ashr"}
ARITY = {"not": 1, "neg": 1, "copy": 1, "select": 3}


@st.composite
def columns(draw):
    """Three value columns, each ``SPECIAL`` plus drawn words in drawn
    order, and a column of shift counts over ``[-2, 130]``."""
    n = draw(st.integers(0, 4))
    words = [
        draw(st.permutations(SPECIAL + draw(st.lists(WORDS, min_size=n, max_size=n))))
        for _ in range(3)
    ]
    return words, draw(st.lists(COUNTS, min_size=n + 4, max_size=n + 4))


def operands(name, words, counts):
    """The columns opcode ``name`` reads: a shift's count is ``counts``."""
    if name in SHIFTS:
        return [words[0], counts]
    return words[:ARITY.get(name, 2)]


def scalar_outcome(scalar, row):
    """``scalar(*row)``, or the type of the exception it raises."""
    try:
        value = scalar(*row)
    except (ZeroDivisionError, ValueError) as error:
        return type(error)
    assert is_word(value), (row, value)
    return value


def assert_kernel_matches(kernel, arrays, expected):
    values = kernel(arrays)
    if any(isinstance(e, type) for e in expected):
        assert values is None  # the kernel traps where a row's scalar raises
    else:
        assert values.dtype == np.int64 and values.tolist() == expected


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(columns())
def test_every_kernel_is_its_scalar_row_by_row(drawn):
    """Whole columns, then each row alone with its later operands as
    immediates (0-d arrays)."""
    for name, (scalar, vector) in OPCODES.items():
        cols = operands(name, *drawn)
        rows = list(zip(*cols))
        expected = [scalar_outcome(scalar, row) for row in rows]
        assert_kernel_matches(vector, [np.array(c, np.int64) for c in cols], expected)
        for row, want in zip(rows, expected):
            arrays = [np.array(row[:1], np.int64)] + [immediate(v) for v in row[1:]]
            assert_kernel_matches(vector, arrays, [want])


def one_node_graph(name):
    graph = DFGraph(name)
    ins = [graph.add_input(f"in{k}") for k in range(ARITY.get(name, 2))]
    graph.set_outputs(
        graph.add_node("compute", ins, params={"fn": name}).outputs)
    return graph


GRAPHS = {name: one_node_graph(name) for name in OPCODES}


def run(graph, executor, inputs):
    """The outputs, or the type of the error the run raises."""
    try:
        return make_executor(graph, executor=executor).run(inputs)
    except (ZeroDivisionError, ValueError) as error:
        return type(error)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(columns())
def test_both_executors_agree_on_every_opcode(drawn):
    """Values, or the exception type: a trapping kernel's row-wise exit
    raises what the token executor raises."""
    for name, graph in GRAPHS.items():
        inputs = {f"in{k}": c for k, c in enumerate(operands(name, *drawn))}
        assert run(graph, "columnar", inputs) == run(graph, "token", inputs), name


@pytest.mark.parametrize("name,row,value", [
    ("add", (INT64_MAX, 1), INT64_MIN),
    ("sub", (INT64_MIN, 1), INT64_MAX),
    # murmur3's k * 0xcc9e2d51 leaves int64; its low 32 bits, which the
    # next line keeps, are the exact product's.
    ("mul", (0xFFFFFFFF, 0xCC9E2D51), 0xFFFFFFFF * 0xCC9E2D51 - 2**64),
    ("mul", (INT64_MAX, INT64_MAX), 1),
    ("mul", (1 << 62, 4), 0),
    ("neg", (INT64_MIN,), INT64_MIN),
    ("div", (INT64_MIN, -1), INT64_MIN),
    ("div", (-7, 2), -4),
    ("rem", (INT64_MIN, -1), 0),
    ("rem", (-7, 2), 1),
    ("shl", (1, 63), INT64_MIN),
    ("shl", (3, 63), INT64_MIN),
    ("shl", (-1, 64), 0),
    ("shl", (5, 10**6), 0),
    ("shr", (-1, 0), 0xFFFFFFFF),
    ("shr", (-1, 28), 0xF),
    ("shr", (INT64_MAX, 130), 0),
    ("ashr", (INT64_MIN, 130), -1),
    ("ashr", (INT64_MIN, 1), INT64_MIN // 2),
])
def test_wrap_shift_and_div_rules(name, row, value):
    assert OPCODES[name].scalar(*row) == value


@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_a_negative_shift_count_raises(name):
    with pytest.raises(ValueError, match="negative shift count"):
        OPCODES[name].scalar(1, -1)


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70, 1.0, True, "1"])
@pytest.mark.parametrize("executor", ["token", "columnar"])
def test_a_graph_input_that_is_not_a_word_raises(value, executor):
    """One check in ``_as_stream``, for both executors."""
    ex = make_executor(GRAPHS["add"], executor=executor)
    with pytest.raises(GraphError, match="not an int64 word"):
        ex.run({"in0": [1, value], "in1": [2, 3]})


@pytest.mark.parametrize("op,params", [
    ("const", {"value": 2**63}),
    ("const", {"value": "7"}),
    ("compute", {"fn": "add", "imm": ((1, -(2**63) - 1),)}),
], ids=["const-beyond-int64", "const-str", "immediate-beyond-int64"])
def test_a_constant_that_is_not_a_word_raises(op, params):
    graph = DFGraph(op)
    x = graph.add_input("x")
    graph.set_outputs(graph.add_node(op, [x], params=params).outputs)
    for executor in ("token", "columnar"):
        with pytest.raises(GraphError, match="not an int64 word"):
            make_executor(graph, executor=executor)
