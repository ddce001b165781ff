"""The ``compute`` opcode table: every opcode's semantics, defined once.

A Revet value is a 64-bit two's-complement word (``docs/executor.md``,
"Values"): ``add``, ``sub``, ``mul``, ``neg``, ``shl`` and ``div`` wrap to
``int64``, as the vector lanes do.  Each entry pairs

* ``scalar(*values)`` — the semantics on one row of Python ints.  The token
  executor applies it per element (the columnar executor too, when the
  vector kernel traps), and ``canonicalize`` folds constants with it; and
* ``vector(arrays)`` — the same semantics as one numpy expression over
  ``int64`` arrays, returning an ``int64`` array, or ``None`` where
  ``scalar`` raises on some row: a zero divisor (``ZeroDivisionError``) or a
  negative shift count (``ValueError``).

``select`` is (cond, a, b) -> a if cond else b.

Immediate operands
------------------

A ``compute`` node may hold some operands as immediates instead of links:
``params["imm"] = ((position, value), ...)``, positions in the opcode's
operand order, values words (the lowering binds every constant this way,
the way a compute unit holds a stage immediate).  :meth:`Opcode.bind`
returns the entry over the remaining link operands only: ``scalar``
receives the value itself, ``vector`` a 0-d ``int64`` array, which numpy
broadcasts against a column as it does a scalar (and, on the short columns
of a narrow run, faster than an ``np.int64``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def is_word(value: Any) -> bool:
    """True when ``value`` is an ``int`` (not a ``bool``) inside ``int64``."""
    return type(value) is int and INT64_MIN <= value <= INT64_MAX


def wrap(value: int) -> int:
    """``value`` reduced to its two's-complement ``int64`` word."""
    if -0x8000000000000000 <= value <= 0x7FFFFFFFFFFFFFFF:
        return value
    return ((value + 0x8000000000000000) & 0xFFFFFFFFFFFFFFFF) - 0x8000000000000000


def immediate(value: int) -> np.ndarray:
    """An immediate operand as a ``vector`` kernel sees it: a 0-d array."""
    return np.array(value, dtype=np.int64)


class Opcode(NamedTuple):
    """One opcode: scalar semantics and its whole-column kernel."""

    scalar: Callable[..., int]
    vector: Callable[[Sequence[np.ndarray]], Optional[np.ndarray]]

    def bind(self, imm: Sequence[Tuple[int, int]], arity: int) -> "Opcode":
        """This entry over the link operands only, with the ``(position,
        value)`` immediates of an ``arity``-operand node fixed in place."""
        if not imm:
            return self
        scalar, vector = self
        if arity == 2 and len(imm) == 1:
            ((pos, value),) = imm
            col = immediate(value)
            if pos == 0:
                return Opcode(
                    lambda b: scalar(value, b), lambda cols: vector((col, cols[0]))
                )
            return Opcode(
                lambda a: scalar(a, value), lambda cols: vector((cols[0], col))
            )
        fixed = sorted(imm)
        cols_fixed = [(pos, immediate(value)) for pos, value in fixed]

        def bound_scalar(*links):
            args = list(links)
            for pos, value in fixed:
                args.insert(pos, value)
            return scalar(*args)

        def bound_vector(cols):
            args = list(cols)
            for pos, col in cols_fixed:
                args.insert(pos, col)
            return vector(args)

        return Opcode(bound_scalar, bound_vector)


def _add(a, b):
    return wrap(a + b)


def _sub(a, b):
    return wrap(a - b)


def _mul(a, b):
    return wrap(a * b)


def _div(a, b):
    return wrap(a // b)  # only INT64_MIN // -1 leaves int64


def _shl(a, b):
    # A count of 64 or more shifts every bit out, without building the big
    # int; a negative count raises, as ``<<`` does.
    return 0 if b >= 64 else wrap(a << b)


def _shr(a, b):
    # Logical right shift: a negative value shifts as its 32-bit pattern; a
    # non-negative one (which may exceed 32 bits mid-expression, e.g. a
    # bit-packing accumulator) shifts as it is.
    return (a if a >= 0 else a & 0xFFFFFFFF) >> b


def _vector_div(cols):
    a, b = cols
    if (b == 0).any():
        return None
    with np.errstate(over="ignore"):  # INT64_MIN // -1 wraps, as ``_div``
        return np.floor_divide(a, b)


def _vector_rem(cols):
    a, b = cols
    if (b == 0).any():
        return None
    return np.remainder(a, b)


def _shift(npop):
    # numpy already shifts a count of 64 or more as Python does, then wraps.
    def kernel(cols):
        a, b = cols
        return None if (b < 0).any() else npop(a, b)

    return kernel


def _vector_shr(cols):
    a, b = cols
    if (b < 0).any():
        return None
    return np.right_shift(np.where(a < 0, a & 0xFFFFFFFF, a), b)


def _binary(npop):
    def kernel(cols):
        return npop(cols[0], cols[1])

    return kernel


def _compare(npop):
    def kernel(cols):
        return npop(cols[0], cols[1]).astype(np.int64)

    return kernel


OPCODES: Dict[str, Opcode] = {
    "add": Opcode(_add, _binary(np.add)),
    "sub": Opcode(_sub, _binary(np.subtract)),
    "mul": Opcode(_mul, _binary(np.multiply)),
    "div": Opcode(_div, _vector_div),
    "rem": Opcode(lambda a, b: a % b, _vector_rem),
    "and": Opcode(lambda a, b: a & b, _binary(np.bitwise_and)),
    "or": Opcode(lambda a, b: a | b, _binary(np.bitwise_or)),
    "xor": Opcode(lambda a, b: a ^ b, _binary(np.bitwise_xor)),
    "shl": Opcode(_shl, _shift(np.left_shift)),
    "shr": Opcode(_shr, _vector_shr),
    "ashr": Opcode(lambda a, b: a >> b, _shift(np.right_shift)),
    "eq": Opcode(lambda a, b: int(a == b), _compare(np.equal)),
    "ne": Opcode(lambda a, b: int(a != b), _compare(np.not_equal)),
    "lt": Opcode(lambda a, b: int(a < b), _compare(np.less)),
    "le": Opcode(lambda a, b: int(a <= b), _compare(np.less_equal)),
    "gt": Opcode(lambda a, b: int(a > b), _compare(np.greater)),
    "ge": Opcode(lambda a, b: int(a >= b), _compare(np.greater_equal)),
    "min": Opcode(lambda a, b: min(a, b), _binary(np.minimum)),
    "max": Opcode(lambda a, b: max(a, b), _binary(np.maximum)),
    "not": Opcode(lambda a: int(not a), lambda cols: (cols[0] == 0).astype(np.int64)),
    "neg": Opcode(lambda a: wrap(-a), lambda cols: np.negative(cols[0])),
    "copy": Opcode(lambda a: a, lambda cols: cols[0]),
    "select": Opcode(
        lambda c, a, b: a if c else b,
        lambda cols: np.where(cols[0] != 0, cols[1], cols[2]),
    ),
    "land": Opcode(
        lambda a, b: int(bool(a) and bool(b)),
        lambda cols: ((cols[0] != 0) & (cols[1] != 0)).astype(np.int64),
    ),
    "lor": Opcode(
        lambda a, b: int(bool(a) or bool(b)),
        lambda cols: ((cols[0] != 0) | (cols[1] != 0)).astype(np.int64),
    ),
}


def resolve(name: Any) -> Opcode:
    """The table entry a ``compute`` node's ``fn`` names."""
    opcode = OPCODES.get(name) if isinstance(name, str) else None
    if opcode is None:
        raise GraphError(f"unknown opcode {name!r} in compute node")
    return opcode
