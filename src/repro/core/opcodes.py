"""The ``compute`` opcode table: every opcode's semantics, defined once.

Each entry pairs

* ``scalar(*values)`` — the exact Python semantics on one row.  The token
  executor applies it per element, the columnar executor row-wise when the
  vector kernel cannot be used, and ``canonicalize`` folds constants with
  it; and
* ``vector(cols)`` — a whole-column numpy kernel over ``int64`` columns
  (objects with ``values``, ``lo`` and ``hi``, see
  :class:`repro.core.columnar.Column`).  It returns ``(values, lo, hi)``,
  exact Python-int bounds included, or ``None`` when it cannot prove the
  result equals ``scalar`` row by row (a possible int64 overflow, an
  out-of-range shift, a zero divisor).

``select`` is (cond, a, b) -> a if cond else b.

Immediate operands
------------------

A ``compute`` node may hold some operands as immediates instead of links:
``params["imm"] = ((position, value), ...)``, positions in the opcode's
operand order, values ``int64``-range ints (the lowering binds every such
constant this way, the way a compute unit holds a stage immediate).
:meth:`Opcode.bind` returns the entry over the remaining link operands
only: ``scalar`` receives the value itself, ``vector`` an
:class:`Immediate`, whose ``values`` numpy broadcasts against a column and
whose bounds are the value.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def fits_int64(lo: int, hi: int) -> bool:
    """True when every value in ``[lo, hi]`` is an ``int64``."""
    return INT64_MIN <= lo and hi <= INT64_MAX


class Immediate:
    """An immediate operand as a ``vector`` kernel sees it: ``values`` is
    its value as a 0-d ``int64`` array, and ``lo == hi`` is the value.

    numpy broadcasts a 0-d array against a column as it does a scalar, and
    on the short columns of a narrow run does so faster than an
    ``np.int64``.
    """

    __slots__ = ("values", "lo", "hi")

    def __init__(self, value: int):
        self.values = np.array(value, dtype=np.int64)
        self.lo = self.hi = value


class Opcode(NamedTuple):
    """One opcode: exact scalar semantics and its whole-column kernel."""

    scalar: Callable[..., Any]
    vector: Callable[[Sequence[Any]], Optional[Tuple[Any, int, int]]]

    def bind(self, imm: Sequence[Tuple[int, int]], arity: int) -> "Opcode":
        """This entry over the link operands only, with the ``(position,
        value)`` immediates of an ``arity``-operand node fixed in place."""
        if not imm:
            return self
        scalar, vector = self
        if arity == 2 and len(imm) == 1:
            ((pos, value),) = imm
            col = Immediate(value)
            if pos == 0:
                return Opcode(lambda b: scalar(value, b),
                              lambda cols: vector((col, cols[0])))
            return Opcode(lambda a: scalar(a, value),
                          lambda cols: vector((cols[0], col)))
        fixed = sorted(imm)
        cols_fixed = [(pos, Immediate(value)) for pos, value in fixed]

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


def _bit_bounds(a, b) -> Tuple[int, int]:
    """Bounds for a two's-complement bitwise result over bounded inputs."""
    k = min(max(abs(a.lo), abs(a.hi), abs(b.lo), abs(b.hi)).bit_length(), 63)
    if a.lo >= 0 and a.hi >= 0 and b.lo >= 0 and b.hi >= 0:
        return 0, (1 << k) - 1
    return -(1 << k), (1 << k) - 1


def _add(cols):
    a, b = cols
    lo, hi = a.lo + b.lo, a.hi + b.hi
    if not fits_int64(lo, hi):
        return None
    return a.values + b.values, lo, hi


def _sub(cols):
    a, b = cols
    lo, hi = a.lo - b.hi, a.hi - b.lo
    if not fits_int64(lo, hi):
        return None
    return a.values - b.values, lo, hi


def _mul(cols):
    a, b = cols
    corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    lo, hi = min(corners), max(corners)
    if not fits_int64(lo, hi):
        return None
    return a.values * b.values, lo, hi


def _div(cols):
    a, b = cols
    if (b.lo <= 0 <= b.hi) and bool((b.values == 0).any()):
        return None  # the exact ZeroDivisionError comes from the scalar
    if b.lo > 0:
        # Floor division by a positive: no larger in magnitude, same sign.
        lo, hi = min(a.lo, 0), max(a.hi, 0)
    elif b.hi < 0:
        lo, hi = min(-a.hi, 0), max(-a.lo, 0)
    else:
        m = max(abs(a.lo), abs(a.hi))
        lo, hi = -m, m
    if not fits_int64(lo, hi):
        return None
    return np.floor_divide(a.values, b.values), lo, hi


def _rem(cols):
    a, b = cols
    if (b.lo <= 0 <= b.hi) and bool((b.values == 0).any()):
        return None
    # Python's remainder takes the divisor's sign and is smaller than it in
    # magnitude; a non-negative dividend is never exceeded either.
    lo = b.lo + 1 if b.lo < 0 else 0
    hi = b.hi - 1 if b.hi > 0 else 0
    if a.lo >= 0:
        hi = min(hi, a.hi)
    return np.remainder(a.values, b.values), lo, hi


def _bitwise(npop):
    def kernel(cols):
        a, b = cols
        lo, hi = _bit_bounds(a, b)
        return npop(a.values, b.values), lo, hi

    return kernel


def _shl(cols):
    a, b = cols
    if b.lo < 0 or b.hi > 63:
        return None
    corners = (a.lo << b.lo, a.lo << b.hi, a.hi << b.lo, a.hi << b.hi)
    lo, hi = min(corners), max(corners)
    if not fits_int64(lo, hi):
        return None
    return np.left_shift(a.values, b.values), lo, hi


def _shr_scalar(a, b):
    # Logical right shift: negative values are treated as 32-bit patterns;
    # non-negative values (which may exceed 32 bits mid-expression, e.g. a
    # bit-packing accumulator) shift exactly.
    return (a if a >= 0 else a & 0xFFFFFFFF) >> b


def _shr(cols):
    a, b = cols
    if b.lo < 0 or b.hi > 63:
        return None
    v = a.values
    if a.lo < 0:
        v = np.where(v < 0, v & 0xFFFFFFFF, v)
        lo, hi = 0, max(a.hi, 0xFFFFFFFF)
    else:
        lo, hi = a.lo >> b.hi, a.hi >> b.lo
    return np.right_shift(v, b.values), lo, hi


def _ashr(cols):
    a, b = cols
    if b.lo < 0 or b.hi > 63:
        return None
    corners = (a.lo >> b.lo, a.lo >> b.hi, a.hi >> b.lo, a.hi >> b.hi)
    return np.right_shift(a.values, b.values), min(corners), max(corners)


def _compare(npop):
    def kernel(cols):
        a, b = cols
        return npop(a.values, b.values).astype(np.int64), 0, 1

    return kernel


def _min(cols):
    a, b = cols
    return np.minimum(a.values, b.values), min(a.lo, b.lo), min(a.hi, b.hi)


def _max(cols):
    a, b = cols
    return np.maximum(a.values, b.values), max(a.lo, b.lo), max(a.hi, b.hi)


def _not(cols):
    (a,) = cols
    return (a.values == 0).astype(np.int64), 0, 1


def _neg(cols):
    (a,) = cols
    lo, hi = -a.hi, -a.lo
    if not fits_int64(lo, hi):
        return None
    return -a.values, lo, hi


def _copy(cols):
    (a,) = cols
    return a.values, a.lo, a.hi


def _select(cols):
    c, a, b = cols
    return (np.where(c.values != 0, a.values, b.values),
            min(a.lo, b.lo), max(a.hi, b.hi))


def _land(cols):
    a, b = cols
    return ((a.values != 0) & (b.values != 0)).astype(np.int64), 0, 1


def _lor(cols):
    a, b = cols
    return ((a.values != 0) | (b.values != 0)).astype(np.int64), 0, 1


OPCODES: Dict[str, Opcode] = {
    "add": Opcode(lambda a, b: a + b, _add),
    "sub": Opcode(lambda a, b: a - b, _sub),
    "mul": Opcode(lambda a, b: a * b, _mul),
    "div": Opcode(lambda a, b: (a // b if isinstance(a, int) and isinstance(b, int)
                                else a / b), _div),
    "rem": Opcode(lambda a, b: a % b, _rem),
    "and": Opcode(lambda a, b: a & b, _bitwise(np.bitwise_and)),
    "or": Opcode(lambda a, b: a | b, _bitwise(np.bitwise_or)),
    "xor": Opcode(lambda a, b: a ^ b, _bitwise(np.bitwise_xor)),
    "shl": Opcode(lambda a, b: a << b, _shl),
    "shr": Opcode(_shr_scalar, _shr),
    "ashr": Opcode(lambda a, b: a >> b, _ashr),
    "eq": Opcode(lambda a, b: int(a == b), _compare(np.equal)),
    "ne": Opcode(lambda a, b: int(a != b), _compare(np.not_equal)),
    "lt": Opcode(lambda a, b: int(a < b), _compare(np.less)),
    "le": Opcode(lambda a, b: int(a <= b), _compare(np.less_equal)),
    "gt": Opcode(lambda a, b: int(a > b), _compare(np.greater)),
    "ge": Opcode(lambda a, b: int(a >= b), _compare(np.greater_equal)),
    "min": Opcode(lambda a, b: min(a, b), _min),
    "max": Opcode(lambda a, b: max(a, b), _max),
    "not": Opcode(lambda a: int(not a), _not),
    "neg": Opcode(lambda a: -a, _neg),
    "copy": Opcode(lambda a: a, _copy),
    "select": Opcode(lambda c, a, b: a if c else b, _select),
    "land": Opcode(lambda a, b: int(bool(a) and bool(b)), _land),
    "lor": Opcode(lambda a, b: int(bool(a) or bool(b)), _lor),
}


def resolve(name: Any) -> Opcode:
    """The table entry a ``compute`` node's ``fn`` names."""
    opcode = OPCODES.get(name) if isinstance(name, str) else None
    if opcode is None:
        raise GraphError(f"unknown opcode {name!r} in compute node")
    return opcode
