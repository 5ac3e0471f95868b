"""Operator semantics of the Tasklet language, shared by both engines.

One definition of what ``+``, ``/``, ``==``, indexing, etc. *mean* on
runtime values.  The bytecode VM (:mod:`repro.tvm.vm`) calls these on its
slow paths (its fast paths inline the common numeric cases with identical
behaviour), the translated tier (:mod:`repro.tvm.translate`) binds them
as its slow paths, and the test suite's reference AST interpreter
(``tests/tvm/astinterp.py``) calls them for everything — so differential
tests compare control-flow and compilation machinery, not two independent
guesses at arithmetic semantics.

The semantics in one paragraph: arithmetic requires numbers (``bool`` is
*not* a number); ``int ∘ int`` stays ``int`` with C-style truncating
division and dividend-sign modulo; any ``float`` operand promotes; ``+``
also concatenates strings and arrays; ``==`` is structural but never
crosses bool/number or string/number boundaries; ordering works on number
pairs and string pairs; indexing is zero-based, bounds-checked, with no
negative-index wraparound.
"""

from __future__ import annotations

from ..common.errors import (
    VMDivisionByZero,
    VMIndexError,
    VMTypeError,
)
from .opcodes import Op


def require_number(left, right, op: str) -> None:
    """Raise unless both operands are non-bool numbers."""
    if (
        isinstance(left, bool)
        or isinstance(right, bool)
        or not isinstance(left, (int, float))
        or not isinstance(right, (int, float))
    ):
        raise VMTypeError(
            f"operator {op!r} needs numbers, got "
            f"{type(left).__name__} and {type(right).__name__}"
        )


def add(left, right):
    """``+``: numeric addition, string concat, or array concat."""
    if isinstance(left, str) and isinstance(right, str):
        return left + right
    if isinstance(left, list) and isinstance(right, list):
        return left + right
    require_number(left, right, "+")
    return left + right


def divide(left, right):
    """``/``: C-style truncating for int/int, true division otherwise."""
    require_number(left, right, "/")
    if right == 0:
        raise VMDivisionByZero("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


def modulo(left, right):
    """``%``: dividend-sign (C) for int/int, float modulo otherwise."""
    require_number(left, right, "%")
    if right == 0:
        raise VMDivisionByZero("modulo by zero")
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return remainder if left >= 0 else -remainder
    return float(left) % float(right)


def equals(left, right) -> bool:
    """``==``: structural, but bool/number and str/number never equal."""
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if type(left) is not type(right):
        return False
    return left == right


def order(op: Op, left, right) -> bool:
    """``< <= > >=`` on number pairs or string pairs."""
    both_numbers = (
        not isinstance(left, bool)
        and not isinstance(right, bool)
        and isinstance(left, (int, float))
        and isinstance(right, (int, float))
    )
    both_strings = isinstance(left, str) and isinstance(right, str)
    if not (both_numbers or both_strings):
        raise VMTypeError(
            f"cannot order {type(left).__name__} and {type(right).__name__}"
        )
    if op is Op.LT:
        return left < right
    if op is Op.LE:
        return left <= right
    if op is Op.GT:
        return left > right
    return left >= right


def index_get(base, index):
    """``base[index]`` on arrays and strings; bounds-checked."""
    if not isinstance(index, int) or isinstance(index, bool):
        raise VMTypeError(f"index must be int, got {type(index).__name__}")
    if isinstance(base, (list, str)):
        if not 0 <= index < len(base):
            kind = "array" if isinstance(base, list) else "string"
            raise VMIndexError(f"{kind} index {index} out of range [0, {len(base)})")
        return base[index]
    raise VMTypeError(f"cannot index {type(base).__name__}")


def index_set(base, index, value) -> None:
    """``base[index] = value`` on arrays only."""
    if not isinstance(base, list):
        raise VMTypeError(f"cannot index-assign {type(base).__name__}")
    if not isinstance(index, int) or isinstance(index, bool):
        raise VMTypeError(f"index must be int, got {type(index).__name__}")
    if not 0 <= index < len(base):
        raise VMIndexError(f"array index {index} out of range [0, {len(base)})")
    base[index] = value
