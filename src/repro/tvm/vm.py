"""The Tasklet Virtual Machine: a sandboxed stack interpreter.

Design goals, in order:

1. **Portability / determinism** — a program produces bit-identical results
   on every host, which makes redundant-execution voting possible.  The
   only randomness is the execution-scoped seeded PRNG exposed through
   ``rand()``/``rand_int()``.
2. **Safety** — untrusted bytecode runs with an instruction budget
   ("fuel"), operand/call-stack depth limits, and an allocation cap.  On
   violation the VM raises; the provider converts that into a failed
   execution message, never a crashed provider.
3. **Observability** — :class:`ExecutionStats` reports instruction counts,
   so simulations can convert "work" into virtual seconds using a device's
   speed factor, and providers can bill fuel.

Implementation notes (the loop is CPython-tuned, measured in F1):
dispatch is on plain ints (see ``FunctionCode.pairs``); the common
numeric paths of arithmetic/comparison are inlined with ``type(x) is``
checks (which also exclude ``bool``, preserving the language's strict
bool/number separation); the operand-stack limit is enforced at
checkpoints every 2048 instructions plus at every call and array build,
so a runaway push loop can overshoot ``max_stack`` by at most 2048
entries before being stopped.

This is the *portable* engine: the reference semantics and what every
translated run (:mod:`repro.tvm.translate`) restarts
on when it gives up — so every error and every failing instruction count
a provider reports is produced here.

A :class:`TVM` instance runs one execution (``run`` may only be called
once); create a fresh instance per Tasklet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..common.errors import (
    VMError,
    VMFuelExhausted,
    VMInvalidProgram,
    VMStackOverflow,
    VMTypeError,
)
from . import operators
from .builtins import BUILTIN_ORDER, BUILTINS
from .bytecode import CompiledProgram, FunctionCode
from .opcodes import Op

#: Sentinel for "no value" (void returns / uninitialised locals).  A
#: distinct object, not None, so Tasklet code can never observe or forge it.
_NONE = object()

#: Default resource limits; generous for kernels, tight enough to keep a
#: runaway Tasklet from monopolising a provider.
DEFAULT_FUEL = 50_000_000
DEFAULT_MAX_STACK = 4096
DEFAULT_MAX_CALL_DEPTH = 256

#: Stack-limit checkpoint period (power of two; see module docstring).
_CHECK_MASK = 2047


@dataclass
class VMLimits:
    """Resource limits for one execution."""

    fuel: int = DEFAULT_FUEL
    max_stack: int = DEFAULT_MAX_STACK
    max_call_depth: int = DEFAULT_MAX_CALL_DEPTH


@dataclass
class ExecutionStats:
    """Accounting of one completed (or failed) execution.

    ``max_stack_depth`` is a high-water mark sampled at checkpoints and
    call boundaries, not per instruction.
    """

    instructions: int = 0
    fuel_limit: int = 0
    max_stack_depth: int = 0
    max_call_depth: int = 0
    builtin_calls: int = 0
    function_calls: int = 0


@dataclass
class _Frame:
    function: FunctionCode
    locals: list
    return_address: int  # instruction pointer in the caller
    stack_base: int  # operand stack height at call time


_EXACT_SCALARS = frozenset((bool, int, float, str))


def is_tasklet_value(value: Any) -> bool:
    """Whether ``value`` is a legal Tasklet runtime value.  A list is
    answered from the set of its element types (one C-level pass); only
    elements not exactly a scalar type — nested rows, instances of a
    scalar subclass, anything illegal — are looked at one by one."""
    if isinstance(value, (bool, int, float, str)):
        return True
    if not isinstance(value, list):
        return False
    return _EXACT_SCALARS.issuperset(map(type, value)) or all(
        is_tasklet_value(item) for item in value if type(item) not in _EXACT_SCALARS
    )


class TVM:
    """One Tasklet Virtual Machine execution context.

    >>> from repro.tvm.compiler import compile_source
    >>> program = compile_source("func main(n: int) -> int { return n * 2; }")
    >>> TVM(program).run("main", [21])
    42
    """

    def __init__(
        self,
        program: CompiledProgram,
        limits: VMLimits | None = None,
        seed: int = 0,
        verify: bool = True,
    ):
        if verify:
            program.verify()
        self.program = program
        self.limits = limits or VMLimits()
        self.rng = random.Random(seed)
        self.stats = ExecutionStats(fuel_limit=self.limits.fuel)
        self._stack: list = []
        self._frames: list[_Frame] = []
        self._ran = False

    # -- public API ----------------------------------------------------------

    def run(self, entry: str = "main", args: list | None = None) -> Any:
        """Execute ``entry`` with ``args``; returns its result.

        Void functions return ``None``.  Raises a :class:`VMError`
        subclass on any runtime failure.
        """
        if self._ran:
            raise VMError("a TVM instance runs exactly one execution")
        self._ran = True
        args = list(args or [])
        function = self.program.function(entry)
        if len(args) != function.n_params:
            raise VMError(
                f"{entry}() expects {function.n_params} arguments, got {len(args)}"
            )
        for arg in args:
            if not is_tasklet_value(arg):
                raise VMTypeError(f"argument {arg!r} is not a valid Tasklet value")
        result = self._execute(function, args)
        return None if result is _NONE else result

    # -- machinery ----------------------------------------------------------

    def _execute(self, function: FunctionCode, args: list) -> Any:
        limits = self.limits
        stats = self.stats
        stack = self._stack
        frames = self._frames
        constants = self.program.constants
        functions = self.program.functions
        max_stack = limits.max_stack
        max_call_depth = limits.max_call_depth
        rng = self.rng
        builtins = [BUILTINS[name] for name in BUILTIN_ORDER]

        local_vars = args + [_NONE] * (function.n_locals - function.n_params)
        frames.append(_Frame(function, local_vars, return_address=-1, stack_base=0))
        code = function.pairs
        ip = 0
        fuel = limits.fuel

        try:
            while True:
                if fuel <= 0:
                    raise VMFuelExhausted(
                        f"fuel exhausted after {limits.fuel} instructions"
                    )
                if fuel & _CHECK_MASK == 0:
                    depth = len(stack)
                    if depth > max_stack:
                        raise VMStackOverflow(
                            f"operand stack exceeded {max_stack} entries"
                        )
                    if depth > stats.max_stack_depth:
                        stats.max_stack_depth = depth
                fuel -= 1

                op, operand = code[ip]
                ip += 1

                if op == 3:  # LOAD
                    value = local_vars[operand]
                    if value is _NONE:
                        raise VMError(f"read of uninitialised local slot {operand}")
                    stack.append(value)
                elif op == 1:  # PUSH_CONST
                    stack.append(constants[operand])
                elif op == 4:  # STORE
                    local_vars[operand] = stack.pop()
                elif op == 30:  # JUMP
                    ip = operand
                elif op == 10:  # ADD
                    right = stack.pop()
                    left = stack[-1]
                    if (type(left) is int or type(left) is float) and (
                        type(right) is int or type(right) is float
                    ):
                        stack[-1] = left + right
                    else:
                        stack[-1] = self._add(left, right)
                elif op == 11:  # SUB
                    right = stack.pop()
                    left = stack[-1]
                    if (type(left) is int or type(left) is float) and (
                        type(right) is int or type(right) is float
                    ):
                        stack[-1] = left - right
                    else:
                        self._require_number(left, right, "-")
                        stack[-1] = left - right
                elif op == 12:  # MUL
                    right = stack.pop()
                    left = stack[-1]
                    if (type(left) is int or type(left) is float) and (
                        type(right) is int or type(right) is float
                    ):
                        stack[-1] = left * right
                    else:
                        self._require_number(left, right, "*")
                        stack[-1] = left * right
                elif op == 13:  # DIV
                    right = stack.pop()
                    stack[-1] = self._divide(stack[-1], right)
                elif op == 14:  # MOD
                    right = stack.pop()
                    stack[-1] = self._modulo(stack[-1], right)
                elif op == 15:  # NEG
                    value = stack[-1]
                    if type(value) is int or type(value) is float:
                        stack[-1] = -value
                    else:
                        raise VMTypeError(f"cannot negate {type(value).__name__}")
                elif op == 22:  # LT
                    right = stack.pop()
                    left = stack[-1]
                    if (type(left) is int or type(left) is float) and (
                        type(right) is int or type(right) is float
                    ):
                        stack[-1] = left < right
                    else:
                        stack[-1] = self._order(Op.LT, left, right)
                elif op == 23:  # LE
                    right = stack.pop()
                    left = stack[-1]
                    if (type(left) is int or type(left) is float) and (
                        type(right) is int or type(right) is float
                    ):
                        stack[-1] = left <= right
                    else:
                        stack[-1] = self._order(Op.LE, left, right)
                elif op == 24:  # GT
                    right = stack.pop()
                    left = stack[-1]
                    if (type(left) is int or type(left) is float) and (
                        type(right) is int or type(right) is float
                    ):
                        stack[-1] = left > right
                    else:
                        stack[-1] = self._order(Op.GT, left, right)
                elif op == 25:  # GE
                    right = stack.pop()
                    left = stack[-1]
                    if (type(left) is int or type(left) is float) and (
                        type(right) is int or type(right) is float
                    ):
                        stack[-1] = left >= right
                    else:
                        stack[-1] = self._order(Op.GE, left, right)
                elif op == 20:  # EQ
                    right = stack.pop()
                    stack[-1] = self._equals(stack[-1], right)
                elif op == 21:  # NE
                    right = stack.pop()
                    stack[-1] = not self._equals(stack[-1], right)
                elif op == 26:  # NOT
                    value = stack[-1]
                    if value is True:
                        stack[-1] = False
                    elif value is False:
                        stack[-1] = True
                    else:
                        raise VMTypeError(
                            f"'!' needs bool, got {type(value).__name__}"
                        )
                elif op == 31:  # JUMP_IF_FALSE
                    condition = stack.pop()
                    if condition is False:
                        ip = operand
                    elif condition is not True:
                        raise VMTypeError(
                            f"condition must be bool, got {type(condition).__name__}"
                        )
                elif op == 32:  # JUMP_IF_TRUE
                    condition = stack.pop()
                    if condition is True:
                        ip = operand
                    elif condition is not False:
                        raise VMTypeError(
                            f"condition must be bool, got {type(condition).__name__}"
                        )
                elif op == 51:  # INDEX
                    index = stack.pop()
                    base = stack[-1]
                    if (
                        type(base) is list
                        and type(index) is int
                        and 0 <= index < len(base)
                    ):
                        stack[-1] = base[index]
                    else:
                        stack[-1] = self._index(base, index)
                elif op == 52:  # STORE_INDEX
                    value = stack.pop()
                    index = stack.pop()
                    base = stack.pop()
                    if (
                        type(base) is list
                        and type(index) is int
                        and 0 <= index < len(base)
                    ):
                        base[index] = value
                    else:
                        self._store_index(base, index, value)
                elif op == 41:  # CALL_BUILTIN
                    index, arity = divmod(operand, 8)
                    spec = builtins[index]
                    stats.builtin_calls += 1
                    call_args = stack[len(stack) - arity :] if arity else []
                    del stack[len(stack) - arity :]
                    try:
                        stack.append(spec.impl(rng, call_args))
                    except VMError:
                        raise
                    except (TypeError, AttributeError) as exc:
                        raise VMTypeError(f"{spec.name}(): {exc}") from exc
                    except (ValueError, OverflowError) as exc:
                        raise VMError(f"{spec.name}(): {exc}") from exc
                elif op == 40:  # CALL
                    callee = functions[operand]
                    if len(frames) >= max_call_depth:
                        raise VMStackOverflow(
                            f"call depth exceeded {max_call_depth}"
                        )
                    if len(stack) > max_stack:
                        raise VMStackOverflow(
                            f"operand stack exceeded {max_stack} entries"
                        )
                    stats.function_calls += 1
                    n_args = callee.n_params
                    if n_args:
                        new_locals = stack[len(stack) - n_args :]
                        del stack[len(stack) - n_args :]
                    else:
                        new_locals = []
                    new_locals.extend([_NONE] * (callee.n_locals - n_args))
                    frames.append(
                        _Frame(
                            callee,
                            new_locals,
                            return_address=ip,
                            stack_base=len(stack),
                        )
                    )
                    if len(frames) > stats.max_call_depth:
                        stats.max_call_depth = len(frames)
                    if len(stack) > stats.max_stack_depth:
                        stats.max_stack_depth = len(stack)
                    local_vars = new_locals
                    code = callee.pairs
                    ip = 0
                elif op == 42:  # RET
                    result = stack.pop()
                    frame = frames.pop()
                    if not frames:
                        return result
                    del stack[frame.stack_base :]
                    stack.append(result)
                    top = frames[-1]
                    local_vars = top.locals
                    code = top.function.pairs
                    ip = frame.return_address
                elif op == 50:  # BUILD_ARRAY
                    if operand:
                        elements = stack[len(stack) - operand :]
                        del stack[len(stack) - operand :]
                    else:
                        elements = []
                    stack.append(elements)
                    if len(stack) > max_stack:
                        raise VMStackOverflow(
                            f"operand stack exceeded {max_stack} entries"
                        )
                elif op == 5:  # POP
                    stack.pop()
                elif op == 6:  # DUP
                    stack.append(stack[-1])
                elif op == 2:  # PUSH_NONE
                    stack.append(_NONE)
                else:  # pragma: no cover - verify() rejects unknown opcodes
                    raise VMInvalidProgram(f"unknown opcode {op!r}")
        finally:
            stats.instructions = limits.fuel - fuel
            if len(stack) > stats.max_stack_depth:
                stats.max_stack_depth = len(stack)

    # -- operator semantics (slow paths) ---------------------------------------
    #
    # Shared with the reference AST interpreter via repro.tvm.operators;
    # the fast paths inlined in the loop above implement the identical
    # common numeric cases.

    _require_number = staticmethod(operators.require_number)
    _add = staticmethod(operators.add)
    _divide = staticmethod(operators.divide)
    _modulo = staticmethod(operators.modulo)
    _equals = staticmethod(operators.equals)
    _order = staticmethod(operators.order)
    _index = staticmethod(operators.index_get)
    _store_index = staticmethod(operators.index_set)


def execute(
    program: CompiledProgram,
    entry: str = "main",
    args: list | None = None,
    limits: VMLimits | None = None,
    seed: int = 0,
) -> tuple[Any, ExecutionStats]:
    """Run ``entry(args)`` on a fresh VM; returns ``(result, stats)``."""
    machine = TVM(program, limits=limits, seed=seed)
    result = machine.run(entry, args)
    return result, machine.stats
