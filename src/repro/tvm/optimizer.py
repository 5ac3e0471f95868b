"""Bytecode optimizer: folding, peepholes, jump threading, dead code.

Optional post-compilation pass (``compile_source(..., optimize=True)`` or
:func:`optimize_program`).  Unlike provider-side translation
(:mod:`repro.tvm.translate`), these transformations change the *portable*
bytecode — they happen before fingerprinting, on the consumer side.
Four classic transformations, each safe under the language's semantics:

* **constant folding** — ``PUSH_CONST a; PUSH_CONST b; <arith/cmp>``
  becomes one ``PUSH_CONST`` when the operation cannot fail (division and
  modulo fold only for non-zero constant divisors).  Folding applies the
  *operator semantics module*, so folded results are bit-identical to
  runtime results — including C-style truncating division.
* **peepholes** — ``NOT; JUMP_IF_FALSE`` becomes ``JUMP_IF_TRUE`` (and
  the mirror), and the stack-neutral pairs ``DUP; POP`` and
  ``PUSH_CONST/PUSH_NONE; POP`` are deleted.  The branch flip relies on
  the static type discipline the semantic analyser enforces (the operand
  of ``!`` is always bool in compiled code); only the error *message* of
  ill-typed hand-assembled bytecode could differ.
* **jump threading** — a jump whose target is another unconditional jump
  retargets to the final destination (chains collapse; cycles detected
  and left alone).
* **dead-code elimination** — instructions unreachable from the entry are
  removed (straight-line reachability over the jump graph), with all jump
  targets re-indexed.

The pass is *idempotent-safe* (running it twice is fine) and always
re-verifies its output.  Experiment A4 measures its effect; the
differential suite (tests/tvm/test_optimizer.py) proves behavioural
equivalence against both engines.
"""

from __future__ import annotations

from ..common.errors import VMError
from . import operators
from .bytecode import CompiledProgram, FunctionCode, Instruction
from .opcodes import JUMP_OPS, Op

#: Binary opcodes foldable when both operands are constants.
_FOLDABLE_BINARY = {
    Op.ADD: operators.add,
    Op.SUB: lambda a, b: _checked_sub(a, b),
    Op.MUL: lambda a, b: _checked_mul(a, b),
    Op.DIV: operators.divide,
    Op.MOD: operators.modulo,
    Op.EQ: operators.equals,
    Op.NE: lambda a, b: not operators.equals(a, b),
    Op.LT: lambda a, b: operators.order(Op.LT, a, b),
    Op.LE: lambda a, b: operators.order(Op.LE, a, b),
    Op.GT: lambda a, b: operators.order(Op.GT, a, b),
    Op.GE: lambda a, b: operators.order(Op.GE, a, b),
}


def _checked_sub(a, b):
    operators.require_number(a, b, "-")
    return a - b


def _checked_mul(a, b):
    operators.require_number(a, b, "*")
    return a * b


class _Pool:
    """Append-only view over the shared constant pool."""

    def __init__(self, constants: list):
        self.constants = constants
        self._positions: dict[tuple, int] = {}
        for position, value in enumerate(constants):
            self._positions.setdefault((type(value).__name__, value), position)

    def add(self, value) -> int:
        key = (type(value).__name__, value)
        if key in self._positions:
            return self._positions[key]
        self.constants.append(value)
        self._positions[key] = len(self.constants) - 1
        return len(self.constants) - 1


def _fold_constants(code: list[Instruction], pool: _Pool) -> list[Instruction]:
    """One left-to-right folding pass (iterated to fixpoint by caller).

    Folding across jump targets would change the meaning of the target
    index, so any instruction that is a jump target acts as a barrier.
    """
    targets = {
        instruction.operand for instruction in code if instruction.op in JUMP_OPS
    }
    output: list[Instruction] = []
    #: map old index -> new index, for retargeting jumps afterwards
    remap: dict[int, int] = {}

    def is_const(instruction: Instruction) -> bool:
        return instruction.op is Op.PUSH_CONST

    for old_index, instruction in enumerate(code):
        remap[old_index] = len(output)
        barrier = old_index in targets
        if (
            not barrier
            and instruction.op in _FOLDABLE_BINARY
            and len(output) >= 2
            and is_const(output[-1])
            and is_const(output[-2])
            # Never fold across an instruction that something jumps to:
            # those two pushes must stay addressable.
            and remap_safe(remap, old_index, targets)
        ):
            left = pool.constants[output[-2].operand]
            right = pool.constants[output[-1].operand]
            try:
                folded = _FOLDABLE_BINARY[instruction.op](left, right)
            except VMError:
                output.append(instruction)  # would fail at runtime: keep it
                continue
            if isinstance(folded, list):
                output.append(instruction)  # array concat: not a pool scalar
                continue
            output.pop()
            output.pop()
            output.append(Instruction(Op.PUSH_CONST, pool.add(folded)))
            continue
        if (
            not barrier
            and instruction.op is Op.NEG
            and output
            and is_const(output[-1])
            and remap_safe(remap, old_index, targets)
        ):
            value = pool.constants[output[-1].operand]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                output.pop()
                output.append(Instruction(Op.PUSH_CONST, pool.add(-value)))
                continue
        if (
            not barrier
            and instruction.op is Op.NOT
            and output
            and is_const(output[-1])
            and remap_safe(remap, old_index, targets)
        ):
            value = pool.constants[output[-1].operand]
            if isinstance(value, bool):
                output.pop()
                output.append(Instruction(Op.PUSH_CONST, pool.add(not value)))
                continue
        output.append(instruction)

    remap[len(code)] = len(output)
    return [
        Instruction(instruction.op, remap[instruction.operand])
        if instruction.op in JUMP_OPS
        else instruction
        for instruction in output
    ]


def remap_safe(remap: dict[int, int], old_index: int, targets: set) -> bool:
    """Whether the two instructions being folded are not jump targets.

    The operands sit at old indices ``old_index-1`` and ``old_index-2``;
    if either is a target, folding would remove an addressable point.
    """
    return (old_index - 1) not in targets and (old_index - 2) not in targets


#: Branch flips for the ``NOT; JUMP_IF_*`` peephole.
_FLIPPED_BRANCH = {
    Op.JUMP_IF_FALSE: Op.JUMP_IF_TRUE,
    Op.JUMP_IF_TRUE: Op.JUMP_IF_FALSE,
}

#: Pushes with no side effect, deletable when immediately popped.
_PURE_PUSH = {Op.PUSH_CONST, Op.PUSH_NONE, Op.DUP}


def _peephole(code: list[Instruction]) -> list[Instruction]:
    """One pass of two-instruction peepholes (iterated to fixpoint).

    Each rewrite consumes a pair ``(i, i+1)``.  The *second* instruction
    must not be a jump target — a jump landing on it expects the
    unrewritten stack state.  The first may be one: jumps to it are
    remapped to the replacement (branch flip) or to the next surviving
    instruction (deleted stack-neutral pair), which is equivalent.
    """
    targets = {
        instruction.operand for instruction in code if instruction.op in JUMP_OPS
    }
    output: list[Instruction] = []
    remap: dict[int, int] = {}
    skip_next = False
    for index, instruction in enumerate(code):
        remap[index] = len(output)
        if skip_next:
            skip_next = False
            continue
        following = code[index + 1] if index + 1 < len(code) else None
        if following is not None and (index + 1) not in targets:
            if instruction.op is Op.NOT and following.op in _FLIPPED_BRANCH:
                output.append(
                    Instruction(_FLIPPED_BRANCH[following.op], following.operand)
                )
                skip_next = True
                continue
            if instruction.op in _PURE_PUSH and following.op is Op.POP:
                skip_next = True
                continue
        output.append(instruction)

    if len(output) == len(code):
        return code
    return [
        Instruction(instruction.op, remap[instruction.operand])
        if instruction.op in JUMP_OPS
        else instruction
        for instruction in output
    ]


def _thread_jumps(code: list[Instruction]) -> list[Instruction]:
    """Retarget jumps that land on unconditional jumps."""

    def final_target(start: int) -> int:
        seen = set()
        current = start
        while (
            0 <= current < len(code)
            and code[current].op is Op.JUMP
            and current not in seen
        ):
            seen.add(current)
            current = code[current].operand
        return current

    return [
        Instruction(instruction.op, final_target(instruction.operand))
        if instruction.op in JUMP_OPS
        else instruction
        for instruction in code
    ]


def _eliminate_dead_code(code: list[Instruction]) -> list[Instruction]:
    """Drop instructions unreachable from index 0; re-index jumps."""
    reachable = set()
    worklist = [0]
    while worklist:
        index = worklist.pop()
        if index in reachable or not 0 <= index < len(code):
            continue
        reachable.add(index)
        instruction = code[index]
        if instruction.op is Op.JUMP:
            worklist.append(instruction.operand)
        elif instruction.op in (Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE):
            worklist.append(instruction.operand)
            worklist.append(index + 1)
        elif instruction.op is Op.RET:
            pass  # control never falls through
        else:
            worklist.append(index + 1)

    if len(reachable) == len(code):
        return code
    kept = sorted(reachable)
    remap = {old: new for new, old in enumerate(kept)}
    return [
        Instruction(code[old].op, remap[code[old].operand])
        if code[old].op in JUMP_OPS
        else code[old]
        for old in kept
    ]


def optimize_function(
    function: FunctionCode, constants: list
) -> FunctionCode:
    """Optimize one function body in the context of the shared pool."""
    pool = _Pool(constants)
    code = list(function.code)
    # Iterate folding + peepholes to a fixpoint: folding exposes new
    # foldable pairs (e.g. 1+2+3) and peephole deletions expose new
    # adjacencies.  Threading and DCE run once after; they are idempotent.
    for _ in range(8):
        rewritten = _peephole(_fold_constants(code, pool))
        if rewritten == code:
            break
        code = rewritten
    code = _thread_jumps(code)
    code = _eliminate_dead_code(code)
    return FunctionCode(
        name=function.name,
        n_params=function.n_params,
        n_locals=function.n_locals,
        returns_value=function.returns_value,
        code=code,
    )


def optimize_program(program: CompiledProgram) -> CompiledProgram:
    """Return an optimized copy of ``program`` (verified)."""
    constants = list(program.constants)
    functions = [
        optimize_function(function, constants) for function in program.functions
    ]
    optimized = CompiledProgram(
        functions=functions, constants=constants, source=program.source
    )
    optimized.verify()
    return optimized
