"""Instruction set of the Tasklet Virtual Machine.

The TVM is a stack machine.  Each instruction is an ``(opcode, operand)``
pair; operands are small integers (constant-pool indices, slot numbers,
jump targets, function indices) or ``None``.  The numeric opcode values are
part of the portable bytecode format — append new opcodes, never renumber.
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """TVM opcodes.  Stack effects are noted as ``before -- after``."""

    # Constants and locals
    PUSH_CONST = 1  # -- k[operand]
    PUSH_NONE = 2  # -- none  (void call result placeholder)
    LOAD = 3  # -- locals[operand]
    STORE = 4  # value --
    POP = 5  # value --
    DUP = 6  # value -- value value

    # Arithmetic (numeric promotion int->float; '+' also concatenates)
    ADD = 10  # a b -- a+b
    SUB = 11  # a b -- a-b
    MUL = 12  # a b -- a*b
    DIV = 13  # a b -- a/b   (int/int is C-style truncated division)
    MOD = 14  # a b -- a%b   (sign follows C: truncated)
    NEG = 15  # a -- -a

    # Comparison / logic
    EQ = 20  # a b -- a==b
    NE = 21
    LT = 22
    LE = 23
    GT = 24
    GE = 25
    NOT = 26  # a -- !a

    # Control flow (operand = absolute instruction index)
    JUMP = 30
    JUMP_IF_FALSE = 31  # cond --
    JUMP_IF_TRUE = 32  # cond --

    # Calls
    CALL = 40  # args... -- result   (operand = function index; arity known)
    CALL_BUILTIN = 41  # args... -- result (operand = builtin table index)
    RET = 42  # result --            (return to caller)

    # Arrays / strings
    BUILD_ARRAY = 50  # e1..eN -- [e1..eN]  (operand = N)
    INDEX = 51  # base idx -- base[idx]
    STORE_INDEX = 52  # base idx value --


#: Opcodes whose operand is a jump target (used by the verifier and the
#: disassembler to annotate targets).
JUMP_OPS = {Op.JUMP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE}

#: ``(pops, pushes)`` of every opcode whose stack effect is fixed; ``CALL``,
#: ``CALL_BUILTIN`` and ``BUILD_ARRAY`` pop what their operand says and push
#: one.  Read by the verifier's stack-discipline pass.
STACK_EFFECT: dict[Op, tuple[int, int]] = {
    **dict.fromkeys((Op.PUSH_CONST, Op.PUSH_NONE, Op.LOAD), (0, 1)),
    **dict.fromkeys(
        (Op.STORE, Op.POP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE, Op.RET), (1, 0)
    ),
    **dict.fromkeys((Op.NEG, Op.NOT), (1, 1)),
    **dict.fromkeys(
        (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.INDEX)
        + (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE),
        (2, 1),
    ),
    Op.DUP: (1, 2),
    Op.JUMP: (0, 0),
    Op.STORE_INDEX: (3, 0),
}

#: Coarse instruction families, used by the VM's execution profiler
#: (``TVM(profile=True)``) to report where instructions go.
OPCODE_GROUP: dict[int, str] = {
    Op.PUSH_CONST: "stack",
    Op.PUSH_NONE: "stack",
    Op.LOAD: "stack",
    Op.STORE: "stack",
    Op.POP: "stack",
    Op.DUP: "stack",
    Op.ADD: "arithmetic",
    Op.SUB: "arithmetic",
    Op.MUL: "arithmetic",
    Op.DIV: "arithmetic",
    Op.MOD: "arithmetic",
    Op.NEG: "arithmetic",
    Op.EQ: "compare",
    Op.NE: "compare",
    Op.LT: "compare",
    Op.LE: "compare",
    Op.GT: "compare",
    Op.GE: "compare",
    Op.NOT: "compare",
    Op.JUMP: "branch",
    Op.JUMP_IF_FALSE: "branch",
    Op.JUMP_IF_TRUE: "branch",
    Op.CALL: "call",
    Op.CALL_BUILTIN: "call",
    Op.RET: "call",
    Op.BUILD_ARRAY: "array",
    Op.INDEX: "array",
    Op.STORE_INDEX: "array",
}

#: Opcodes that take no operand.
NO_OPERAND_OPS = {
    Op.PUSH_NONE,
    Op.POP,
    Op.DUP,
    Op.ADD,
    Op.SUB,
    Op.MUL,
    Op.DIV,
    Op.MOD,
    Op.NEG,
    Op.EQ,
    Op.NE,
    Op.LT,
    Op.LE,
    Op.GT,
    Op.GE,
    Op.NOT,
    Op.RET,
    Op.INDEX,
    Op.STORE_INDEX,
}
