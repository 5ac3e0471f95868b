"""Human-readable listing of compiled Tasklet programs.

Used by tests (to pin compilation output for regressions), by the
``examples/`` scripts for didactic output, and by anyone debugging the
compiler.  The format round-trips through :mod:`repro.tvm.assembler`.
"""

from __future__ import annotations

from .builtins import BUILTIN_ORDER
from .bytecode import CompiledProgram, FunctionCode
from .opcodes import JUMP_OPS, Op


def disassemble_function(
    program: CompiledProgram, function: FunctionCode
) -> list[str]:
    """Render one function as a list of text lines."""
    header = (
        f".func {function.name} params={function.n_params} "
        f"locals={function.n_locals} returns={'value' if function.returns_value else 'void'}"
    )
    lines = [header]
    targets = {
        instruction.operand
        for instruction in function.code
        if instruction.op in JUMP_OPS
    }
    for position, instruction in enumerate(function.code):
        marker = "L" if position in targets else " "
        operand_text = ""
        if instruction.operand is not None:
            operand_text = f" {instruction.operand}"
            if instruction.op is Op.PUSH_CONST:
                operand_text += f"  ; {program.constants[instruction.operand]!r}"
            elif instruction.op is Op.CALL:
                operand_text += f"  ; {program.functions[instruction.operand].name}"
            elif instruction.op is Op.CALL_BUILTIN:
                index, arity = divmod(instruction.operand, 8)
                operand_text += f"  ; {BUILTIN_ORDER[index]}/{arity}"
        lines.append(f"{marker}{position:5d}  {instruction.op.name}{operand_text}")
    lines.append(".end")
    return lines


def disassemble(program: CompiledProgram) -> str:
    """Render a whole program as text."""
    lines: list[str] = [f".constants {len(program.constants)}"]
    for position, constant in enumerate(program.constants):
        lines.append(f"  k{position} = {constant!r}")
    for function in program.functions:
        lines.append("")
        lines.extend(disassemble_function(program, function))
    return "\n".join(lines)
