"""Assembler: the textual bytecode format back into programs.

The inverse of :mod:`repro.tvm.disassembler`.  Together they give the TVM
a stable, human-editable intermediate format, used for:

* regression-pinning compiler output in tests (disassemble, store, compare);
* hand-crafting pathological programs the compiler would never emit, to
  exercise the verifier and the VM's defensive paths;
* debugging: edit a listing, reassemble, run.

Grammar (one construct per line; ``;`` starts a comment)::

    .constants N
      k<i> = <python-literal>          # int, float, bool, 'str'
    .func <name> params=<p> locals=<l> returns=<value|void>
      [L]<index>  OPNAME [operand]
    .end
"""

from __future__ import annotations

import ast as python_ast

from repro.common.errors import VMInvalidProgram
from repro.tvm.bytecode import CompiledProgram, FunctionCode, Instruction
from repro.tvm.opcodes import Op

_OP_BY_NAME = {op.name: op for op in Op}


class AssemblerError(VMInvalidProgram):
    """A line could not be assembled; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _parse_literal(text: str, line_number: int):
    try:
        value = python_ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise AssemblerError(f"bad constant literal {text!r}: {exc}", line_number)
    if not isinstance(value, (bool, int, float, str)):
        raise AssemblerError(
            f"constants must be scalars, got {type(value).__name__}", line_number
        )
    return value


def assemble(text: str) -> CompiledProgram:
    """Assemble a listing produced by :func:`repro.tvm.disassembler.disassemble`.

    The instruction indices in the listing are checked for consistency
    (they are what jump operands refer to), and the result is verified
    before being returned.
    """
    constants: list = []
    functions: list[FunctionCode] = []
    current: FunctionCode | None = None
    expected_index = 0

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue

        if line.startswith(".constants"):
            continue  # count is informational; entries define themselves

        if line.startswith("k") and "=" in line and current is None:
            name, _, literal = line.partition("=")
            name = name.strip()
            if not name[1:].isdigit():
                raise AssemblerError(f"bad constant name {name!r}", line_number)
            index = int(name[1:])
            if index != len(constants):
                raise AssemblerError(
                    f"constant {name} out of order (expected k{len(constants)})",
                    line_number,
                )
            constants.append(_parse_literal(literal.strip(), line_number))
            continue

        if line.startswith(".func"):
            if current is not None:
                raise AssemblerError("nested .func (missing .end?)", line_number)
            parts = line.split()
            if len(parts) != 5:
                raise AssemblerError(
                    ".func needs: name params=N locals=N returns=value|void",
                    line_number,
                )
            fields = {}
            for part in parts[2:]:
                key, _, value = part.partition("=")
                fields[key] = value
            try:
                current = FunctionCode(
                    name=parts[1],
                    n_params=int(fields["params"]),
                    n_locals=int(fields["locals"]),
                    returns_value=fields["returns"] == "value",
                    code=[],
                )
            except (KeyError, ValueError) as exc:
                raise AssemblerError(f"bad .func header: {exc}", line_number)
            expected_index = 0
            continue

        if line == ".end":
            if current is None:
                raise AssemblerError(".end without .func", line_number)
            functions.append(current)
            current = None
            continue

        if current is None:
            raise AssemblerError(f"unexpected line {line!r}", line_number)

        # Instruction line: "[L]<index>  OPNAME [operand]"
        body = line[1:] if line.startswith("L") else line
        parts = body.split()
        if len(parts) < 2 or not parts[0].isdigit():
            raise AssemblerError(f"malformed instruction line {line!r}", line_number)
        index = int(parts[0])
        if index != expected_index:
            raise AssemblerError(
                f"instruction index {index} out of order "
                f"(expected {expected_index})",
                line_number,
            )
        expected_index += 1
        op_name = parts[1]
        if op_name not in _OP_BY_NAME:
            raise AssemblerError(f"unknown opcode {op_name!r}", line_number)
        operand = None
        if len(parts) >= 3:
            try:
                operand = int(parts[2])
            except ValueError:
                raise AssemblerError(
                    f"bad operand {parts[2]!r}", line_number
                )
        current.code.append(Instruction(_OP_BY_NAME[op_name], operand))

    if current is not None:
        raise AssemblerError("missing final .end", len(text.splitlines()))
    program = CompiledProgram(functions=functions, constants=constants)
    program.verify()
    return program
