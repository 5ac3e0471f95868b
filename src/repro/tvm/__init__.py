"""The Tasklet Virtual Machine: language, compiler, and interpreter.

Typical use::

    from repro.tvm import compile_source, execute

    program = compile_source("func main(n: int) -> int { return n * n; }")
    result, stats = execute(program, "main", [12])
"""

from .bytecode import BYTECODE_VERSION, CompiledProgram, FunctionCode, Instruction
from .compiler import compile_ast, compile_source
from .disassembler import disassemble
from .lang_types import LangType
from .lexer import tokenize
from .opcodes import Op
from .parser import parse
from .semantics import analyze
from .vm import TVM, ExecutionStats, VMLimits, execute, is_tasklet_value

__all__ = [
    "BYTECODE_VERSION",
    "CompiledProgram",
    "FunctionCode",
    "Instruction",
    "compile_ast",
    "compile_source",
    "disassemble",
    "LangType",
    "tokenize",
    "Op",
    "parse",
    "analyze",
    "TVM",
    "ExecutionStats",
    "VMLimits",
    "execute",
    "is_tasklet_value",
]
