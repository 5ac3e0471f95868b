"""Compiler: analysed Tasklet AST → TVM bytecode.

The compiler is a single bottom-up pass over the annotated AST.  It relies
on the slot and builtin resolution done by semantic analysis, so it must
only ever be handed programs that went through
:func:`repro.tvm.semantics.analyze` (the :func:`compile_source` convenience
wrapper guarantees this).

Lowering notes:

* ``&&``/``||`` become short-circuiting jumps, so the right operand is not
  evaluated when the left decides the result;
* ``for`` desugars to ``init; while (cond) { body; step }`` with
  ``continue`` jumping to the step, matching C semantics;
* every function body is terminated with an implicit ``return`` (void
  functions return ``none``; the verifier requires explicit returns for
  value-returning functions, so the implicit tail is only reachable in
  void functions).
"""

from __future__ import annotations

from ..common.errors import CompileError
from . import ast_nodes as ast
from .bytecode import CompiledProgram, FunctionCode, Instruction
from .builtins import BUILTIN_ORDER
from .lang_types import LangType
from .opcodes import Op
from .parser import parse
from .semantics import analyze

_BUILTIN_INDEX = {name: position for position, name in enumerate(BUILTIN_ORDER)}

_BINARY_OPS = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "%": Op.MOD,
    "==": Op.EQ,
    "!=": Op.NE,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
}


class _ConstantPool:
    """Deduplicating constant pool.

    Keys include the value's type so that ``1`` and ``1.0`` (equal in
    Python) get distinct entries — the distinction is visible to Tasklet
    programs through ``/`` semantics.
    """

    def __init__(self) -> None:
        self.values: list = []
        self._positions: dict[tuple, int] = {}

    def add(self, value) -> int:
        key = (type(value).__name__, value)
        if key in self._positions:
            return self._positions[key]
        position = len(self.values)
        self.values.append(value)
        self._positions[key] = position
        return position


class _LoopContext:
    """Patch lists for ``break``/``continue`` inside one loop."""

    def __init__(self) -> None:
        self.break_jumps: list[int] = []
        self.continue_jumps: list[int] = []


class _FunctionCompiler:
    """Compiles one function body to a list of instructions."""

    def __init__(self, program_compiler: "Compiler", function: ast.FunctionDecl):
        self.program_compiler = program_compiler
        self.function = function
        self.code: list[Instruction] = []
        self.loops: list[_LoopContext] = []

    # -- emit helpers ---------------------------------------------------------

    def _emit(self, op: Op, operand: int | None = None) -> int:
        """Append an instruction; returns its index (for patching)."""
        self.code.append(Instruction(op, operand))
        return len(self.code) - 1

    def _patch(self, position: int, target: int) -> None:
        """Set the jump target of the instruction at ``position``."""
        self.code[position] = Instruction(self.code[position].op, target)

    def _here(self) -> int:
        return len(self.code)

    # -- function ------------------------------------------------------------

    def compile(self) -> FunctionCode:
        self._compile_block(self.function.body)
        # Implicit void return, left out after a closing ``return`` (no jump lands past it).
        if not any(isinstance(last, ast.Return) for last in self.function.body.statements[-1:]):
            self._emit(Op.PUSH_NONE)
            self._emit(Op.RET)
        return FunctionCode(
            name=self.function.name,
            n_params=len(self.function.params),
            n_locals=self.function.n_locals,
            returns_value=self.function.return_type is not LangType.VOID,
            code=self.code,
        )

    # -- statements --------------------------------------------------------

    def _compile_block(self, block: ast.Block) -> None:
        for statement in block.statements:
            self._compile_statement(statement)

    def _compile_statement(self, statement: ast.Stmt) -> None:
        if isinstance(statement, ast.VarDecl):
            self._compile_expr(statement.init)
            self._emit(Op.STORE, self._slot_of(statement.slot, statement))
        elif isinstance(statement, ast.Assign):
            self._compile_expr(statement.value)
            self._emit(Op.STORE, self._slot_of(statement.slot, statement))
        elif isinstance(statement, ast.IndexAssign):
            self._compile_expr(statement.base)
            self._compile_expr(statement.index)
            self._compile_expr(statement.value)
            self._emit(Op.STORE_INDEX)
        elif isinstance(statement, ast.ExprStmt):
            self._compile_expr(statement.expr)
            self._emit(Op.POP)
        elif isinstance(statement, ast.Block):
            self._compile_block(statement)
        elif isinstance(statement, ast.If):
            self._compile_if(statement)
        elif isinstance(statement, ast.While):
            self._compile_while(statement)
        elif isinstance(statement, ast.For):
            self._compile_for(statement)
        elif isinstance(statement, ast.Return):
            if statement.value is None:
                self._emit(Op.PUSH_NONE)
            else:
                self._compile_expr(statement.value)
            self._emit(Op.RET)
        elif isinstance(statement, ast.Break):
            if not self.loops:
                raise CompileError("break outside loop", statement.line, statement.column)
            self.loops[-1].break_jumps.append(self._emit(Op.JUMP, 0))
        elif isinstance(statement, ast.Continue):
            if not self.loops:
                raise CompileError(
                    "continue outside loop", statement.line, statement.column
                )
            self.loops[-1].continue_jumps.append(self._emit(Op.JUMP, 0))
        else:  # pragma: no cover
            raise CompileError(
                f"unhandled statement {type(statement).__name__}",
                statement.line,
                statement.column,
            )

    def _compile_if(self, statement: ast.If) -> None:
        self._compile_expr(statement.condition)
        to_else = self._emit(Op.JUMP_IF_FALSE, 0)
        self._compile_block(statement.then_branch)
        if statement.else_branch is None:
            self._patch(to_else, self._here())
            return
        to_end = self._emit(Op.JUMP, 0)
        self._patch(to_else, self._here())
        self._compile_statement(statement.else_branch)
        self._patch(to_end, self._here())

    def _compile_while(self, statement: ast.While) -> None:
        loop = _LoopContext()
        self.loops.append(loop)
        top = self._here()
        self._compile_expr(statement.condition)
        exit_jump = self._emit(Op.JUMP_IF_FALSE, 0)
        self._compile_block(statement.body)
        self._emit(Op.JUMP, top)
        end = self._here()
        self._patch(exit_jump, end)
        for position in loop.break_jumps:
            self._patch(position, end)
        for position in loop.continue_jumps:
            self._patch(position, top)
        self.loops.pop()

    def _compile_for(self, statement: ast.For) -> None:
        if statement.init is not None:
            self._compile_statement(statement.init)
        loop = _LoopContext()
        self.loops.append(loop)
        top = self._here()
        exit_jump = None
        if statement.condition is not None:
            self._compile_expr(statement.condition)
            exit_jump = self._emit(Op.JUMP_IF_FALSE, 0)
        self._compile_block(statement.body)
        step_start = self._here()
        if statement.step is not None:
            self._compile_statement(statement.step)
        self._emit(Op.JUMP, top)
        end = self._here()
        if exit_jump is not None:
            self._patch(exit_jump, end)
        for position in loop.break_jumps:
            self._patch(position, end)
        for position in loop.continue_jumps:
            self._patch(position, step_start)
        self.loops.pop()

    # -- expressions ----------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.IntLiteral):
            self._emit(Op.PUSH_CONST, self.program_compiler.pool.add(expr.value))
        elif isinstance(expr, ast.FloatLiteral):
            self._emit(Op.PUSH_CONST, self.program_compiler.pool.add(expr.value))
        elif isinstance(expr, ast.BoolLiteral):
            self._emit(Op.PUSH_CONST, self.program_compiler.pool.add(expr.value))
        elif isinstance(expr, ast.StringLiteral):
            self._emit(Op.PUSH_CONST, self.program_compiler.pool.add(expr.value))
        elif isinstance(expr, ast.ArrayLiteral):
            for element in expr.elements:
                self._compile_expr(element)
            self._emit(Op.BUILD_ARRAY, len(expr.elements))
        elif isinstance(expr, ast.Name):
            self._emit(Op.LOAD, self._slot_of(expr.slot, expr))
        elif isinstance(expr, ast.Unary):
            self._compile_expr(expr.operand)
            self._emit(Op.NEG if expr.op == "-" else Op.NOT)
        elif isinstance(expr, ast.Binary):
            self._compile_binary(expr)
        elif isinstance(expr, ast.Call):
            self._compile_call(expr)
        elif isinstance(expr, ast.Index):
            self._compile_expr(expr.base)
            self._compile_expr(expr.index)
            self._emit(Op.INDEX)
        else:  # pragma: no cover
            raise CompileError(
                f"unhandled expression {type(expr).__name__}", expr.line, expr.column
            )

    def _compile_binary(self, expr: ast.Binary) -> None:
        if expr.op == "&&":
            # left && right  =>  if !left: false else right
            self._compile_expr(expr.left)
            short = self._emit(Op.JUMP_IF_FALSE, 0)
            self._compile_expr(expr.right)
            done = self._emit(Op.JUMP, 0)
            self._patch(short, self._here())
            self._emit(Op.PUSH_CONST, self.program_compiler.pool.add(False))
            self._patch(done, self._here())
            return
        if expr.op == "||":
            self._compile_expr(expr.left)
            short = self._emit(Op.JUMP_IF_TRUE, 0)
            self._compile_expr(expr.right)
            done = self._emit(Op.JUMP, 0)
            self._patch(short, self._here())
            self._emit(Op.PUSH_CONST, self.program_compiler.pool.add(True))
            self._patch(done, self._here())
            return
        self._compile_expr(expr.left)
        self._compile_expr(expr.right)
        self._emit(_BINARY_OPS[expr.op])

    def _compile_call(self, expr: ast.Call) -> None:
        for arg in expr.args:
            self._compile_expr(arg)
        if expr.is_builtin:
            builtin = _BUILTIN_INDEX[expr.callee]
            # Encode arity alongside the builtin for variable-arity builtins:
            # operand = index * 8 + arity (arity <= 7 for all builtins).
            arity = len(expr.args)
            self._emit(Op.CALL_BUILTIN, builtin * 8 + arity)
        else:
            self._emit(
                Op.CALL, self.program_compiler.function_index[expr.callee]
            )

    def _slot_of(self, slot: int | None, node: ast.Node) -> int:
        if slot is None:
            raise CompileError(
                "AST not analysed: missing slot annotation", node.line, node.column
            )
        return slot


class Compiler:
    """Compiles a full analysed program."""

    def __init__(self, program: ast.Program, source: str | None = None):
        self.program = program
        self.source = source
        self.pool = _ConstantPool()
        self.function_index = {
            function.name: position
            for position, function in enumerate(program.functions)
        }

    def compile(self) -> CompiledProgram:
        functions = [
            _FunctionCompiler(self, function).compile()
            for function in self.program.functions
        ]
        compiled = CompiledProgram(
            functions=functions, constants=self.pool.values, source=self.source
        )
        compiled.verify()
        return compiled


def compile_ast(program: ast.Program, source: str | None = None) -> CompiledProgram:
    """Compile an *already analysed* AST.  The output is the stable wire
    format that tests pin against, and what a consumer ships;
    :func:`repro.tvm.optimizer.optimize_program` is a separate pass over it."""
    return Compiler(program, source=source).compile()


def compile_source(source: str) -> CompiledProgram:
    """Parse, analyse, and compile Tasklet ``source`` in one call."""
    return compile_ast(analyze(parse(source)), source=source)
