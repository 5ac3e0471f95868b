"""Reference AST interpreter — the compiler/VM's differential oracle.

Executes analysed Tasklet ASTs directly, without compiling to bytecode.
It exists purely for testing: two completely independent execution paths
(``compile → stack VM`` vs ``tree walk``) must agree on every program, so
property tests can generate random well-typed programs and compare.  It
shares only the builtin implementations and the operator-semantics
helpers with the VM — the control-flow machinery is disjoint by design.

Not performance-relevant and not part of the middleware: providers always
run the bytecode VM.
"""

from __future__ import annotations

import random
from typing import Any

from repro.common.errors import VMError
from repro.tvm import ast_nodes as ast, operators
from repro.tvm.builtins import BUILTINS
from repro.tvm.opcodes import Op
from repro.tvm.parser import parse
from repro.tvm.semantics import analyze

_MAX_STEPS_DEFAULT = 10_000_000


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any):
        self.value = value


class _Environment:
    """Slot-addressed locals, mirroring the VM's frame layout."""

    def __init__(self, n_locals: int):
        self.slots: list = [None] * n_locals

    def load(self, slot: int):
        return self.slots[slot]

    def store(self, slot: int, value) -> None:
        self.slots[slot] = value


class AstInterpreter:
    """Direct evaluator for one analysed program."""

    def __init__(self, program: ast.Program, seed: int = 0,
                 max_steps: int = _MAX_STEPS_DEFAULT):
        self.program = program
        self.functions = {function.name: function for function in program.functions}
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        self._steps = 0

    def run(self, entry: str = "main", args: list | None = None) -> Any:
        function = self.functions.get(entry)
        if function is None:
            raise VMError(f"no function {entry!r}")
        args = list(args or [])
        if len(args) != len(function.params):
            raise VMError(
                f"{entry}() expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )
        return self._call(function, args)

    # -- execution ----------------------------------------------------------

    def _budget(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise VMError("AST interpreter step budget exhausted")

    def _call(self, function: ast.FunctionDecl, args: list) -> Any:
        environment = _Environment(function.n_locals)
        for slot, value in enumerate(args):
            environment.store(slot, value)
        try:
            self._exec_block(function.body, environment)
        except _Return as result:
            return result.value
        return None  # void fall-through

    def _exec_block(self, block: ast.Block, env: _Environment) -> None:
        for statement in block.statements:
            self._exec_statement(statement, env)

    def _exec_statement(self, statement: ast.Stmt, env: _Environment) -> None:
        self._budget()
        if isinstance(statement, ast.VarDecl):
            env.store(statement.slot, self._eval(statement.init, env))
        elif isinstance(statement, ast.Assign):
            env.store(statement.slot, self._eval(statement.value, env))
        elif isinstance(statement, ast.IndexAssign):
            base = self._eval(statement.base, env)
            index = self._eval(statement.index, env)
            value = self._eval(statement.value, env)
            operators.index_set(base, index, value)
        elif isinstance(statement, ast.ExprStmt):
            self._eval(statement.expr, env)
        elif isinstance(statement, ast.Block):
            self._exec_block(statement, env)
        elif isinstance(statement, ast.If):
            if self._truth(statement.condition, env):
                self._exec_block(statement.then_branch, env)
            elif statement.else_branch is not None:
                self._exec_statement(statement.else_branch, env)
        elif isinstance(statement, ast.While):
            while self._truth(statement.condition, env):
                self._budget()
                try:
                    self._exec_block(statement.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(statement, ast.For):
            if statement.init is not None:
                self._exec_statement(statement.init, env)
            while statement.condition is None or self._truth(
                statement.condition, env
            ):
                self._budget()
                try:
                    self._exec_block(statement.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if statement.step is not None:
                    self._exec_statement(statement.step, env)
        elif isinstance(statement, ast.Return):
            value = (
                None if statement.value is None else self._eval(statement.value, env)
            )
            raise _Return(value)
        elif isinstance(statement, ast.Break):
            raise _Break()
        elif isinstance(statement, ast.Continue):
            raise _Continue()
        else:  # pragma: no cover
            raise VMError(f"unhandled statement {type(statement).__name__}")

    def _truth(self, condition: ast.Expr, env: _Environment) -> bool:
        value = self._eval(condition, env)
        if not isinstance(value, bool):
            raise VMError(f"condition must be bool, got {type(value).__name__}")
        return value

    # -- expressions ----------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: _Environment) -> Any:
        self._budget()
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.BoolLiteral,
                             ast.StringLiteral)):
            return expr.value
        if isinstance(expr, ast.ArrayLiteral):
            return [self._eval(element, env) for element in expr.elements]
        if isinstance(expr, ast.Name):
            return env.load(expr.slot)
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, env)
            if expr.op == "-":
                if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                    raise VMError(f"cannot negate {type(operand).__name__}")
                return -operand
            if not isinstance(operand, bool):
                raise VMError(f"'!' needs bool, got {type(operand).__name__}")
            return not operand
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Index):
            base = self._eval(expr.base, env)
            index = self._eval(expr.index, env)
            return operators.index_get(base, index)
        raise VMError(f"unhandled expression {type(expr).__name__}")  # pragma: no cover

    def _eval_binary(self, expr: ast.Binary, env: _Environment) -> Any:
        op = expr.op
        if op == "&&":
            return self._truth(expr.left, env) and self._truth(expr.right, env)
        if op == "||":
            return self._truth(expr.left, env) or self._truth(expr.right, env)
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op == "+":
            return operators.add(left, right)
        if op == "-":
            operators.require_number(left, right, "-")
            return left - right
        if op == "*":
            operators.require_number(left, right, "*")
            return left * right
        if op == "/":
            return operators.divide(left, right)
        if op == "%":
            return operators.modulo(left, right)
        if op == "==":
            return operators.equals(left, right)
        if op == "!=":
            return not operators.equals(left, right)
        order_ops = {"<": Op.LT, "<=": Op.LE, ">": Op.GT, ">=": Op.GE}
        if op in order_ops:
            return operators.order(order_ops[op], left, right)
        raise VMError(f"unhandled operator {op!r}")  # pragma: no cover

    def _eval_call(self, expr: ast.Call, env: _Environment) -> Any:
        args = [self._eval(argument, env) for argument in expr.args]
        if expr.is_builtin:
            spec = BUILTINS[expr.callee]
            try:
                return spec.impl(self.rng, args)
            except VMError:
                raise
            except (TypeError, AttributeError, ValueError, OverflowError) as exc:
                raise VMError(f"{spec.name}(): {exc}") from exc
        return self._call(self.functions[expr.callee], args)


def interpret_source(source: str, entry: str = "main",
                     args: list | None = None, seed: int = 0) -> Any:
    """Parse, analyse, and tree-walk ``source`` in one call."""
    return AstInterpreter(analyze(parse(source)), seed=seed).run(entry, args)
