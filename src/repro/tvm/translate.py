"""Translated execution: verified TVM bytecode as Python functions.

The second (and only other) execution tier beside the portable
:class:`~repro.tvm.vm.TVM`; DESIGN.md §5 has the full argument.
:func:`translate` turns each function of a *verified* program into one
Python function — TVM locals are the Python locals ``v<slot>``,
operand-stack entries the locals ``s<depth>``, a ``CALL`` a Python call,
control flow a chain of ``if pc == <index>:`` blocks in ``while True:``.

**Deopt is restart.**  Generated code never builds a VM error: a failed
guard, fuel shortfall, depth limit, unbound local or any exception
abandons the run, and the caller re-executes the assignment on the
portable VM from pristine arguments and the same seed.  The invariant is
that :meth:`Translation.run` *never returns unless the portable VM
returns the same value with the same instruction count*.  To keep it,
each function is abstractly interpreted to a fixed point first (``verify()``
knows stack depths, not tags or definite assignment) and declined if unsound;
``run`` accepts exactly ``bool/int/float/str/list`` values, so
``type(x) is int or type(x) is float`` is all of "is a number" and a
guard is dropped only where a tag proves it; a possibly-void entry may
only be popped, duplicated or returned, so an unbound Python local *is*
the uninitialised TVM local; fuel is charged per basic block on entry.

**Source injection rule.**  The only program-derived tokens in generated
source are integers ``verify()`` has range-checked.  Constants, builtins
and operator helpers are bound by reference in the namespace the source
runs in, names are never interpolated, and its ``__builtins__`` is empty.
"""

from __future__ import annotations

import random
from typing import Any

from . import operators
from .builtins import BUILTIN_ORDER, BUILTINS
from .bytecode import CompiledProgram
from .opcodes import Op
from .vm import _NONE, DEFAULT_MAX_CALL_DEPTH, DEFAULT_MAX_STACK

_SCALARS = frozenset((bool, int, float, str))
#: Larger programs (instructions + locals) stay portable: a worker thread
#: pays for the translation before the first run.
MAX_TRANSLATED_SIZE = 20_000

_ORDERING = {Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">="}
_SYMBOLS = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", **_ORDERING}
_BRANCHES = (Op.JUMP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE)
_NUMERIC_BUILTINS = frozenset(
    "abs sqrt pow sin cos tan exp log floor ceil len push int float rand rand_int".split()
)
_SEEDED = frozenset(("rand", "rand_int"))
_MUTATING = frozenset(("push", "pop", "store_index"))
_IS_NUMBER = "(type({0}) is int or type({0}) is float)"


class Restart(Exception):
    """The translated run gave up; re-execute on the portable VM."""


class _Declined(Exception):
    """The program cannot be translated soundly; it stays portable."""


def _join(old: tuple, new: tuple) -> tuple:
    """Least upper bound of two block-entry states."""
    if len(old[0]) != len(new[0]):
        raise _Declined("operand-stack depths differ at a join")
    tags = "".join(
        a if a == b else "x" if "x" in (a, b) else "a" for a, b in zip(old[0], new[0])
    )
    return tags, old[1] & new[1], old[2] & new[2]


class _FunctionTranslator:
    """Analyses one function to a fixed point, then emits its source.

    The abstract operand stack holds ``(name, tag)`` pairs: ``name`` is a
    Python name that yields the value (``s<depth>``, or an alias — a local
    ``v<slot>``, a constant ``k<index>``, the sentinel ``N``) and ``tag``
    is ``n`` exact int/float, ``b`` exact bool, ``x`` maybe void, ``a``
    anything else.
    """

    def __init__(self, program: CompiledProgram, index: int):
        self.program = program
        self.index = index
        self.n_params = program.functions[index].n_params
        self.pairs = pairs = program.functions[index].pairs
        self.targets = {operand for op, operand in pairs if op in _BRANCHES}
        self.leaders = self.targets | {
            pc + 1 for pc, (op, _) in enumerate(pairs) if op in _BRANCHES or op == Op.RET
        }
        self.back_edges = [
            (operand, pc)
            for pc, (op, operand) in enumerate(pairs)
            if op in _BRANCHES and operand <= pc
        ]
        self.loop_heads = {target for target, _ in self.back_edges}
        self.max_depth = 0
        self.uses: set[str] = set()  # builtins called, and "store_index"

    def analyse(self) -> None:
        """Block-entry states to a fixed point, then the dispatch order."""
        self.states = {0: ("", (1 << self.n_params) - 1, 0)}
        work = [0]
        while work:
            _, exit_ = self._block(work.pop())
            for target in exit_[-2:] if exit_[0] == "branch" else exit_[1:]:
                known = self.states.get(target)
                state = self._out if known is None else _join(known, self._out)
                if state != known:
                    self.states[target] = state
                    work.append(target)
        heads = [pc for pc in self.states if pc == 0 or pc in self.targets]
        # Innermost loops first: a back edge restarts the chain at its head.
        heads.sort(key=lambda pc: (-sum(lo <= pc <= hi for lo, hi in self.back_edges), pc))
        self.position = {pc: place for place, pc in enumerate(heads)}

    def _block(self, leader: int) -> tuple[list[str], tuple]:
        """Abstractly run the block at ``leader`` from its recorded state.

        Returns its lines and its exit — ``("ret",)``, ``("goto", pc)`` or
        ``("branch", condition, pc_if_true, pc_if_false)`` — and leaves
        the state its successors start from in ``self._out``.
        """
        tags, self.assigned, self.numeric = self.states[leader]
        self.stack = [(f"s{depth}", tag) for depth, tag in enumerate(tags)]
        self.lines = [""]  # the fuel charge, once the block size is known
        if leader == 0 or leader in self.loop_heads:
            self.lines.append("if fuel < 0: raise R")
        pc = leader
        while True:
            op, operand = self.pairs[pc]
            pc += 1
            if op == Op.RET:
                ((name, _),) = self._take(1, void_ok=True)
                self.lines += ["F[0] = fuel", f"return {self._computed_by_last_line(name)}"]
                exit_ = ("ret",)
            elif op == Op.JUMP:
                exit_ = ("goto", operand)
            elif op in _BRANCHES:
                ((name, tag),) = self._take(1)
                if tag != "b":
                    self.lines.append(f"if {name} is not True and {name} is not False: raise R")
                targets = (pc, operand) if op == Op.JUMP_IF_FALSE else (operand, pc)
                exit_ = ("branch", self._computed_by_last_line(name), *targets)
            else:
                _HANDLERS[op](self, op, operand)
                self.max_depth = max(self.max_depth, len(self.stack))
                if pc not in self.leaders:
                    continue
                exit_ = ("goto", pc)
            break
        if exit_[0] != "ret":  # successors find every entry in its own local
            for depth, (name, _) in enumerate(self.stack):
                if name != f"s{depth}":
                    self.lines.append(f"s{depth} = {name}")
        self.lines[0] = f"fuel -= {pc - leader}"
        self._out = ("".join(tag for _, tag in self.stack), self.assigned, self.numeric)
        return self.lines, exit_

    # -- abstract stack helpers -------------------------------------------------

    def _take(self, count: int, void_ok: bool = False) -> list[tuple[str, str]]:
        """Pop ``count`` operands; unless ``void_ok`` none may be void."""
        base = len(self.stack) - count
        if base < 0:
            raise _Declined("operand-stack underflow")
        taken = self.stack[base:]
        del self.stack[base:]
        for place, (name, tag) in enumerate(taken):
            if tag == "x" and not void_ok:
                self.lines.append(f"if {name} is N: raise R")
                taken[place] = (name, "a")
        return taken

    def _result(self, expr: str, tag: str) -> None:
        """Compute ``expr`` into the next entry's own local and push it."""
        name = f"s{len(self.stack)}"
        self.lines.append(f"{name} = {expr}")
        self.stack.append((name, tag))

    def _computed_by_last_line(self, name: str) -> str:
        """The expression behind a just-popped entry, un-spilled if possible.

        When the last line computed exactly this entry's own local, nothing
        else can read it: take the line back and use its expression.
        """
        prefix = f"{name} = "
        if name == f"s{len(self.stack)}" and self.lines[-1].startswith(prefix):
            return self.lines.pop()[len(prefix) :]
        return name

    def _number(self, name: str, tag: str) -> None:
        """Guard ``name`` as an exact number; a failure is a certain error."""
        if tag != "n":
            self.lines.append(f"if type({name}) is not int and type({name}) is not float: raise R")
            if name[0] == "v":  # holds for the local until it is stored to
                self.numeric |= 1 << int(name[1:])

    # -- instructions -------------------------------------------------------------

    def _op_push_const(self, op: int, operand: int) -> None:
        kind = type(self.program.constants[operand])
        tag = "n" if kind is int or kind is float else "b" if kind is bool else "a"
        self.stack.append((f"k{operand}", tag))

    def _op_push_none(self, op: int, operand: None) -> None:
        self.stack.append(("N", "x"))

    def _op_load(self, op: int, operand: int) -> None:
        bit = 1 << operand
        if self.assigned & bit:
            self.stack.append((f"v{operand}", "n" if self.numeric & bit else "a"))
        else:  # read now: an unbound local raises and the run restarts
            self._result(f"v{operand}", "a")
            self.assigned |= bit

    def _op_store(self, op: int, operand: int) -> None:
        ((name, tag),) = self._take(1)
        value, local = self._computed_by_last_line(name), f"v{operand}"
        for depth, (alias, alias_tag) in enumerate(self.stack):
            if alias == local:  # entries still holding the old value
                self.lines.append(f"s{depth} = {local}")
                self.stack[depth] = (f"s{depth}", alias_tag)
        self.lines.append(f"{local} = {value}")
        bit = 1 << operand
        self.assigned |= bit
        self.numeric = self.numeric | bit if tag == "n" else self.numeric & ~bit

    def _op_pop(self, op: int, operand: None) -> None:
        self._take(1, void_ok=True)

    def _op_dup(self, op: int, operand: None) -> None:
        self.stack += self._take(1, void_ok=True) * 2

    def _op_add(self, op: int, operand: None) -> None:
        (x, x_tag), (y, y_tag) = self._take(2)
        expr, ordering = f"{x} {_SYMBOLS[op]} {y}", op in _ORDERING
        if (op != Op.ADD and not ordering) or x_tag == "n" or y_tag == "n":
            # No string or array meaning is left: a non-number is an error.
            self._number(x, x_tag)
            self._number(y, y_tag)
            self._result(expr, "b" if ordering else "n")
        else:
            slow = f"order(o{op}, {x}, {y})" if ordering else f"add({x}, {y})"
            self._result(
                f"{expr} if {_IS_NUMBER.format(x)} and {_IS_NUMBER.format(y)} else {slow}",
                "b" if ordering else "a",
            )

    _op_sub = _op_mul = _op_lt = _op_le = _op_gt = _op_ge = _op_add

    def _op_div(self, op: int, operand: None) -> None:
        (x, _), (y, _) = self._take(2)
        natural = f"type({x}) is int and type({y}) is int and {x} >= 0 and {y} > 0"
        if op == Op.MOD:
            expr = f"{x} % {y} if {natural} else modulo({x}, {y})"
        else:
            expr = (
                f"{x} // {y} if {natural} else {x} / {y} if type({x}) is float "
                f"and type({y}) is float and {y} != 0.0 else divide({x}, {y})"
            )
        self._result(expr, "n")

    _op_mod = _op_div

    def _op_eq(self, op: int, operand: None) -> None:
        (x, x_tag), (y, y_tag) = self._take(2)
        if x_tag == y_tag == "n":
            self._result(f"{x} == {y}" if op == Op.EQ else f"{x} != {y}", "b")
        else:
            self._result(f"{'' if op == Op.EQ else 'not '}equals({x}, {y})", "b")

    _op_ne = _op_eq

    def _op_neg(self, op: int, operand: None) -> None:
        ((name, tag),) = self._take(1)
        self._number(name, tag)
        self._result(f"-{name}", "n")

    def _op_not(self, op: int, operand: None) -> None:
        ((name, tag),) = self._take(1)
        if tag != "b":
            self.lines.append(f"if {name} is not True and {name} is not False: raise R")
        self._result(f"not {name}", "b")

    def _op_index(self, op: int, operand: None) -> None:
        (x, _), (y, _) = self._take(2)
        self._result(
            f"{x}[{y}] if type({x}) is list and type({y}) is int "
            f"and 0 <= {y} < len({x}) else index_get({x}, {y})",
            "a",
        )

    def _op_store_index(self, op: int, operand: None) -> None:
        (x, _), (y, _), (z, _) = self._take(3)
        self.uses.add("store_index")
        self.lines += [
            f"if type({x}) is list and type({y}) is int and 0 <= {y} < len({x}): {x}[{y}] = {z}",
            f"else: index_set({x}, {y}, {z})",
        ]

    def _op_build_array(self, op: int, operand: int) -> None:
        self._result("[" + ", ".join(name for name, _ in self._take(operand)) + "]", "a")

    def _op_call_builtin(self, op: int, operand: int) -> None:
        index, arity = divmod(operand, 8)
        builtin = BUILTIN_ORDER[index]
        self.uses.add(builtin)
        arguments = ", ".join(name for name, _ in self._take(arity))
        seeded = "F[1]" if builtin in _SEEDED else "None"
        tag = "n" if builtin in _NUMERIC_BUILTINS else "a"
        self._result(f"b{index}({seeded}, [{arguments}])", tag)

    def _op_call(self, op: int, operand: int) -> None:
        n_params = self.program.functions[operand].n_params
        arguments = "".join(f", {name}" for name, _ in self._take(n_params))
        self.lines.append("F[0] = fuel")
        self._result(f"f{operand}(F, depth + 1{arguments})", "x")  # may return void
        self.lines.append("fuel = F[0]")

    # -- emission -----------------------------------------------------------------

    def source(self) -> str:
        """The function as Python source (call after ``analyse``)."""
        self._jumps = False
        chain: list[str] = []
        for head in sorted(self.position, key=self.position.get):
            body = self._emit(head, head)
            chain += [f"if pc == {head}:"] + ["    " + line for line in body]
        if len(self.position) == 1 and not self._jumps:
            chain = body
        else:  # falling off the chain would be a translator bug: restart, never spin
            chain = ["pc = 0", "while True:"] + ["    " + line for line in chain + ["raise R"]]
        params = "".join(f", v{slot}" for slot in range(self.n_params))
        lines = ["if depth > D: raise R", "fuel = F[0]"] + chain
        return "\n".join(
            [f"def f{self.index}(F, depth{params}):"] + ["    " + line for line in lines]
        )

    def _emit(self, leader: int, head: int) -> list[str]:
        """The block at ``leader`` and, nested, the blocks only it falls into."""
        lines, exit_ = self._block(leader)
        if exit_[0] == "goto":
            lines += self._goto(exit_[1], head)
        elif exit_[0] == "branch":
            for keyword, target in ((f"if {exit_[1]}:", exit_[2]), ("else:", exit_[3])):
                arm = self._goto if target in self.position else self._emit
                lines += [keyword] + ["    " + line for line in arm(target, head)]
        return lines

    def _goto(self, target: int, head: int) -> list[str]:
        self._jumps = True
        if self.position[target] <= self.position[head]:
            return [f"pc = {target}", "continue"]
        return [f"pc = {target}"]  # later in the chain: fall down to it


#: opcode -> the ``_op_<name>`` method that translates it (terminators
#: are handled by ``_block`` itself)
_HANDLERS = {
    int(op): getattr(_FunctionTranslator, f"_op_{op.name.lower()}")
    for op in Op
    if op not in _BRANCHES and op != Op.RET
}


def _exact(value: Any) -> bool:
    """Whether ``value`` is built from exactly the types generated code assumes."""
    kind = type(value)
    if kind is list:
        return set(map(type, value)) <= _SCALARS or all(map(_exact, value))
    return kind in _SCALARS


#: What generated source can name, besides its constants and functions.
_NAMESPACE: dict[str, Any] = {
    "__builtins__": {},
    "R": Restart,
    "N": _NONE,
    "D": DEFAULT_MAX_CALL_DEPTH,
    "len": len,
    **{kind.__name__: kind for kind in (type, int, float, list)},
    **{name: getattr(operators, name) for name in (
        "add", "divide", "modulo", "equals", "order", "index_get", "index_set")},
    **{f"o{int(op)}": op for op in _ORDERING},
    **{f"b{index}": BUILTINS[name].impl for index, name in enumerate(BUILTIN_ORDER)},
}  # fmt: skip


class Translation:
    """A program's translated form; create with :func:`translate`."""

    def __init__(self, program: CompiledProgram, translators: list[_FunctionTranslator]):
        #: generated Python, one function per TVM function (``repro disasm --translated``)
        self.sources = [translator.source() for translator in translators]
        uses = set().union(*(translator.uses for translator in translators))
        #: whether a run can change an array it was given — the restart
        #: then needs a copy taken before the run
        self.mutates = bool(uses & _MUTATING)
        self._seeded = bool(uses & _SEEDED)
        namespace = {f"k{i}": value for i, value in enumerate(program.constants)}
        namespace.update(_NAMESPACE)
        exec(compile("\n\n".join(self.sources), "<tvm:translated>", "exec"), namespace)
        self._entries = {
            function.name: (namespace[f"f{index}"], function.n_params)
            for index, function in enumerate(program.functions)
        }

    def run(self, entry: str, args: list, fuel: int, seed: int = 0) -> tuple[Any, int]:
        """``(result, instructions)`` of ``entry(*args)``, exactly as the
        portable VM would report them — or any exception (``Restart``
        included), which means: run the portable VM instead."""
        function, n_params = self._entries.get(entry, (None, -1))
        if len(args) != n_params or not all(map(_exact, args)):
            raise Restart
        state = [fuel, random.Random(seed) if self._seeded else None]
        result = function(state, 1, *args)
        if state[0] < 0:
            raise Restart
        return (None if result is _NONE else result), fuel - state[0]


def translate(program: CompiledProgram) -> Translation | None:
    """Translate a *verified* program; ``None`` when it is declined."""
    try:
        size = sum(len(function.code) + function.n_locals for function in program.functions)
        if size > MAX_TRANSLATED_SIZE:
            raise _Declined("program too large")
        if not all(type(constant) in _SCALARS for constant in program.constants):
            raise _Declined("non-scalar constant")
        translators = [
            _FunctionTranslator(program, index) for index in range(len(program.functions))
        ]
        for translator in translators:
            translator.analyse()
        depth = max(translator.max_depth for translator in translators)
        if depth * DEFAULT_MAX_CALL_DEPTH > DEFAULT_MAX_STACK:
            raise _Declined("operand stack could exceed max_stack")
        return Translation(program, translators)
    except (_Declined, SyntaxError, RecursionError, MemoryError):
        return None
