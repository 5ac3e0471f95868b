"""Translated execution: verified TVM bytecode as Python functions.

The second (and only other) execution tier beside the portable
:class:`~repro.tvm.vm.TVM`; DESIGN.md §5 has the full argument.
:func:`translate` turns each function of a *verified* program into one
Python function — TVM locals are the Python locals ``v<slot>``,
operand-stack entries the locals ``s<depth>``, a ``CALL`` a Python call.

**Control flow.**  A block with one predecessor nests inside it, and a
block every way out of an ``if`` falls into follows that ``if``.  The rest
(loop heads, other joins) head a chain of ``if pc == <index>:`` tests in
``while True:``, innermost loops first; a jump back to the running head is
a bare ``continue``, the last head is not tested, and the entry block,
unless a jump reaches it, runs before the loop.

**Deopt is restart.**  Generated code never builds a VM error: a failed
guard, fuel shortfall, depth limit, unbound local or any exception
abandons the run, and the caller re-executes the assignment on the
portable VM from pristine arguments and the same seed.  The invariant is
that :meth:`Translation.run` *never returns unless the portable VM
returns the same value with the same instruction count*.  To keep it,
each function is abstractly interpreted to a fixed point first (``verify()``
knows stack depths, not tags or definite assignment) and declined if unsound.
``run`` accepts exactly ``bool/int/float/str/list`` values, so
``type(x) is int or type(x) is float`` is all of "is a number".  Locals and
stack entries carry tags (int, float, number, bool, anything, maybe void)
that survive a join where every path agrees, and a guard is dropped only
where a tag proves it.  A parameter never stored to that the body needs as
a number is guarded once, at function entry (as an int where ``%`` or
``/`` wants one).  A call's result has its callee's return tag: callees are
analysed first, and recursion reads as maybe void, which may only be
popped, duplicated or returned — so an unbound Python local *is* the
uninitialised TVM local.  Fuel is charged per basic block on entry, and
tested at function entry and at every loop head.

**Source injection rule.**  The only program-derived tokens in generated
source are integers ``verify()`` has range-checked.  Constants, builtins
and operator helpers are bound by reference in the namespace the source
runs in, names are never interpolated, and its ``__builtins__`` is empty.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
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
#: Deeper single-predecessor chains become chain heads: Python's parser
#: caps indentation, and the emitter recurses once per level.
_MAX_NESTING = 32

_ORDERING = {Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">="}
_SYMBOLS = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", **_ORDERING}
_BRANCHES = (Op.JUMP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE)
#: builtin -> the tag of what it returns (whenever it returns at all)
_BUILTIN_TAGS = {
    "abs": "n",
    **dict.fromkeys("floor ceil len push int rand_int".split(), "i"),
    **dict.fromkeys("sqrt pow sin cos tan exp log float rand".split(), "f"),
}
_SEEDED = frozenset(("rand", "rand_int"))
_MUTATING = frozenset(("push", "pop", "store_index"))
_IS_NUMBER = "(type({0}) is int or type({0}) is float)"
_NOT_NUMBER = "if type({0}) is not int and type({0}) is not float: raise R"
#: What a local's tag implies, as the masks a block-entry state carries.
_FACTS = "ifnb"
_IMPLIED = {"i": "in", "f": "fn", "n": "n", "b": "b"}


class Restart(Exception):
    """The translated run gave up; re-execute on the portable VM."""


class _Declined(Exception):
    """The program cannot be translated soundly; it stays portable."""


def _join_tag(a: str, b: str) -> str:
    return a if a == b else "n" if a in "ifn" and b in "ifn" else "x" if "x" in (a, b) else "a"


def _join(old: tuple, new: tuple) -> tuple:
    """Least upper bound of two block-entry states."""
    if len(old[0]) != len(new[0]):
        raise _Declined("operand-stack depths differ at a join")
    tags = "".join(map(_join_tag, old[0], new[0]))
    return (tags, *(a & b for a, b in zip(old[1:], new[1:])))


class _FunctionTranslator:
    """Analyses one function to a fixed point, then emits its source.

    The abstract operand stack holds ``(name, tag)`` pairs: ``name`` is a
    Python name that yields the value (``s<depth>``, or an alias — a local
    ``v<slot>``, a constant ``k<index>``, the sentinel ``N``) and ``tag``
    is ``i`` exact int, ``f`` exact float, ``n`` either, ``b`` exact bool,
    ``x`` maybe void, ``a`` anything else.  A block-entry state is the
    stack's tags, the definitely-assigned locals, and one mask of locals
    per tag in ``_FACTS``.
    """

    def __init__(self, program: CompiledProgram, index: int):
        self.program = program
        self.index = index
        self.n_params = program.functions[index].n_params
        self.pairs = pairs = program.functions[index].pairs
        self.leaders = {operand for op, operand in pairs if op in _BRANCHES} | {
            pc + 1 for pc, (op, _) in enumerate(pairs) if op in _BRANCHES or op == Op.RET
        }
        self.back_edges = [
            (operand, pc)
            for pc, (op, operand) in enumerate(pairs)
            if op in _BRANCHES and operand <= pc
        ]
        self.loop_heads = {target for target, _ in self.back_edges}
        stores = {operand for op, operand in pairs if op == Op.STORE}
        #: parameters that hold their argument throughout, and the tag a use wants
        self.unstored = set(range(self.n_params)) - stores
        self.wanted: dict[int, str] = {}
        self.max_depth = 0
        self.uses: set[str] = set()  # builtins called, and "store_index"

    def analyse(self, returns: dict[int, str]) -> None:
        """Block-entry states to a fixed point — again, if some parameter
        is worth guarding at entry — then the function's return tag, into
        ``returns`` (function index -> tag), which holds its callees'."""
        self.returns = dict(returns)  # recursion: not there, so maybe void
        self._fixed_point()
        if self.wanted:  # settled: guard them at entry and analyse again
            self.unstored = set()
            self._fixed_point()
        returns[self.index] = self.returned or "x"
        # The entry has one more predecessor: the call.
        self.preds = Counter(itertools.chain([0], *self.successors.values()))

    def _fixed_point(self) -> None:
        masks = [
            sum(1 << slot for slot, tag in self.wanted.items() if fact in _IMPLIED[tag])
            for fact in _FACTS
        ]
        self.states = {0: ("", (1 << self.n_params) - 1, *masks)}
        self.successors: dict[int, tuple] = {}
        self.returned: str | None = None
        work = [0]
        while work:
            leader = work.pop()
            _, self.successors[leader], _ = self._block(leader)
            for target in self.successors[leader]:
                known = self.states.get(target)
                state = self._out if known is None else _join(known, self._out)
                if state != known:
                    self.states[target] = state
                    work.append(target)

    def _block(self, leader: int) -> tuple[list[str], tuple, str]:
        """Abstractly run the block at ``leader`` from its recorded state:
        its lines, its successors (``(pc_if_true, pc_if_false)`` after a
        branch) and the branch's condition; the state its successors start
        from is left in ``self._out``."""
        tags, self.assigned, *self.proven = self.states[leader]
        self.stack = [(f"s{depth}", tag) for depth, tag in enumerate(tags)]
        self.lines = [""]  # the fuel charge, once the block size is known
        if leader == 0 or leader in self.loop_heads:
            self.lines.append("if fuel < 0: raise R")
        pc, condition = leader, ""
        while True:
            op, operand = self.pairs[pc]
            pc += 1
            if op == Op.RET:
                ((name, tag),) = self._take(1, void_ok=True)
                self.returned = tag if self.returned is None else _join_tag(self.returned, tag)
                self.lines += ["F[0] = fuel", f"return {self._computed_by_last_line(name)}"]
                successors: tuple = ()
            elif op == Op.JUMP:
                successors = (operand,)
            elif op in _BRANCHES:
                ((name, tag),) = self._take(1)
                if tag != "b":
                    self.lines.append(f"if {name} is not True and {name} is not False: raise R")
                successors = (pc, operand) if op == Op.JUMP_IF_FALSE else (operand, pc)
                condition = self._computed_by_last_line(name)
            else:
                _HANDLERS[op](self, op, operand)
                self.max_depth = max(self.max_depth, len(self.stack))
                if pc not in self.leaders:
                    continue
                successors = (pc,)
            break
        if successors:  # successors find every entry in its own local
            for depth, (name, _) in enumerate(self.stack):
                if name != f"s{depth}":
                    self.lines.append(f"s{depth} = {name}")
        self.lines[0] = f"fuel -= {pc - leader}"
        self._out = ("".join(tag for _, tag in self.stack), self.assigned, *self.proven)
        return self.lines, successors, condition

    # -- abstract stack and locals ----------------------------------------------

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

    def _local(self, slot: int) -> str:
        return next((fact for fact, mask in zip(_FACTS, self.proven) if mask >> slot & 1), "a")

    def _prove(self, slot: int, tag: str) -> None:
        """From here on (until a join says otherwise) local ``slot`` is ``tag``."""
        bit, implied = 1 << slot, _IMPLIED.get(tag, "")
        self.proven = [m | bit if f in implied else m & ~bit for f, m in zip(_FACTS, self.proven)]

    def _want(self, name: str, tag: str) -> None:
        """A use wants ``name`` to be ``tag`` (``i`` or ``n``): worth an
        entry guard if it is a parameter that always holds its argument."""
        if name[0] == "v" and int(name[1:]) in self.unstored:
            slot = int(name[1:])
            self.wanted[slot] = "i" if "i" in (tag, self.wanted.get(slot)) else "n"

    def _number(self, name: str, tag: str) -> str:
        """Guard ``name`` as an exact number (a failure is a certain
        error); returns its numeric tag."""
        if tag in "ifn":
            return tag
        self.lines.append(_NOT_NUMBER.format(name))
        if name[0] == "v":  # holds for the local until it is stored to
            self._want(name, "n")
            self._prove(int(name[1:]), "n")
        return "n"

    # -- instructions -------------------------------------------------------------

    def _op_push_const(self, op: int, operand: int) -> None:
        kind = type(self.program.constants[operand])
        tag = {int: "i", float: "f", bool: "b"}.get(kind, "a")
        self.stack.append((f"k{operand}", tag))

    def _op_push_none(self, op: int, operand: None) -> None:
        self.stack.append(("N", "x"))

    def _op_load(self, op: int, operand: int) -> None:
        if self.assigned >> operand & 1:
            self.stack.append((f"v{operand}", self._local(operand)))
        else:  # read now: an unbound local raises and the run restarts
            self._result(f"v{operand}", "a")
            self.assigned |= 1 << operand

    def _op_store(self, op: int, operand: int) -> None:
        ((name, tag),) = self._take(1)
        value, local = self._computed_by_last_line(name), f"v{operand}"
        for depth, (alias, alias_tag) in enumerate(self.stack):
            if alias == local:  # entries still holding the old value
                self.lines.append(f"s{depth} = {local}")
                self.stack[depth] = (f"s{depth}", alias_tag)
        self.lines.append(f"{local} = {value}")
        self.assigned |= 1 << operand
        self._prove(operand, tag)

    def _op_pop(self, op: int, operand: None) -> None:
        self._take(1, void_ok=True)

    def _op_dup(self, op: int, operand: None) -> None:
        self.stack += self._take(1, void_ok=True) * 2

    def _op_add(self, op: int, operand: None) -> None:
        (x, x_tag), (y, y_tag) = self._take(2)
        expr, ordering = f"{x} {_SYMBOLS[op]} {y}", op in _ORDERING
        if (op != Op.ADD and not ordering) or x_tag in "ifn" or y_tag in "ifn":
            # No string or array meaning is left: a non-number is an error.
            x_tag, y_tag = self._number(x, x_tag), self._number(y, y_tag)
            tag = "i" if x_tag == y_tag == "i" else "f" if "f" in (x_tag, y_tag) else "n"
            self._result(expr, "b" if ordering else tag)
        else:
            slow = f"order(o{op}, {x}, {y})" if ordering else f"add({x}, {y})"
            self._result(
                f"{expr} if {_IS_NUMBER.format(x)} and {_IS_NUMBER.format(y)} else {slow}",
                "b" if ordering else "a",
            )

    _op_sub = _op_mul = _op_lt = _op_le = _op_gt = _op_ge = _op_add

    def _op_div(self, op: int, operand: None) -> None:
        (x, x_tag), (y, y_tag) = self._take(2)
        self._want(x, "n" if y_tag in "fn" else "i")
        self._want(y, "n" if x_tag in "fn" else "i")
        fast = f"{x} % {y}" if op == Op.MOD else f"{x} // {y}"
        slow = f"modulo({x}, {y})" if op == Op.MOD else f"divide({x}, {y})"
        ints = "" if x_tag == y_tag == "i" else f"type({x}) is int and type({y}) is int and "
        if op == Op.DIV and x_tag in "ifn" and y_tag in "ifn" and "f" in (x_tag, y_tag):
            self._result(f"{x} / {y} if {y} else {slow}", "f")
            return
        if op == Op.DIV and ints:
            floats = f"type({x}) is float and type({y}) is float and {y} != 0.0"
            slow = f"{x} / {y} if {floats} else {slow}"
        # The sign tests stay: TVM % and / follow C.
        self._result(f"{fast} if {ints}{x} >= 0 and {y} > 0 else {slow}", "n" if ints else "i")

    _op_mod = _op_div

    def _op_eq(self, op: int, operand: None) -> None:
        (x, x_tag), (y, y_tag) = self._take(2)
        if (x_tag in "ifn" and y_tag in "ifn") or x_tag == y_tag == "b":
            self._result(f"{x} == {y}" if op == Op.EQ else f"{x} != {y}", "b")
        else:
            self._result(f"{'' if op == Op.EQ else 'not '}equals({x}, {y})", "b")

    _op_ne = _op_eq

    def _op_neg(self, op: int, operand: None) -> None:
        ((name, tag),) = self._take(1)
        self._result(f"-{name}", self._number(name, tag))

    def _op_not(self, op: int, operand: None) -> None:
        ((name, tag),) = self._take(1)
        if tag != "b":
            self.lines.append(f"if {name} is not True and {name} is not False: raise R")
        self._result(f"not {name}", "b")

    def _op_index(self, op: int, operand: None) -> None:
        (x, _), (y, y_tag) = self._take(2)
        integer = "" if y_tag == "i" else f" and type({y}) is int"
        self._result(
            f"{x}[{y}] if type({x}) is list{integer} "
            f"and 0 <= {y} < len({x}) else index_get({x}, {y})",
            "a",
        )

    def _op_store_index(self, op: int, operand: None) -> None:
        (x, _), (y, y_tag), (z, _) = self._take(3)
        self.uses.add("store_index")
        integer = "" if y_tag == "i" else f" and type({y}) is int"
        self.lines += [
            f"if type({x}) is list{integer} and 0 <= {y} < len({x}): {x}[{y}] = {z}",
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
        self._result(f"b{index}({seeded}, [{arguments}])", _BUILTIN_TAGS.get(builtin, "a"))

    def _op_call(self, op: int, operand: int) -> None:
        n_params = self.program.functions[operand].n_params
        arguments = "".join(f", {name}" for name, _ in self._take(n_params))
        self.lines.append("F[0] = fuel")
        self._result(f"f{operand}(F, depth + 1{arguments})", self.returns.get(operand, "x"))
        self.lines.append("fuel = F[0]")

    # -- emission -----------------------------------------------------------------

    def source(self) -> str:
        """The function as Python source (call after ``analyse``)."""
        self.merged: set[int] = set()
        bodies: dict[int | None, list] = {}
        heads = [0 if self.preds[0] > 1 else None]  # None: the entry runs before the loop
        while heads:
            head = heads.pop()
            if head not in bodies:
                bodies[head], outs = self._emit(head or 0, head, 0)
                heads += outs
        prelude = bodies.pop(None, [])
        # Innermost loops first: a back edge restarts the chain at its head.
        chain = sorted(
            bodies, key=lambda pc: (-sum(lo <= pc <= hi for lo, hi in self.back_edges), pc)
        )
        self.position = {pc: place for place, pc in enumerate(chain)}
        guards = [
            _NOT_NUMBER.format(f"v{p}") if tag == "n" else f"if type(v{p}) is not int: raise R"
            for p, tag in sorted(self.wanted.items())
        ]
        lines = ["if depth > D: raise R", *guards, "fuel = F[0]", *self._render(prelude, None)]
        if chain:
            loop = []
            for head in chain[:-1]:
                loop += [f"if pc == {head}:", *_indented(self._render(bodies[head], head))]
            loop += self._render(bodies[chain[-1]], chain[-1])  # the last head: not tested
            if len(chain) > 1 and 0 in bodies:
                lines.append("pc = 0")
            lines += ["while True:", *_indented(loop)]
        params = "".join(f", v{slot}" for slot in range(self.n_params))
        return "\n".join([f"def f{self.index}(F, depth{params}):", *_indented(lines)])

    def _emit(self, leader: int, head: int | None, depth: int) -> tuple[list, Counter]:
        """The block at ``leader``, what nests in it and the joins that
        follow it; and ``{target: jumps}`` for the jumps that fall out of
        its end.  The body holds lines, branches ``(condition, then,
        else)`` and jumps to chain heads (their target), rendered later."""
        body: list = []
        while True:
            lines, successors, condition = self._block(leader)
            outs: Counter = Counter()
            arms = [self._edge(target, head, depth, outs) for target in successors]
            body += [*lines, (condition, *arms)] if len(arms) == 2 else [*lines, *sum(arms, [])]
            # A join that every way out of here falls into follows here.
            if len(outs) != 1 or sum(outs.values()) != self.preds[leader := next(iter(outs))]:
                return body, outs
            self.merged.add(leader)

    def _edge(self, target: int, head: int | None, depth: int, outs: Counter) -> list:
        if target == head:
            return ["continue"]
        if self.preds[target] == 1 and depth < _MAX_NESTING:
            body, inner = self._emit(target, head, depth + 1)
            outs.update(inner)
            return body
        outs[target] += 1
        return [target]

    def _render(self, body: list, head: int | None) -> list[str]:
        lines: list[str] = []
        for item in body:
            if type(item) is str:
                lines.append(item)
            elif type(item) is tuple:
                condition, then, orelse = item
                lines += [f"if {condition}:", *_indented(self._render(then, head) or ["pass"])]
                orelse = self._render(orelse, head)
                lines += ["else:", *_indented(orelse)] if orelse else []
            elif item not in self.merged and len(self.position) > 1:  # else: fall into it
                lines.append(f"pc = {item}")
                if head is not None and self.position[item] < self.position[head]:
                    lines.append("continue")  # up the chain; down it (or into it) falls
        return lines


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _callees_first(program: CompiledProgram) -> list[int]:
    """Function indices, each after the functions it calls (but not after
    one that is still waiting for it: recursion)."""
    order: list[int] = []
    seen: set[int] = set()
    stack = [(index, False) for index in reversed(range(len(program.functions)))]
    while stack:
        index, done = stack.pop()
        if done:
            order.append(index)
        elif index not in seen:
            seen.add(index)
            stack.append((index, True))
            calls = program.functions[index].pairs
            stack += [(operand, False) for op, operand in calls if op == Op.CALL]
    return order


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
        returns: dict[int, str] = {}
        for index in _callees_first(program):
            translators[index].analyse(returns)
        depth = max(translator.max_depth for translator in translators)
        if depth * DEFAULT_MAX_CALL_DEPTH > DEFAULT_MAX_STACK:
            raise _Declined("operand stack could exceed max_stack")
        return Translation(program, translators)
    except (_Declined, SyntaxError, RecursionError, MemoryError):
        return None
