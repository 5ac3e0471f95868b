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
where a tag proves it.  Ints also carry the facts ">= 0" and "> 0" (from
constants, ``+``, ``*``, ``%`` and ``/`` of such ints, and on the arm a
comparison with an int constant selects): a non-negative int ``%`` or ``/``
a positive one is the bare Python operator.  A parameter never stored to
that the body needs as a number is guarded once, at entry (as an int where
``%`` or ``/`` wants one): ``f<i>`` tests those guards and enters ``u<i>``,
which a call enters after testing only the arguments whose tags do not
prove them.  A call's result has its callee's return tag: callees are
analysed first, and recursion reads as maybe void, which may only be
popped, duplicated or returned — so an unbound Python local *is* the
uninitialised TVM local.

**Sunk fuel.**  A block's instruction count is charged at the first back
edge, chain head, return or call on its way out (a join after an ``if``
takes over what every way in still owes): only instructions that have run
are charged, so ``fuel < 0`` — tested at entry and at every loop head —
fires exactly where the portable VM runs out.

**Source injection rule.**  The only program-derived tokens in generated
source are integers the translator computed or ``verify()`` range-checked.
Constants, builtins and operator helpers are bound by reference in the
namespace the source runs in, names are never interpolated, and its
``__builtins__`` is empty.
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
#: the guard for a value wanted as an int or as a number
_GUARDS = {
    "i": "if type({0}) is not int: raise R",
    "n": "if type({0}) is not int and type({0}) is not float: raise R",
}
_INTS, _NUMBERS = "pzi", "pzifn"
#: What a local's tag implies, as the masks a block-entry state carries.
_FACTS = "pzifnb"
_IMPLIED = {"p": "pzin", "z": "zin", "i": "in", "f": "fn", "n": "n", "b": "b"}
#: ``x <op> c`` read as ``c <op'> x``; and the arms (true, false) on which
#: ``x <op> c`` proves ``x >= c + offset``
_MIRRORED = {Op.LT: Op.GT, Op.LE: Op.GE, Op.GT: Op.LT, Op.GE: Op.LE}
_AT_LEAST = {Op.GT: (1, None), Op.GE: (0, None), Op.LT: (None, 0), Op.LE: (None, 1)}


class Restart(Exception):
    """The translated run gave up; re-execute on the portable VM."""


class _Declined(Exception):
    """The program cannot be translated soundly; it stays portable."""


def _join_tag(a: str, b: str) -> str:
    both = set(_IMPLIED.get(a, "")) & set(_IMPLIED.get(b, ""))
    return next((fact for fact in _FACTS if fact in both), "x" if "x" in (a, b) else "a")


def _int_tag(low: int) -> str:
    """The tag of an int known to be at least ``low``."""
    return "p" if low > 0 else "z" if low == 0 else "i"


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
    is ``i`` exact int (``z`` one ``>= 0``, ``p`` one ``> 0``), ``f`` exact
    float, ``n`` either, ``b`` exact bool, ``x`` maybe void, ``a`` anything
    else.  A block-entry state is the stack's tags, the definitely-assigned
    locals, and one mask of locals per tag in ``_FACTS``.
    """

    def __init__(self, program: CompiledProgram, index: int, entry_guards: dict):
        self.program = program
        self.index = index
        self.entry_guards = entry_guards  # function index -> its ``wanted``
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
        self.wanted: dict[int, str] = entry_guards.setdefault(index, {})
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
        work = {0}  # lowest pc first: a loop's body settles before its exit is read
        while work:
            work.remove(leader := min(work))
            _, self.successors[leader], _, _ = self._block(leader)
            for target, out in zip(self.successors[leader], self._outs):
                known = self.states.get(target)
                state = out if known is None else _join(known, out)
                if state != known:
                    self.states[target] = state
                    work.add(target)

    def _block(self, leader: int, ran: int = 0) -> tuple[list[str], tuple, str, int]:
        """Abstractly run the block at ``leader`` from its recorded state,
        ``ran`` instructions not yet charged on the way in: its lines, its
        successors (``(pc_if_true, pc_if_false)`` after a branch), the
        branch's condition and the instructions still uncharged at its end;
        the states its successors start from are left in ``self._outs``."""
        tags, self.assigned, *self.proven = self.states[leader]
        self.stack = [(f"s{depth}", tag) for depth, tag in enumerate(tags)]
        self.lines = ["if fuel < 0: raise R"] if leader == 0 or leader in self.loop_heads else []
        self.charged, self.refined, pc, condition = leader - ran, None, leader, ""
        while True:
            op, operand = self.pairs[pc]
            self.pc = pc = pc + 1
            if op == Op.RET:
                ((name, tag),) = self._take(1, void_ok=True)
                self.returned = tag if self.returned is None else _join_tag(self.returned, tag)
                charge = f"F[0] = fuel - {pc - self.charged}"
                self.lines += [charge, f"return {self._computed_by_last_line(name)}"]
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
        tags, proven = "".join(tag for _, tag in self.stack), self.proven
        self._outs = [(tags, self.assigned, *proven)] * len(successors)
        if len(successors) == 2 and self.refined and self.refined[0] == pc - 1:
            _, slot, *arms = self.refined  # the condition compared a local with a constant
            for arm, tag in enumerate(arms):
                self._prove(slot, tag)
                self._outs[arm] = (tags, self.assigned, *self.proven)
                self.proven = proven
        return self.lines, successors, condition, pc - self.charged

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
        if name == f"s{len(self.stack)}" and self.lines and self.lines[-1].startswith(prefix):
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
        if tag in _NUMBERS:
            return tag
        self.lines.append(_GUARDS["n"].format(name))
        if name[0] == "v":  # holds for the local until it is stored to
            self._want(name, "n")
            self._prove(int(name[1:]), "n")
        return "n"

    # -- instructions -------------------------------------------------------------

    def _op_push_const(self, op: int, operand: int) -> None:
        value = self.program.constants[operand]
        kind = type(value)
        tag = _int_tag(value) if kind is int else {float: "f", bool: "b"}.get(kind, "a")
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
        if (op != Op.ADD and not ordering) or x_tag in _NUMBERS or y_tag in _NUMBERS:
            # No string or array meaning is left: a non-number is an error.
            if ordering:
                self._note_comparison(op, (x, x_tag), (y, y_tag))
            x_tag, y_tag = self._number(x, x_tag), self._number(y, y_tag)
            ints = x_tag in _INTS and y_tag in _INTS
            tag = "i" if ints else "f" if "f" in (x_tag, y_tag) else "n"
            if ints and op != Op.SUB and "i" not in (x_tag, y_tag):
                # A sum has its stronger side's sign fact, a product its weaker ("p" < "z").
                tag = (min if op == Op.ADD else max)(x_tag, y_tag)
            self._result(expr, "b" if ordering else tag)
        else:
            slow = f"order(o{op}, {x}, {y})" if ordering else f"add({x}, {y})"
            self._result(
                f"{expr} if {_IS_NUMBER.format(x)} and {_IS_NUMBER.format(y)} else {slow}",
                "b" if ordering else "a",
            )

    _op_sub = _op_mul = _op_lt = _op_le = _op_gt = _op_ge = _op_add

    def _note_comparison(self, op: int, x: tuple[str, str], y: tuple[str, str]) -> None:
        """An int local compared with an int constant is bounded below on an
        arm of the branch this feeds (not a float: NaN fails ``x < c`` too)."""
        if x[0][0] == "k":
            x, y, op = y, x, _MIRRORED[op]
        (name, tag), constant = x, y[0]
        value = self.program.constants[int(constant[1:])] if constant[0] == "k" else None
        if name[0] == "v" and tag in _INTS and type(value) is int:
            arms = [
                tag if offset is None else min(tag, _int_tag(value + offset), key=_INTS.index)
                for offset in _AT_LEAST[op]
            ]
            self.refined = (self.pc, int(name[1:]), *arms)

    def _op_div(self, op: int, operand: None) -> None:
        (x, x_tag), (y, y_tag) = self._take(2)
        self._want(x, "n" if y_tag in "fn" else "i")
        self._want(y, "n" if x_tag in "fn" else "i")
        fast = f"{x} % {y}" if op == Op.MOD else f"{x} // {y}"
        if x_tag in "pz" and y_tag == "p":  # C and Python agree on these signs
            self._result(fast, "z")
            return
        slow = f"modulo({x}, {y})" if op == Op.MOD else f"divide({x}, {y})"
        ints = f"type({x}) is int and type({y}) is int and "
        ints = "" if x_tag in _INTS and y_tag in _INTS else ints
        if op == Op.DIV and x_tag in _NUMBERS and y_tag in _NUMBERS and "f" in (x_tag, y_tag):
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
        if (x_tag in _NUMBERS and y_tag in _NUMBERS) or x_tag == y_tag == "b":
            self._result(f"{x} == {y}" if op == Op.EQ else f"{x} != {y}", "b")
        else:
            self._result(f"{'' if op == Op.EQ else 'not '}equals({x}, {y})", "b")

    _op_ne = _op_eq

    def _op_neg(self, op: int, operand: None) -> None:
        ((name, tag),) = self._take(1)
        tag = self._number(name, tag)
        self._result(f"-{name}", "i" if tag in _INTS else tag)

    def _op_not(self, op: int, operand: None) -> None:
        ((name, tag),) = self._take(1)
        if tag != "b":
            self.lines.append(f"if {name} is not True and {name} is not False: raise R")
        self._result(f"not {name}", "b")

    def _op_index(self, op: int, operand: None) -> None:
        (x, _), (y, y_tag) = self._take(2)
        integer = "" if y_tag in _INTS else f" and type({y}) is int"
        self._result(
            f"{x}[{y}] if type({x}) is list{integer} "
            f"and 0 <= {y} < len({x}) else index_get({x}, {y})",
            "a",
        )

    def _op_store_index(self, op: int, operand: None) -> None:
        (x, _), (y, y_tag), (z, _) = self._take(3)
        self.uses.add("store_index")
        integer = "" if y_tag in _INTS else f" and type({y}) is int"
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
        """Enter the callee past its entry guards, testing the arguments no tag proves."""
        taken = self._take(self.program.functions[operand].n_params)
        for slot, (name, tag) in enumerate(taken):
            want = self.entry_guards[operand].get(slot)
            if want and want not in _IMPLIED.get(tag, ""):
                self.lines.append(_GUARDS[want].format(name))
        arguments = "".join(f", {name}" for name, _ in taken)
        self.lines.append(f"F[0] = fuel - {self.pc - self.charged}")
        self.charged = self.pc
        self._result(f"u{operand}(F, depth + 1{arguments})", self.returns.get(operand, "x"))
        self.lines.append("fuel = F[0]")

    # -- emission -----------------------------------------------------------------

    def source(self) -> str:
        """The function as Python source (call after ``analyse``): ``f<i>``
        tests the entry guards and enters ``u<i>``, which calls enter."""
        self.carried: dict[int, int] = {}  # merged join -> instructions it owes
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
        lines = ["if depth > D: raise R", "fuel = F[0]", *self._render(prelude, None)]
        if chain:
            loop = []
            for head in chain[:-1]:
                loop += [f"if pc == {head}:", *_indented(self._render(bodies[head], head))]
            loop += self._render(bodies[chain[-1]], chain[-1])  # the last head: not tested
            if len(chain) > 1 and 0 in bodies:
                lines.append("pc = 0")
            lines += ["while True:", *_indented(loop)]
        guards = [_GUARDS[tag].format(f"v{p}") for p, tag in sorted(self.wanted.items())]
        signature = f"{self.index}(F, depth{''.join(f', v{p}' for p in range(self.n_params))})"
        entry = [f"def f{signature}:", *_indented([*guards, f"return u{signature}"])]
        return "\n".join([*entry, f"def u{signature}:", *_indented(lines)])

    def _emit(self, leader: int, head: int | None, depth: int, ran: int = 0) -> tuple[list, dict]:
        """The block at ``leader``, entered owing ``ran`` instructions, what
        nests in it and the joins that follow it; and ``{target: [owed, ...]}``
        for the jumps that fall out of its end.  The body holds lines,
        branches ``(condition, then, else)`` and jumps ``(target, owed)``,
        rendered later."""
        body: list = []
        while True:
            lines, successors, condition, ran = self._block(leader, ran)
            outs: dict[int, list[int]] = {}
            arms = [self._edge(target, head, depth, outs, ran) for target in successors]
            body += [*lines, (condition, *arms)] if len(arms) == 2 else [*lines, *sum(arms, [])]
            # A join that every way out of here falls into follows here, and
            # what every way in still owes is charged after it.
            if len(outs) != 1 or len(outs[leader := next(iter(outs))]) != self.preds[leader]:
                return body, outs
            self.carried[leader] = ran = min(outs[leader])

    def _edge(self, target: int, head: int | None, depth: int, outs: dict, ran: int) -> list:
        if target != head and self.preds[target] == 1 and depth < _MAX_NESTING:
            body, inner = self._emit(target, head, depth + 1, ran)
            for join, owed in inner.items():
                outs.setdefault(join, []).extend(owed)
            return body
        if target != head:
            outs.setdefault(target, []).append(ran)
        return [(target, ran)]

    def _render(self, body: list, head: int | None) -> list[str]:
        lines: list[str] = []
        for item in body:
            if type(item) is str:
                lines.append(item)
            elif len(item) == 3:
                condition, then, orelse = item
                lines += [f"if {condition}:", *_indented(self._render(then, head) or ["pass"])]
                orelse = self._render(orelse, head)
                lines += ["else:", *_indented(orelse)] if orelse else []
            else:
                lines += self._jump(*item, head)
        return lines

    def _jump(self, target: int, ran: int, head: int | None) -> list[str]:
        """Charge what the jump owes (a merged join owes the rest), then go."""
        owed = ran - self.carried.get(target, 0)
        lines = [f"fuel -= {owed}"] if owed else []
        if target == head:
            lines.append("continue")
        elif target not in self.carried and len(self.position) > 1:  # else: fall into it
            lines.append(f"pc = {target}")
            if head is not None and self.position[target] < self.position[head]:
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
        entry_guards: dict[int, dict[int, str]] = {}
        translators = [
            _FunctionTranslator(program, index, entry_guards)
            for index in range(len(program.functions))
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
