"""Seeded differential fuzzing: AST interpreter vs portable VM vs translated path.

A deterministic ``random.Random`` generator (no hypothesis — every CI run
executes the exact same 500+ programs) emits small Tasklet programs that
deliberately hammer the shapes the translator specialises: counter
increments and decrements, compare-and-branch loop tests, array reads
(including out-of-bounds ones), division (including by zero), and string
accumulation through the ``operators.*`` slow paths.

Comparison is two-tier:

* **Exact** between the portable VM, the translated run and the
  executor (``tests/tvm/engines.py``) — result, error type name, error
  message, and ``ExecutionStats.instructions`` must all match, and so
  must the ``ExecutionOutcome``.  This is the fuel-equivalence contract
  billing and voting rely on.
* **Coarse** against the AST interpreter — fault-or-success and, on
  success, the result value.  (The reference interpreter raises plain
  ``VMError`` where the VM raises typed subclasses, and it counts steps,
  not instructions, so only behaviour is compared.)
"""

import random

from repro.common.errors import VMError
from repro.tvm.astinterp import AstInterpreter
from repro.tvm.builtins import BUILTIN_ORDER
from repro.tvm.bytecode import CompiledProgram, FunctionCode
from repro.tvm.bytecode import Instruction as Ins
from repro.tvm.compiler import compile_ast
from repro.tvm.disassembler import disassemble
from repro.tvm.opcodes import Op
from repro.tvm.parser import parse
from repro.tvm.semantics import analyze

from tests.tvm.engines import assert_engines_agree

PROGRAM_COUNT = 520
SEED = 0xC0FFEE

_INT_VARS = ["a", "b", "s", "t"]


def _int_expr(rng: random.Random, depth: int = 0) -> str:
    choice = rng.randrange(6 if depth < 2 else 2)
    if choice == 0:
        return str(rng.randint(-9, 9))
    if choice == 1:
        return rng.choice(_INT_VARS)
    left = _int_expr(rng, depth + 1)
    right = _int_expr(rng, depth + 1)
    if choice == 2:
        return f"({left} + {right})"
    if choice == 3:
        return f"({left} - {right})"
    if choice == 4:
        return f"({left} * {rng.randint(-3, 3)})"
    # Unguarded division: the denominator can be zero at runtime, and
    # both engines must fault identically when it is.
    return f"({left} / {right})"


def _condition(rng: random.Random, counter: str) -> str:
    op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
    return f"{rng.choice([counter] + _INT_VARS)} {op} {_int_expr(rng, 2)}"


def _statement(rng: random.Random, depth: int = 0) -> str:
    kind = rng.randrange(7 if depth < 2 else 3)
    if kind == 0:
        target = rng.choice(["s", "t"])
        return f"{target} = {_int_expr(rng)};"
    if kind == 1:
        # Counter updates by a constant: the proven-int fast path.
        target = rng.choice(["s", "t"])
        sign = rng.choice(["+", "-"])
        return f"{target} = {target} {sign} {rng.randint(1, 5)};"
    if kind == 2:
        # Array traffic; index may run out of bounds (both engines fault).
        index = rng.choice(["0", "1", "2", "3", "s", "(s + t)"])
        if rng.random() < 0.5:
            return f"arr[{index}] = s;"
        return f"s = s + int(arr[{index}]);"
    if kind == 3:
        # String accumulation: ADD's slow path.
        return f'msg = msg + "{rng.choice(["x", "yz", ""])}";'
    if kind == 4:
        body = _statement(rng, depth + 1)
        if rng.random() < 0.4:
            return (
                f"if ({_condition(rng, 'a')}) {{ {body} }} "
                f"else {{ {_statement(rng, depth + 1)} }}"
            )
        return f"if ({_condition(rng, 'a')}) {{ {body} }}"
    if kind == 5:
        # Counting loop: compare-and-branch on a proven-int counter.
        counter = f"i{depth}"
        bound = rng.randint(0, 7)
        comparison = rng.choice(["<", "<="])
        body = _statement(rng, depth + 1)
        return (
            f"for (var {counter}: int = 0; {counter} {comparison} {bound}; "
            f"{counter} = {counter} + 1) {{ {body} }}"
        )
    # kind == 6: countdown loop — decrement plus a > / >= loop test.
    counter = f"d{depth}"
    start = rng.randint(0, 7)
    comparison = rng.choice([">", ">="])
    body = _statement(rng, depth + 1)
    return (
        f"for (var {counter}: int = {start}; {counter} {comparison} 1; "
        f"{counter} = {counter} - 1) {{ {body} }}"
    )


def _program(rng: random.Random) -> str:
    body = " ".join(_statement(rng) for _ in range(rng.randint(2, 6)))
    return (
        "func main(a: int, b: int) -> int { "
        "var s: int = 1; var t: int = 2; "
        'var msg: string = ""; '
        "var arr: array = array(4); "
        f"{body} "
        "return s + 1000 * t + len(msg); }"
    )


def _run_ast(analysed, args):
    try:
        return ("ok", AstInterpreter(analysed).run("main", list(args)))
    except VMError:
        return ("error",)


def test_generated_programs_agree_across_all_three_engines():
    rng = random.Random(SEED)
    faults = translated = restarted = 0
    for index in range(PROGRAM_COUNT):
        source = _program(rng)
        args = [rng.randint(-10, 10), rng.randint(-10, 10)]
        analysed = analyze(parse(source))
        program = compile_ast(analysed)

        try:
            portable, direct = assert_engines_agree(program, args, fuel=100_000)
        except AssertionError as divergence:
            raise AssertionError(
                f"engines diverged on program {index}:\n{source}\nargs={args}\n"
                f"{divergence}"
            ) from None

        reference = _run_ast(analysed, args)
        assert reference[0] == portable[0], (
            f"AST interpreter disagrees on fault-ness for program {index}:\n"
            f"{source}\nargs={args}\nast={reference}\nvm={portable}"
        )
        if portable[0] == "ok":
            assert reference[1] == portable[1], (
                f"AST interpreter result mismatch on program {index}:\n"
                f"{source}\nargs={args}"
            )
        else:
            faults += 1
        translated += direct[0] != "declined"
        restarted += direct[0] == "restart"
        # A restart the interpreter then completes is legal but wasted
        # work; nothing this generator emits should cause one.
        assert (direct[0] == "restart") == (portable[0] == "error"), (index, source)

    # The generator must actually exercise both regimes: plenty of
    # faulting programs (division by zero, out-of-bounds reads), an
    # overwhelming majority of programs translated (not declined), and
    # enough of them restarting on the portable VM.
    assert faults >= PROGRAM_COUNT // 20, f"only {faults} faulting programs"
    assert translated >= PROGRAM_COUNT * 9 // 10, (
        f"only {translated} programs were translated"
    )
    assert restarted >= PROGRAM_COUNT // 20, f"only {restarted} runs restarted"


# ---------------------------------------------------------------------------
# Bytecode-level: control flow no compiler would emit
# ---------------------------------------------------------------------------
#
# The source generator above only produces the compiler's reducible
# while-loops.  Block dispatch has to be right for *any* jump graph the
# verifier admits, so this generator assembles well-typed integer
# statements (each leaves the operand stack empty) and then wires every
# jump to a random statement start: irreducible loops, jumps into and out
# of loops, self-recursion.  Most programs end by fuel, by division by
# zero, at the call-depth limit, or with a value; all must agree.

BYTECODE_PROGRAM_COUNT = 400
_INT_CONSTANTS = [0, 1, 2, 3, 4, 5, -3, 7, 9, 10, 6, 11]
_SMALL = [0, 1, 2, 3, 4, 5, 11]  # constant-pool indices the generator uses
_ABS = BUILTIN_ORDER.index("abs") * 8 + 1
_PATCH = -1  # placeholder jump target


def _bc_index(rng, code, n_locals, callees):
    """``abs(<int> % 4)``: always inside the 4-element array."""
    _bc_int(rng, code, n_locals, callees, 2)
    code += [Ins(Op.PUSH_CONST, 4), Ins(Op.MOD), Ins(Op.CALL_BUILTIN, _ABS)]


def _bc_int(rng, code, n_locals, callees, depth=0):
    """Emit code that pushes one int (the array lives in the last local)."""
    choice = rng.random()
    if depth > 2 or choice < 0.35:
        if rng.random() < 0.5:
            code.append(Ins(Op.PUSH_CONST, rng.choice(_SMALL)))
        else:
            code.append(Ins(Op.LOAD, rng.randrange(n_locals - 1)))
    elif choice < 0.7:
        _bc_int(rng, code, n_locals, callees, depth + 1)
        _bc_int(rng, code, n_locals, callees, depth + 1)
        code.append(Ins(rng.choice([Op.ADD, Op.SUB, Op.MUL, Op.ADD, Op.SUB, Op.DIV, Op.MOD])))
    elif choice < 0.78:
        _bc_int(rng, code, n_locals, callees, depth + 1)
        code.append(Ins(Op.NEG))
    elif choice < 0.86:
        code.append(Ins(Op.LOAD, n_locals - 1))
        _bc_index(rng, code, n_locals, callees)
        code.append(Ins(Op.INDEX))
    elif choice < 0.93 and callees:
        index, n_params = rng.choice(callees)
        for _ in range(n_params):
            _bc_int(rng, code, n_locals, callees, depth + 1)
        code.append(Ins(Op.CALL, index))
    else:
        _bc_int(rng, code, n_locals, callees, depth + 1)
        code.append(Ins(Op.CALL_BUILTIN, _ABS))


def _bc_function(rng, index, n_params, callees):
    n_locals = n_params + rng.randint(1, 3) + 1
    prologue = []
    for slot in range(n_params, n_locals - 1):
        prologue += [Ins(Op.PUSH_CONST, rng.choice(_SMALL)), Ins(Op.STORE, slot)]
    prologue += [Ins(Op.PUSH_CONST, position) for position in (1, 4, 2, 5)]
    prologue += [Ins(Op.BUILD_ARRAY, 4), Ins(Op.STORE, n_locals - 1)]
    statements = [prologue]
    for _ in range(rng.randint(2, 8)):
        code, kind = [], rng.random()
        if kind < 0.45:
            _bc_int(rng, code, n_locals, callees)
            code.append(Ins(Op.STORE, rng.randrange(n_locals - 1)))
        elif kind < 0.75:
            _bc_int(rng, code, n_locals, callees, 1)
            _bc_int(rng, code, n_locals, callees, 1)
            code.append(Ins(rng.choice([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE])))
            if rng.random() < 0.2:
                code.append(Ins(Op.NOT))
            code.append(Ins(rng.choice([Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE]), _PATCH))
        elif kind < 0.82:
            code.append(Ins(Op.JUMP, _PATCH))
        elif kind < 0.92:
            code.append(Ins(Op.LOAD, n_locals - 1))
            _bc_index(rng, code, n_locals, callees)
            _bc_int(rng, code, n_locals, callees, 1)
            code.append(Ins(Op.STORE_INDEX))
        else:
            _bc_int(rng, code, n_locals, callees)
            code.append(Ins(Op.RET))
        statements.append(code)
    statements.append([Ins(Op.LOAD, rng.randrange(n_locals - 1)), Ins(Op.RET)])
    starts, position = [], 0
    for code in statements:
        starts.append(position)
        position += len(code)
    body = [
        Ins(one.op, rng.choice(starts[1:])) if one.operand == _PATCH else one
        for code in statements
        for one in code
    ]
    return FunctionCode("main" if index == 0 else f"f{index}", n_params, n_locals, True, body)


def generated_bytecode_programs():
    """The ``BYTECODE_PROGRAM_COUNT`` programs, each with arguments and a
    fuel to run it on — the same ones on every call."""
    rng = random.Random(SEED)
    for _ in range(BYTECODE_PROGRAM_COUNT):
        n_params = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        functions = []
        for position, count in enumerate(n_params):
            # Calls go to later functions (so they end) or, rarely, to self.
            callees = list(enumerate(n_params))[position + 1 :]
            if rng.random() < 0.15:
                callees.append((position, count))
            functions.append(_bc_function(rng, position, count, callees))
        program = CompiledProgram(functions, list(_INT_CONSTANTS))
        args = [rng.choice([0, 1, 5, -2, 13]) for _ in range(n_params[0])]
        yield program, args, rng.choice([50, 300, 3000, 20000])


def test_generated_bytecode_with_arbitrary_jumps_agrees():
    outcomes: dict[str, int] = {}
    for index, (program, args, fuel) in enumerate(generated_bytecode_programs()):
        try:
            portable, direct = assert_engines_agree(program, args, fuel=fuel)
        except AssertionError as divergence:
            raise AssertionError(
                f"engines diverged on bytecode program {index}, args={args}, "
                f"fuel={fuel}:\n{disassemble(program)}\n{divergence}"
            ) from None
        assert direct[0] != "declined", disassemble(program)
        kind = "ok" if portable[0] == "ok" else portable[1]
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # Every way out must actually be exercised.
    assert outcomes["ok"] >= BYTECODE_PROGRAM_COUNT // 3, outcomes
    for fault in ("VMFuelExhausted", "VMDivisionByZero", "VMStackOverflow"):
        assert outcomes.get(fault, 0) >= 3, outcomes
