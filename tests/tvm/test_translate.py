"""Translated execution: equivalence with the portable VM, and invariants.

The translated path must be observationally identical to the portable
engine: same results, same errors (type *and* message), same
``ExecutionStats.instructions`` on success, on runtime faults, and on
fuel exhaustion — that count feeds billing, the virtual service-time
model, and redundant-execution voting.  The portable representation
(wire format, ``fingerprint()``) must be untouched by translation.
``tests/tvm/engines.py`` says what is compared and how.
"""

import copy
import math
import re
import sys
import threading

import pytest

from repro.core import kernels
from repro.provider.executor import TaskletExecutor, local_assignment
from repro.tvm.bytecode import CompiledProgram
from repro.tvm.compiler import compile_source
from repro.tvm.opcodes import Op
from repro.tvm.parser import parse
from repro.tvm.semantics import analyze
from repro.tvm.translate import translate
from repro.tvm.vm import TVM

from tests.tvm.assembler import assemble
from tests.tvm.astinterp import AstInterpreter
from tests.tvm.engines import (
    FUEL,
    KERNEL_CASES,
    assert_engines_agree,
    run_portable,
    run_translated,
)

COUNT_LOOP = """
func main(n: int) -> int {
    var s: int = 0;
    for (var i: int = 0; i < n; i = i + 1) {
        s = s + 3;
    }
    return s;
}
"""


def agree_ok(program, args):
    """The value both engines return; neither may fault or restart."""
    expected, direct = assert_engines_agree(program, args)
    assert expected[0] == direct[0] == "ok", (expected, direct)
    return expected[1]


# ---------------------------------------------------------------------------
# The translation itself
# ---------------------------------------------------------------------------


def test_translation_elides_only_the_guards_it_has_proven():
    program = compile_source(COUNT_LOOP)
    program.verify()
    (source,) = translate(program).sources
    # s and i start from int constants and only ever have an int added,
    # so the loop body needs no type test; n is a parameter compared as a
    # number, so it is guarded once, at entry, not in the loop head.
    assert re.search(r"v1 = v1 \+ k\d\n", source)
    assert re.search(r"v2 = v2 \+ k\d\n", source)
    assert "type(v1)" not in source and "type(v2)" not in source
    guard = "if type(v0) is not int and type(v0) is not float: raise R"
    assert source.count(guard) == 1
    assert source.index(guard) < source.index("while True:")


#: Inputs that between them take every arm of every kernel's branches.
PATH_CASES = {
    **{name: [("main", args)] for name, args in KERNEL_CASES.items()},
    "prime_count": [("main", [40]), ("is_prime", [1])],
    "fibonacci": [("main", [0]), ("main", [7])],
}
CHARGE = re.compile(r"fuel -= \d+|F\[0\] = fuel - \d+")


def test_fuel_charges_cover_every_reachable_instruction_once():
    # Charges sink to the first back edge, join, return or call on the
    # way: the charges along every path must sum to the path's
    # instruction count.  Each run checks the path it took (its total is
    # the portable VM's count); together the runs pass every charge.
    for name, cases in PATH_CASES.items():
        program = compile_source(kernels.ALL_KERNELS[name])
        program.verify()
        translation = translate(program)
        text = "\n\n".join(translation.sources).splitlines()
        charges = {number for number, line in enumerate(text, 1) if CHARGE.search(line)}
        ran: set[int] = set()

        def trace(frame, event, arg):
            if frame.f_code.co_filename != "<tvm:translated>":
                return None
            ran.add(frame.f_lineno)
            return trace

        for entry, args in cases:
            sys.settrace(trace)
            try:
                direct = translation.run(entry, copy.deepcopy(args), FUEL)
            finally:
                sys.settrace(None)
            assert ("ok", *direct) == run_portable(program, args, entry=entry), (name, args)
        assert charges <= ran, (name, [text[number - 1] for number in charges - ran])


def test_function_entry_and_every_loop_head_test_fuel():
    listing = """
    .func main params=0 locals=0 returns=void
      0  JUMP 1
     L1  JUMP 2
     L2  JUMP 1
    .end
    """
    program = assemble(listing)
    branches = (Op.JUMP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE)
    for compiled in (program, *map(compile_source, kernels.ALL_KERNELS.values())):
        for function, source in zip(compiled.functions, translate(compiled).sources):
            pairs = enumerate(function.pairs)
            heads = {to for pc, (op, to) in pairs if op in branches and to <= pc}
            # One test at entry and one at the top of every loop head...
            assert source.count("if fuel < 0: raise R") == 1 + len(heads), function.name
            # ...and every way back up to a head pays first, so each
            # cycle's test sees a charge of at least one.
            lines = [line.strip() for line in source.splitlines()]
            for place, line in enumerate(lines):
                if line == "continue":
                    before = lines[place - 2 : place]
                    assert any(CHARGE.match(other) for other in before), (function.name, before)
    # ``while (true) {}`` ends: without the loop head's test it would spin
    # on a negative budget for ever, so run it where a hang is a failure.
    outcome = []
    runner = threading.Thread(
        target=lambda: outcome.append(run_translated(program, [], fuel=10_000)), daemon=True
    )
    runner.start()
    runner.join(timeout=10)
    assert outcome == [("restart",)]
    assert run_portable(program, [], fuel=10_000)[1] == "VMFuelExhausted"


@pytest.mark.parametrize("source, args", [(COUNT_LOOP, [10]), (kernels.PRIME_COUNT, [300])])
def test_fuel_sweep_ends_exactly_where_the_portable_vm_ends(source, args):
    # Charges are per block, merged along nesting: every budget in the
    # last 40 instructions must still fail, bill and succeed as interpreted.
    program = compile_source(source)
    status, value, exact = run_portable(program, args)
    assert status == "ok"
    for fuel in range(exact - 40, exact + 2):
        expected, direct = assert_engines_agree(program, args, fuel=fuel)
        if fuel < exact:
            message = f"fuel exhausted after {fuel} instructions"
            assert expected == ("error", "VMFuelExhausted", message, fuel)
            assert direct == ("restart",)
        else:
            assert expected == direct == ("ok", value, exact)


INT_KERNEL = """
func main(n: int) -> int {
    var s: int = 0;
    for (var i: int = 0; i < 20; i = i + 1) {
        s = s + n % 7 + i;
    }
    return s;
}
"""


def test_an_int_parameter_is_guarded_at_entry_and_restarts_on_any_other_type():
    program = compile_source(INT_KERNEL)
    (source,) = translate(program).sources
    # ``%`` wants an int, so n is tested once, before the loop, as an int.
    assert source.count("type(v0)") == 1
    assert "if type(v0) is not int: raise R" in source.split("while True:")[0]
    assert assert_engines_agree(program, [12])[1] == ("ok", 290, 350)
    for argument in (12.5, True, "12", [12]):
        expected, direct = assert_engines_agree(program, [argument])
        assert direct == ("restart",), argument
    assert expected[:2] == ("error", "VMTypeError")


def test_a_parameter_the_body_stores_to_is_guarded_where_it_is_used_not_at_entry():
    # Only the path that keeps the argument multiplies it: a string
    # argument is legal when the other path overwrites it first.
    listing = """
    .constants 2
      k0 = 5
      k1 = 2
    .func main params=2 locals=2 returns=value
      0  LOAD 1
      1  JUMP_IF_FALSE 4
      2  PUSH_CONST 0
      3  STORE 0
     L4  LOAD 0
      5  PUSH_CONST 1
      6  MUL
      7  RET
    .end
    """
    program = assemble(listing)
    assert agree_ok(program, ["text", True]) == 10 and agree_ok(program, [3, False]) == 6
    expected, direct = assert_engines_agree(program, ["text", False])
    assert direct == ("restart",) and expected[1] == "VMTypeError"


def test_an_int_and_a_float_joined_are_a_number_not_either():
    # The int fast paths of / and % on a float (or true division on an
    # int) would change the value: the join must forget which it was.
    in_a_local = """
    .constants 3
      k0 = 7
      k1 = 7.5
      k2 = 2
    .func main params=1 locals=2 returns=value
      0  LOAD 0
      1  JUMP_IF_FALSE 5
      2  PUSH_CONST 0
      3  STORE 1
      4  JUMP 7
     L5  PUSH_CONST 1
      6  STORE 1
     L7  LOAD 1
      8  PUSH_CONST 2
      9  DIV
     10  LOAD 1
     11  PUSH_CONST 2
     12  MOD
     13  ADD
     14  RET
    .end
    """
    on_the_stack = """
    .constants 3
      k0 = 7
      k1 = 7.5
      k2 = 2
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  JUMP_IF_FALSE 4
      2  PUSH_CONST 0
      3  JUMP 5
     L4  PUSH_CONST 1
     L5  PUSH_CONST 2
      6  DIV
      7  RET
    .end
    """
    assert agree_ok(assemble(in_a_local), [True]) == 4
    assert agree_ok(assemble(in_a_local), [False]) == 5.25
    assert agree_ok(assemble(on_the_stack), [True]) == 3
    assert agree_ok(assemble(on_the_stack), [False]) == 3.75


CALLS = """
.constants 3
  k0 = 1
  k1 = 2
  k2 = True
.func pick params=1 locals=1 returns=value
  0  LOAD 0
  1  JUMP_IF_FALSE 4
  2  PUSH_CONST 2
  3  RET
 L4  PUSH_NONE
  5  RET
.end
.func negate params=1 locals=1 returns=value
  0  LOAD 0
  1  NOT
  2  RET
.end
.func main params=1 locals=1 returns=value
  0  LOAD 0
  1  CALL {callee}
  2  JUMP_IF_FALSE 5
  3  PUSH_CONST 0
  4  RET
 L5  PUSH_CONST 1
  6  RET
.end
"""


def test_only_an_always_bool_callee_frees_its_caller_of_the_result_guard():
    maybe_void, always_bool = (assemble(CALLS.format(callee=index)) for index in (0, 1))
    assert translate(maybe_void).sources[2].count("is N: raise R") == 1
    assert "is N" not in translate(always_bool).sources[2]
    assert "is not True" not in translate(always_bool).sources[2]
    assert agree_ok(maybe_void, [True]) == 1
    expected, direct = assert_engines_agree(maybe_void, [False])
    assert direct == ("restart",) and expected[1] == "VMTypeError"
    assert agree_ok(always_bool, [True]) == 2 and agree_ok(always_bool, [False]) == 1
    # is_prime returns only bools, so main tests nothing after calling it;
    # fib's calls to itself read as maybe void, so fib guards their results.
    prime = translate(compile_source(kernels.PRIME_COUNT)).sources
    assert "is N" not in prime[1] and "is not True" not in prime[1]
    fib = translate(compile_source(kernels.FIBONACCI)).sources[0]
    assert fib.count("is N: raise R") == 2


def test_remainder_and_quotient_of_negative_ints_in_a_proven_int_loop():
    source = """
    func main(n: int) -> int {
        var s: int = 0;
        for (var i: int = 0 - 13; i < 13; i = i + 1) {
            s = s + i % 3 + i / 4 + 7 % (i - 13) + (0 - 9) / (i + 14) + i % (0 - 5);
            s = s + i % n + (0 - i) / n;
        }
        return s;
    }
    """
    program = compile_source(source)
    (text,) = translate(program).sources
    # n is guarded as an int at entry, i and s are proven ints: no type
    # test in the loop, but the sign tests stay, with C semantics on the
    # slow path.
    assert text.count("type(") == 1
    assert "modulo(" in text and "divide(" in text and ">= 0" in text
    for n in (3, -4, 7):
        assert agree_ok(program, [n]) == sum(
            c_mod(i, 3) + c_div(i, 4) + c_mod(7, i - 13) + c_div(-9, i + 14) + c_mod(i, -5)
            + c_mod(i, n) + c_div(-i, n)
            for i in range(-13, 13)
        )


SIGNS = """
func main(a: int, b: int) -> int {
    var s: int = a % 5 + a / 5 + b % 7;
    if (a >= 0) {
        s = s + a % 3 + a / 3;
        if (b > 0) { s = s + a % b + a / b + (a * b + 1) % (b + 2) + (b - 5) % 3; }
        if (1 <= b) { s = s + (a + b) / b; }
    }
    if (b < 0) { s = s - 1; } else { s = s + 9 % (b + 1); }
    return s + a % b + a / b;
}
"""


def test_remainder_and_quotient_by_sign_agree_with_the_portable_vm():
    # Where a, b or a sum or product of them is proven >= 0 or > 0, % and /
    # are Python's; elsewhere they keep the sign tests.  Every sign of
    # either operand, zero included, must still mean what it means in C.
    program = compile_source(SIGNS)
    (text,) = translate(program).sources
    bare = re.findall(r"\n +s\d = (\w+ (?:%|//) \w+)\n", text)
    assert bare == ["v0 % k3", "v0 // k3", "v0 % v1", "v0 // v1", "s1 % s2", "s1 // v1", "k6 % s2"]
    assert text.count("modulo(") == 4 and text.count("divide(") == 2
    for a in range(-4, 5):
        for b in range(-4, 5):
            expected, direct = assert_engines_agree(program, [a, b])
            if b:
                assert expected == direct and direct[1] == c_signs(a, b), (a, b)
            else:
                assert direct == ("restart",) and expected[1] == "VMDivisionByZero"
    # Each comparison, either way round, with a constant either side of
    # zero: an arm may only call x non-negative where it is.
    compare = """
    .constants 2
      k0 = {c}
      k1 = 3
    .func main params=1 locals=1 returns=value
      0  {first}
      1  {second}
      2  {op}
      3  JUMP_IF_FALSE 8
      4  LOAD 0
      5  PUSH_CONST 1
      6  MOD
      7  RET
     L8  LOAD 0
      9  PUSH_CONST 1
     10  MOD
     11  PUSH_CONST 1
     12  ADD
     13  RET
    .end
    """
    for op, holds in {"LT": int.__lt__, "LE": int.__le__, "GT": int.__gt__, "GE": int.__ge__}.items():
        for c in (-2, -1, 0, 1):
            for first, second, flip in (("LOAD 0", "PUSH_CONST 0", 0), ("PUSH_CONST 0", "LOAD 0", 1)):
                program = assemble(compare.format(c=c, op=op, first=first, second=second))
                for x in range(-4, 5):
                    true = holds(c, x) if flip else holds(x, c)
                    expected = c_mod(x, 3) + (0 if true else 3)
                    assert agree_ok(program, [x]) == expected, (op, c, flip, x)


def c_signs(a, b):
    s = c_mod(a, 5) + c_div(a, 5) + c_mod(b, 7)
    if a >= 0:
        s += a % 3 + a // 3
        if b > 0:
            s += a % b + a // b + (a * b + 1) % (b + 2) + c_mod(b - 5, 3) + (a + b) // b
    s += -1 if b < 0 else 9 % (b + 1)
    return s + c_mod(a, b) + c_div(a, b)


def test_a_comparison_nan_fails_proves_no_sign():
    # x is a number, not an int: NaN (or 5.5) gets past ``x < 0`` too, so
    # the arm proves nothing and % and / keep their float meaning.
    listing = """
    .constants 3
      k0 = 0
      k1 = 2
      k2 = 1
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  PUSH_CONST 2
      2  MUL
      3  STORE 0
      4  LOAD 0
      5  PUSH_CONST 0
      6  LT
      7  JUMP_IF_FALSE 10
      8  PUSH_CONST 0
      9  RET
    L10  LOAD 0
     11  PUSH_CONST 1
     12  MOD
     13  LOAD 0
     14  PUSH_CONST 1
     15  DIV
     16  BUILD_ARRAY 2
     17  RET
    .end
    """
    program = assemble(listing)
    (text,) = translate(program).sources
    assert "v0 = v0 * k2" in text and "v0 < k0" in text  # a number, compared
    assert "modulo(" in text and "divide(" in text
    assert agree_ok(program, [5.5]) == [1.5, 2.75] and agree_ok(program, [7]) == [1, 3]
    assert agree_ok(program, [-0.5]) == 0
    (_, portable, _), (_, translated, _) = (
        engine(program, [math.nan]) for engine in (run_portable, run_translated)
    )
    assert all(map(math.isnan, portable + translated)) and len(translated) == 2


def test_run_enters_through_the_guards_a_proven_call_skips():
    # A call whose argument no tag proves an int tests it before entering:
    # past half's guard, 5.5 / 2 would floor like an int.
    half = """
    .constants 1
      k0 = 2
    .func half params=1 locals=1 returns=value
      0  LOAD 0
      1  PUSH_CONST 0
      2  DIV
      3  RET
    .end
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  CALL 0
      2  RET
    .end
    """
    program = assemble(half)
    assert agree_ok(program, [7]) == 3 and agree_ok(program, [-7]) == -3
    expected, direct = assert_engines_agree(program, [5.5])
    assert direct == ("restart",) and expected[1] == 2.75
    program = compile_source(kernels.PRIME_COUNT)
    is_prime, main = translate(program).sources
    # main's n is a proven positive int: it enters is_prime past its guard.
    assert "if type(v0) is not int: raise R\n    return u0(F, depth, v0)" in is_prime
    assert "u0(F, depth + 1, v2)" in main and "type(" not in main.split("def u1")[1]
    expected, direct = assert_engines_agree(program, [-7], entry="is_prime")
    assert expected == direct and direct[1] is False
    expected, direct = assert_engines_agree(program, [2.0], entry="is_prime")
    assert direct == ("restart",) and expected[:2] == ("ok", True)


def c_mod(x, y):
    return abs(x) % abs(y) * (1 if x >= 0 else -1)


def c_div(x, y):
    quotient = abs(x) // abs(y)
    return quotient if (x >= 0) == (y >= 0) else -quotient


def test_translation_leaves_wire_format_and_fingerprint_untouched():
    program = compile_source(kernels.PRIME_COUNT)
    program.verify()
    fingerprint_before = program.fingerprint()
    dict_before = program.to_dict()
    assert translate(program) is not None
    assert program.fingerprint() == fingerprint_before
    assert program.to_dict() == dict_before
    # And the translated program still round-trips byte-identically.
    rebuilt = CompiledProgram.from_dict(program.to_dict())
    assert rebuilt.fingerprint() == fingerprint_before
    assert rebuilt.to_dict() == dict_before


# ---------------------------------------------------------------------------
# Observational equivalence
# ---------------------------------------------------------------------------


def test_all_standard_kernels_equivalent():
    for name, args in KERNEL_CASES.items():
        source = kernels.ALL_KERNELS[name]
        expected, direct = assert_engines_agree(compile_source(source), args, seed=7)
        assert expected[0] == "ok" and direct[0] == "ok", name
        reference = AstInterpreter(analyze(parse(source)), seed=7).run("main", args)
        assert reference == expected[1], name


def test_fuel_exhaustion_bills_exactly_in_both_engines():
    # Sweep fuel values so exhaustion lands on every phase of the loop's
    # basic blocks: a block is charged whole, and a shortfall anywhere
    # inside it must still bill what the interpreter bills.
    program = compile_source(COUNT_LOOP)
    for fuel in range(40, 72):
        expected, direct = assert_engines_agree(program, [10_000], fuel=fuel)
        assert expected == (
            "error",
            "VMFuelExhausted",
            f"fuel exhausted after {fuel} instructions",
            fuel,
        )
        assert direct == ("restart",)


def test_runtime_faults_identical_division_by_zero():
    source = """
    func main(n: int) -> int {
        var s: int = 0;
        for (var i: int = 0; i < n; i = i + 1) {
            s = s + 100 / (n - i - 4);
        }
        return s;
    }
    """
    expected, direct = assert_engines_agree(compile_source(source), [10])
    assert expected[:3] == ("error", "VMDivisionByZero", "division by zero")
    assert direct == ("restart",)


def test_runtime_faults_identical_array_out_of_bounds():
    source = """
    func main(n: int) -> int {
        var a: array = array(4);
        var s: int = 0;
        for (var i: int = 0; i < n; i = i + 1) {
            s = s + int(a[i]);
        }
        return s;
    }
    """
    expected, direct = assert_engines_agree(compile_source(source), [10])
    assert expected[:2] == ("error", "VMIndexError")
    assert direct == ("restart",)


def test_slow_paths_agree_on_strings_and_floats():
    source = """
    func main(n: int) -> string {
        var s: string = "";
        var x: float = 0.25;
        for (var i: int = 0; i < n; i = i + 1) {
            s = s + "ab";
            x = x + 1.5;
        }
        if (x > 3.0) { return s; }
        return "small";
    }
    """
    program = compile_source(source)
    for n in (0, 1, 5):
        expected, direct = assert_engines_agree(program, [n])
        assert expected[0] == "ok" and direct[0] == "ok"


def test_join_in_the_middle_of_a_statement_translates_and_agrees():
    # Position 7 is reached with one operand already pushed, from the
    # jump at 5 and by falling out of 6: equal depths, so it translates.
    listing = """
    .constants 2
      k0 = 1
      k1 = 10
    .func main params=1 locals=2 returns=value
      0  PUSH_CONST 1
      1  STORE 1
      2  LOAD 0
      3  JUMP_IF_FALSE 6
      4  LOAD 1
      5  JUMP 7
     L6  LOAD 1
     L7  PUSH_CONST 0
      8  ADD
      9  STORE 1
     10  LOAD 1
     11  RET
    .end
    """
    program = assemble(listing)
    for flag in (True, False):
        expected, direct = assert_engines_agree(program, [flag])
        assert expected[:2] == ("ok", 11) and direct[0] == "ok"


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


def test_profiled_executor_stays_on_the_portable_vm():
    for source, args in ((COUNT_LOOP, [200]), (kernels.PRIME_COUNT, [300])):
        program = compile_source(source)
        baseline = TVM(program, profile=True)
        baseline.run("main", list(args))
        executor = TaskletExecutor(profile=True)
        outcome = executor.execute(local_assignment(program, list(args)))
        # A profile counts opcodes, which only the interpreter retires.
        assert executor.translated_runs == executor.restarts == 0
        assert outcome.profile.opcodes == baseline.profile.opcodes
        assert outcome.profile.opcode_groups == baseline.profile.opcode_groups
        assert outcome.profile.instructions == baseline.profile.instructions


def test_executor_translates_by_default_and_portable_agrees():
    program = compile_source(COUNT_LOOP)
    request = local_assignment(program, [500])
    translating, portable = TaskletExecutor(), TaskletExecutor(cache_size=0)
    translated = translating.execute(request)
    baseline = portable.execute(request)
    assert translated.ok and baseline.ok
    assert translated.value == baseline.value == 1500
    assert translated.instructions == baseline.instructions
    assert (translating.translated_runs, portable.translated_runs) == (1, 0)


def test_executor_cached_program_reuses_translation():
    program = compile_source(COUNT_LOOP)
    executor = TaskletExecutor()
    first = executor.execute(local_assignment(program, [10]))
    (cached,) = executor._cache.values()
    second = executor.execute(local_assignment(program, [10]))
    assert first.ok and second.ok
    assert executor.cache_hits == 1 and executor.translated_runs == 2
    assert list(executor._cache.values()) == [cached]
    assert first.instructions == second.instructions


def test_executor_error_reporting_identical():
    source = "func main(n: int) -> int { return 1 / n; }"
    program = compile_source(source)
    translating, portable = TaskletExecutor(), TaskletExecutor(cache_size=0)
    with_translation = translating.execute(local_assignment(program, [0]))
    without = portable.execute(local_assignment(program, [0]))
    assert not with_translation.ok and not without.ok
    assert with_translation.error == without.error
    assert (translating.restarts, portable.restarts) == (1, 0)


def test_stack_limit_still_enforced_when_translated():
    # Runaway recursion ends at max_call_depth in the interpreter's words,
    # not in a Python RecursionError.
    source = """
    func grow(n: int) -> int {
        if (n <= 0) { return 0; }
        return n + grow(n - 1);
    }
    func main(n: int) -> int { return grow(n); }
    """
    expected, direct = assert_engines_agree(compile_source(source), [5000])
    assert expected[:3] == ("error", "VMStackOverflow", "call depth exceeded 256")
    assert direct == ("restart",)


def test_translated_reports_entry_arity_like_the_vm():
    program = compile_source(COUNT_LOOP)
    for args in ([], [1, 2]):
        expected, direct = assert_engines_agree(program, args)
        assert expected[:2] == ("error", "VMError") and direct == ("restart",)
    assert run_portable(program, [3], entry="nope")[1] == "VMInvalidProgram"
    assert_engines_agree(program, [3], entry="nope")
