"""Translated execution: equivalence with the portable VM, and invariants.

The translated path must be observationally identical to the portable
engine: same results, same errors (type *and* message), same
``ExecutionStats.instructions`` on success, on runtime faults, and on
fuel exhaustion — that count feeds billing, the virtual service-time
model, and redundant-execution voting.  The portable representation
(wire format, ``fingerprint()``) must be untouched by translation.
``tests/tvm/engines.py`` says what is compared and how.
"""

import re

from repro.core import kernels
from repro.provider.executor import TaskletExecutor, local_assignment
from repro.tvm.assembler import assemble
from repro.tvm.astinterp import AstInterpreter
from repro.tvm.bytecode import CompiledProgram
from repro.tvm.compiler import compile_source
from repro.tvm.parser import parse
from repro.tvm.semantics import analyze
from repro.tvm.translate import translate
from repro.tvm.vm import TVM

from tests.tvm.engines import KERNEL_CASES, assert_engines_agree, run_portable

COUNT_LOOP = """
func main(n: int) -> int {
    var s: int = 0;
    for (var i: int = 0; i < n; i = i + 1) {
        s = s + 3;
    }
    return s;
}
"""


# ---------------------------------------------------------------------------
# The translation itself
# ---------------------------------------------------------------------------


def test_translation_elides_only_the_guards_it_has_proven():
    program = compile_source(COUNT_LOOP)
    program.verify()
    (source,) = translate(program).sources
    # s and i start from int constants and only ever have an int added,
    # so the loop body needs no type test; n is a parameter and is
    # guarded where it is compared.
    assert re.search(r"v1 = v1 \+ k\d\n", source)
    assert re.search(r"v2 = v2 \+ k\d\n", source)
    assert "type(v1)" not in source and "type(v2)" not in source
    assert "type(v0) is not int and type(v0) is not float: raise R" in source


def test_fuel_charges_cover_every_reachable_instruction_once():
    program = compile_source(kernels.PRIME_COUNT)
    program.verify()
    translation = translate(program)
    for function, source in zip(program.functions, translation.sources):
        charged = sum(int(n) for n in re.findall(r"fuel -= (\d+)", source))
        # The compiler's implicit ``PUSH_NONE; RET`` tail is unreachable
        # in a value-returning function and must not be emitted.
        assert charged == len(function.code) - 2, function.name


def test_function_entry_and_every_loop_head_test_fuel():
    # Without the test at a loop head ``while (true) {}`` would spin on a
    # negative budget for ever; a behavioural test of that cannot end.
    listing = """
    .func main params=0 locals=0 returns=void
      0  JUMP 1
     L1  JUMP 2
     L2  JUMP 1
    .end
    """
    (source,) = translate(assemble(listing)).sources
    for head in (0, 1):  # the entry, and the target of the back edge at 2
        block = f"if pc == {head}:\n            fuel -= 1\n            if fuel < 0: raise R"
        assert block in source
    assert "if pc == 2:\n            fuel -= 1\n            pc = 1" in source
    nested = translate(compile_source(kernels.MANDELBROT_ROW)).sources[0]
    assert nested.count("if fuel < 0: raise R") == 3  # entry + two loop heads


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
