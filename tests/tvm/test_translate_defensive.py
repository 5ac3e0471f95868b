"""Untrusted bytecode never reaches ``exec`` unvetted.

``CompiledProgram.verify`` checks operands, jump ranges and stack
discipline, not types or initialisation — and a provider executes
strangers' bytecode.  The stack-discipline shapes here are refused by
``verify()`` before any engine sees them, and the translator, called on
them *unverified*, still declines on its own analysis.  Every other
shape is something the verifier admits and the compiler never emits;
each must be *declined* (stays on the portable VM) or *restart* there,
and in both cases the executor's outcome must be the portable VM's,
exactly (``tests/tvm/engines.py``).  The second half pins the
source-injection rule: nothing a program carries except range-checked
integers appears in generated source.
"""

import enum
import math
from unittest import mock

import pytest

from repro.common.errors import VMInvalidProgram
from repro.core.results import ExecutionStatus
from repro.provider.executor import TaskletExecutor, local_assignment
from repro.tvm.bytecode import CompiledProgram, FunctionCode, Instruction
from repro.tvm.opcodes import Op
from repro.tvm.translate import MAX_TRANSLATED_SIZE, translate

from tests.tvm.assembler import assemble
from tests.tvm.engines import assert_engines_agree, run_portable, run_translated


def agree(listing, args=(), **options):
    return assert_engines_agree(assemble(listing), list(args), **options)


def engines(listing, args):
    """The portable and the translated outcome for arguments no wire
    carries (``agree`` also runs an executor, which packs them)."""
    program = assemble(listing)
    return run_portable(program, args), run_translated(program, args)


# ---------------------------------------------------------------------------
# Stack discipline: refused at load, and declined if it ever got past that
# ---------------------------------------------------------------------------


def refused(listing):
    """``verify()`` refuses ``listing`` and so does the executor, typed;
    the translator declines it unverified.  Returns the refusal text."""
    with mock.patch.object(CompiledProgram, "verify"):  # assemble() verifies
        program = assemble(listing)
    with pytest.raises(VMInvalidProgram) as refusal:
        program.verify()
    assert translate(program) is None
    outcome = TaskletExecutor().execute(local_assignment(program, []))
    assert outcome.status is ExecutionStatus.VM_ERROR
    assert outcome.error == f"VMInvalidProgram: {refusal.value}"
    return str(refusal.value)


def test_join_with_unequal_stack_depths_is_declined():
    # Position 5 is reached with one entry (from 3) or two (through 4).
    listing = """
    .constants 1
      k0 = 7
    .func main params=1 locals=1 returns=value
      0  PUSH_CONST 0
      1  LOAD 0
      2  JUMP_IF_FALSE 4
      3  JUMP 5
     L4  PUSH_CONST 0
     L5  RET
    .end
    """
    assert refused(listing).startswith("main@5: operand-stack depth differs")
    growing = """
    .constants 1
      k0 = 1
    .func main params=0 locals=0 returns=value
     L0  PUSH_CONST 0
      1  JUMP 0
    .end
    """
    assert refused(growing).startswith("main@0: operand-stack depth differs")


def test_operand_stack_underflow_is_declined():
    listing = """
    .constants 1
      k0 = 1
    .func main params=0 locals=0 returns=value
      0  PUSH_CONST 0
      1  ADD
      2  RET
    .end
    """
    assert refused(listing).startswith("main@1: ADD pops 2 with 1")


def test_jump_into_the_middle_of_an_expression_is_declined():
    # 0 jumps to the ADD at 4 with an empty stack; falling into it from 3
    # there are two operands.
    listing = """
    .constants 1
      k0 = 2
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  JUMP_IF_TRUE 4
      2  PUSH_CONST 0
      3  PUSH_CONST 0
     L4  ADD
      5  RET
    .end
    """
    assert "main@4" in refused(listing)


def test_unreachable_tail_is_ignored_not_translated():
    # Nothing reaches 2..4: its underflowing ADD must neither be emitted
    # nor make the translator decline the reachable part.
    listing = """
    .constants 1
      k0 = 5
    .func main params=0 locals=0 returns=value
      0  PUSH_CONST 0
      1  RET
      2  ADD
      3  STORE_INDEX
      4  RET
    .end
    """
    expected, direct = agree(listing)
    assert expected == direct == ("ok", 5, 2)
    (source,) = translate(assemble(listing)).sources
    assert "+" not in source and "index_set" not in source


def test_static_depth_that_could_reach_max_stack_is_declined():
    # 17 entries per frame x 256 frames > 4096: the interpreter's operand
    # stack limit could fire, and the translation does not model it.
    pushes = "\n".join(f"      {i}  PUSH_CONST 0" for i in range(17))
    listing = f"""
    .constants 1
      k0 = 1
    .func main params=0 locals=0 returns=value
{pushes}
      17  BUILD_ARRAY 17
      18  RET
    .end
    """
    expected, direct = agree(listing)
    assert direct == ("declined",) and expected[:2] == ("ok", [1] * 17)


def test_oversized_programs_are_declined_before_any_work():
    body = [Instruction(Op.PUSH_NONE), Instruction(Op.RET)]
    wide = CompiledProgram([FunctionCode("main", 0, 10**9, False, body)], [])
    wide.verify()
    assert translate(wide) is None  # and did not build a 10**9-bit mask
    long = CompiledProgram(
        [FunctionCode("main", 0, 0, False, body * (MAX_TRANSLATED_SIZE // 2 + 1))], []
    )
    long.verify()
    assert translate(long) is None


# ---------------------------------------------------------------------------
# Values the compiler's type discipline would have excluded: restart
# ---------------------------------------------------------------------------


def test_void_flowing_into_arithmetic_restarts():
    listing = """
    .constants 1
      k0 = 1
    .func main params=0 locals=0 returns=value
      0  PUSH_NONE
      1  PUSH_CONST 0
      2  ADD
      3  RET
    .end
    """
    expected, direct = agree(listing)
    assert direct == ("restart",) and expected[1] == "VMTypeError"


def test_void_is_only_ever_popped_duplicated_or_returned():
    # Comparing two void values is *not* an error in the interpreter; the
    # translation restarts rather than model it, and still agrees.
    compared = """
    .func main params=0 locals=0 returns=value
      0  PUSH_NONE
      1  DUP
      2  EQ
      3  RET
    .end
    """
    expected, direct = agree(compared)
    assert direct == ("restart",) and expected[:2] == ("ok", True)
    # Stored, a void value un-initialises the local it lands in.
    stored = """
    .func main params=0 locals=1 returns=value
      0  PUSH_NONE
      1  STORE 0
      2  LOAD 0
      3  RET
    .end
    """
    expected, direct = agree(stored)
    assert direct == ("restart",) and "uninitialised" in expected[2]
    # Returned (from a callee, then from main) it needs no guard at all.
    returned = """
    .func helper params=0 locals=0 returns=void
      0  PUSH_NONE
      1  DUP
      2  POP
      3  RET
    .end
    .func main params=0 locals=0 returns=void
      0  CALL 0
      1  RET
    .end
    """
    expected, direct = agree(returned)
    assert expected == direct == ("ok", None, 6)
    # Passed as an argument it would be an uninitialised parameter.
    passed = """
    .func identity params=1 locals=1 returns=value
      0  LOAD 0
      1  RET
    .end
    .func main params=0 locals=0 returns=value
      0  PUSH_NONE
      1  CALL 0
      2  RET
    .end
    """
    expected, direct = agree(passed)
    assert direct == ("restart",) and "uninitialised" in expected[2]


def test_non_bool_branch_condition_restarts():
    listing = """
    .constants 1
      k0 = 1
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  JUMP_IF_FALSE 3
      2  JUMP 3
     L3  PUSH_CONST 0
      4  RET
    .end
    """
    assert agree(listing, [True])[1][0] == "ok"
    for condition in (1, 0, "yes", [True]):
        expected, direct = agree(listing, [condition])
        assert direct == ("restart",)
        assert expected[1:3] == (
            "VMTypeError",
            f"condition must be bool, got {type(condition).__name__}",
        )


def test_uninitialised_local_read_restarts():
    unused = """
    .constants 1
      k0 = 3
    .func main params=0 locals=1 returns=value
      0  LOAD 0
      1  POP
      2  PUSH_CONST 0
      3  RET
    .end
    """
    # The value is never used, and the read still faults.
    expected, direct = agree(unused)
    assert direct == ("restart",)
    assert expected[:3] == ("error", "VMError", "read of uninitialised local slot 0")
    one_path_only = """
    .constants 1
      k0 = 3
    .func main params=1 locals=2 returns=value
      0  LOAD 0
      1  JUMP_IF_FALSE 4
      2  PUSH_CONST 0
      3  STORE 1
     L4  LOAD 1
      5  RET
    .end
    """
    assert agree(one_path_only, [True]) == (("ok", 3, 6), ("ok", 3, 6))
    expected, direct = agree(one_path_only, [False])
    assert direct == ("restart",) and "slot 1" in expected[2]


def test_bool_is_not_a_number_in_any_operator():
    for op in ("ADD", "SUB", "MUL", "DIV", "MOD", "LT", "GE"):
        listing = f"""
        .constants 1
          k0 = 1
        .func main params=1 locals=1 returns=value
          0  LOAD 0
          1  PUSH_CONST 0
          2  {op}
          3  RET
        .end
        """
        assert agree(listing, [2])[1][0] == "ok", op
        expected, direct = agree(listing, [True])
        assert direct == ("restart",) and expected[1] == "VMTypeError", op
    negated = """
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  NEG
      2  RET
    .end
    """
    assert agree(negated, [2.5])[1][:2] == ("ok", -2.5)
    assert agree(negated, [False])[1] == ("restart",)


def test_values_of_inexact_types_stay_on_the_portable_vm():
    class Level(enum.IntEnum):
        HIGH = 3

    listing = """
    .constants 1
      k0 = 4
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  PUSH_CONST 0
      2  MUL
      3  RET
    .end
    """
    # An int subclass is a legal Tasklet value to the interpreter, but
    # "type(x) is int" is the translation's whole notion of a number.
    # (Engine against engine: an executor opens its arguments from packed
    # bytes, which hold exact types only.)
    expected, direct = engines(listing, [Level.HIGH])
    assert expected[:2] == ("ok", 12) and direct == ("restart",)
    expected, direct = engines(listing, [{"not": "a value"}])
    assert expected[1] == "VMTypeError" and direct == ("restart",)
    executor = TaskletExecutor()  # packed, it is the int 3
    assert executor.execute(local_assignment(assemble(listing), [Level.HIGH])).value == 12
    assert executor.translated_runs == 1


def test_a_subclass_instance_cannot_ride_an_elided_guard():
    class Odd(int):
        def __abs__(self):
            return "ab"

    # abs() "returns a number", so its result is multiplied unguarded —
    # sound only because run() admits exact types and nothing else.
    listing = """
    .constants 1
      k0 = 2
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  CALL_BUILTIN 1
      2  PUSH_CONST 0
      3  MUL
      4  RET
    .end
    """
    assert agree(listing, [-3])[1][:2] == ("ok", 6)
    expected, direct = engines(listing, [Odd(3)])
    assert expected[1] == "VMTypeError" and direct == ("restart",)


def test_a_proven_number_is_forgotten_when_the_local_is_overwritten():
    overwritten = """
    .constants 3
      k0 = 1
      k1 = 'ab'
      k2 = 2
    .func main params=0 locals=1 returns=value
      0  PUSH_CONST 0
      1  STORE 0
      2  PUSH_CONST 1
      3  STORE 0
      4  LOAD 0
      5  PUSH_CONST 2
      6  MUL
      7  RET
    .end
    """
    expected, direct = agree(overwritten)
    assert expected[1] == "VMTypeError" and direct == ("restart",)
    # Proven on one path into a join is not proven after it.
    one_path_only = """
    .constants 3
      k0 = 1
      k1 = 'ab'
      k2 = 2
    .func main params=1 locals=2 returns=value
      0  PUSH_CONST 0
      1  STORE 1
      2  LOAD 0
      3  JUMP_IF_FALSE 6
      4  PUSH_CONST 1
      5  STORE 1
     L6  LOAD 1
      7  PUSH_CONST 2
      8  MUL
      9  RET
    .end
    """
    assert agree(one_path_only, [False])[1][:2] == ("ok", 2)
    expected, direct = agree(one_path_only, [True])
    assert expected[1] == "VMTypeError" and direct == ("restart",)


def test_entries_aliasing_a_local_keep_its_old_value_across_a_store():
    listing = """
    .constants 1
      k0 = 5
    .func main params=1 locals=1 returns=value
      0  LOAD 0
      1  DUP
      2  PUSH_CONST 0
      3  STORE 0
      4  ADD
      5  LOAD 0
      6  ADD
      7  RET
    .end
    """
    expected, direct = agree(listing, [20])
    assert expected == direct == ("ok", 45, 8)  # 20 + 20 + 5


def test_tight_loops_end_by_fuel_exactly_as_interpreted():
    spin = """
    .func main params=0 locals=0 returns=void
     L0  JUMP 1
     L1  JUMP 0
    .end
    """
    expected, direct = agree(spin, fuel=10_000)
    assert direct == ("restart",)
    assert expected == (
        "error", "VMFuelExhausted", "fuel exhausted after 10000 instructions", 10_000
    )


# ---------------------------------------------------------------------------
# The source-injection rule
# ---------------------------------------------------------------------------

HOSTILE = '"]); __import__("os")#\n'


def hostile_program():
    code = [
        Instruction(Op.PUSH_CONST, 0),
        Instruction(Op.PUSH_CONST, 1),
        Instruction(Op.PUSH_CONST, 2),
        Instruction(Op.BUILD_ARRAY, 3),
        Instruction(Op.RET),
    ]
    return CompiledProgram(
        [
            FunctionCode(f"main{HOSTILE}", 0, 0, True, code),
            FunctionCode("__import__('os').system('true')", 0, 0, True, code),
        ],
        [HOSTILE, float("nan"), float("inf")],
    )


def test_constants_and_names_are_bound_by_reference_never_interpolated():
    program = hostile_program()
    program.verify()
    translation = translate(program)
    source = "\n".join(translation.sources)
    for token in ("import", "os", '"', "'", "nan", "inf", "main", "system"):
        assert token not in source, token
    # Every program-derived token is a decimal integer next to a letter
    # this module chose.
    for line in source.splitlines():
        assert line.isascii() and "\\" not in line
    value, instructions = translation.run(f"main{HOSTILE}", [], 100)
    assert value[0] == HOSTILE and math.isnan(value[1]) and value[2] == math.inf
    assert instructions == 5


def test_generated_code_runs_without_builtins():
    program = hostile_program()
    program.verify()
    function, _ = translate(program)._entries[f"main{HOSTILE}"]
    assert function.__globals__["__builtins__"] == {}
    with pytest.raises(NameError):
        eval("__import__('os')", function.__globals__)


def test_non_scalar_constants_are_declined():
    # A wire program may carry any JSON value as a constant; a shared
    # mutable one would leak state from an abandoned run into its restart.
    code = [Instruction(Op.PUSH_CONST, 0), Instruction(Op.RET)]
    for constant in ([1, 2], None, {"a": 1}):
        program = CompiledProgram([FunctionCode("main", 0, 0, True, code)], [constant])
        expected, direct = assert_engines_agree(program, [])
        assert direct == ("declined",) and expected[:2] == ("ok", constant)
