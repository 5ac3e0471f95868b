"""Compiler: lowering correctness, constant pooling, jump patching."""

from repro.tvm.bytecode import CompiledProgram
from repro.tvm.compiler import compile_source
from repro.tvm.disassembler import disassemble
from repro.tvm.opcodes import Op
from repro.tvm.vm import execute


def ops_of(program: CompiledProgram, name: str = "main") -> list[Op]:
    return [instruction.op for instruction in program.function(name).code]


def test_trivial_function_shape():
    program = compile_source("func main() -> int { return 7; }")
    assert ops_of(program) == [Op.PUSH_CONST, Op.RET]


def test_a_body_that_can_end_without_return_keeps_the_implicit_void_return():
    falls_off = compile_source("func main() { var x: int = 1; }")
    assert ops_of(falls_off)[-2:] == [Op.PUSH_NONE, Op.RET]
    assert execute(falls_off, "main")[0] is None
    # Both branches return, but the then-branch's jump over the else
    # targets the end: the tail stays where a jump may land.
    branches = compile_source(
        "func main(c: bool) -> int { if (c) { return 1; } else { return 2; } }"
    )
    assert ops_of(branches)[-2:] == [Op.PUSH_NONE, Op.RET]
    assert [execute(branches, "main", [c])[0] for c in (True, False)] == [1, 2]


def test_constants_are_deduplicated():
    program = compile_source(
        "func main() -> int { return 5 + 5 + 5; }"
    )
    assert program.constants.count(5) == 1


def test_int_and_float_constants_are_distinct():
    program = compile_source(
        "func main() -> float { var a: float = 1.0; return a + 1; }"
    )
    ints = [c for c in program.constants if type(c) is int]
    floats = [c for c in program.constants if type(c) is float]
    assert 1 in ints
    assert 1.0 in floats


def test_true_false_constants_distinct_from_ints():
    program = compile_source(
        "func main() -> bool { var t: bool = true; var one: int = 1; return t; }"
    )
    assert any(c is True for c in program.constants)


def test_every_program_passes_its_own_verification():
    program = compile_source(
        """
        func helper(n: int) -> int {
            var total: int = 0;
            for (var i: int = 0; i < n; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 100) { break; }
                total = total + i;
            }
            return total;
        }
        func main(n: int) -> int { return helper(n) + helper(n * 2); }
        """
    )
    program.verify()  # must not raise


def test_short_circuit_and_compiles_to_jumps():
    program = compile_source("func main(b: bool) -> bool { return b && b; }")
    assert Op.JUMP_IF_FALSE in ops_of(program)


def test_short_circuit_or_compiles_to_jumps():
    program = compile_source("func main(b: bool) -> bool { return b || b; }")
    assert Op.JUMP_IF_TRUE in ops_of(program)


def test_short_circuit_skips_right_operand():
    # Division by zero on the right must not be evaluated.
    program = compile_source(
        "func main(x: int) -> bool { return x == 0 || 10 / x > 1; }"
    )
    result, _ = execute(program, "main", [0])
    assert result is True


def test_call_operand_is_function_index():
    program = compile_source(
        "func a() -> int { return 1; } func main() -> int { return a(); }"
    )
    call = next(i for i in program.function("main").code if i.op is Op.CALL)
    assert call.operand == program.function_index("a")


def test_for_loop_continue_jumps_to_step():
    # continue in a for-loop must execute the step (C semantics); if it
    # jumped to the condition instead, this would loop forever (caught by
    # fuel, failing the test).
    program = compile_source(
        """
        func main() -> int {
            var total: int = 0;
            for (var i: int = 0; i < 10; i = i + 1) {
                if (i % 2 == 1) { continue; }
                total = total + i;
            }
            return total;
        }
        """
    )
    result, _ = execute(program, "main")
    assert result == 0 + 2 + 4 + 6 + 8


def test_while_break_exits_immediately():
    program = compile_source(
        """
        func main() -> int {
            var i: int = 0;
            while (true) {
                i = i + 1;
                if (i == 5) { break; }
            }
            return i;
        }
        """
    )
    assert execute(program, "main")[0] == 5


def test_nested_loops_patch_their_own_break():
    program = compile_source(
        """
        func main() -> int {
            var count: int = 0;
            for (var i: int = 0; i < 3; i = i + 1) {
                for (var j: int = 0; j < 10; j = j + 1) {
                    if (j == 2) { break; }
                    count = count + 1;
                }
            }
            return count;
        }
        """
    )
    assert execute(program, "main")[0] == 6  # 3 outer x 2 inner


def test_expression_statement_pops_result():
    program = compile_source(
        "func main() -> int { len([1, 2]); return 3; }"
    )
    assert Op.POP in ops_of(program)
    assert execute(program, "main")[0] == 3


def test_source_is_attached_but_not_required():
    source = "func main() -> int { return 1; }"
    program = compile_source(source)
    assert program.source == source
    stripped = CompiledProgram.from_dict(program.to_dict())
    assert stripped.source is None
    assert execute(stripped, "main")[0] == 1


def test_disassembly_mentions_constants_functions_and_builtins():
    program = compile_source(
        "func helper() -> float { return sqrt(2.0); } "
        "func main() -> float { return helper(); }"
    )
    text = disassemble(program)
    assert ".func helper" in text
    assert ".func main" in text
    assert "sqrt/1" in text
    assert "; helper" in text
    assert "2.0" in text


def test_disassembly_is_stable_for_same_source():
    source = "func main(n: int) -> int { return n * n + 1; }"
    assert disassemble(compile_source(source)) == disassemble(compile_source(source))
