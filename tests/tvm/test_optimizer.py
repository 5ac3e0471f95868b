"""Bytecode optimizer: equivalence, effectiveness, edge cases."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.tvm.astinterp import AstInterpreter
from repro.tvm.compiler import compile_ast, compile_source
from repro.tvm.opcodes import Op
from repro.tvm.optimizer import optimize_program
from repro.tvm.parser import parse
from repro.tvm.semantics import analyze
from repro.tvm.vm import execute


def instruction_count(program) -> int:
    return sum(len(function.code) for function in program.functions)


def ops_of(program, name="main"):
    return [instruction.op for instruction in program.function(name).code]


class TestFolding:
    def test_arithmetic_chain_folds_to_one_constant(self):
        program = compile_source(
            "func main() -> int { return 1 + 2 * 3 - 4; }", optimize=True
        )
        assert ops_of(program)[:2] == [Op.PUSH_CONST, Op.RET]
        assert execute(program, "main")[0] == 3

    def test_division_semantics_preserved(self):
        program = compile_source(
            "func main() -> int { return (0 - 7) / 2; }", optimize=True
        )
        assert execute(program, "main")[0] == -3  # C truncation, folded

    def test_division_by_zero_not_folded(self):
        # Folding must not turn a runtime error into a compile-time crash.
        source = "func main() -> int { return 1 / 0; }"
        program = compile_source(source, optimize=True)
        assert Op.DIV in ops_of(program)
        from repro.common.errors import VMDivisionByZero

        with pytest.raises(VMDivisionByZero):
            execute(program, "main")

    def test_comparison_and_not_fold(self):
        program = compile_source(
            "func main() -> bool { return !(2 < 1); }", optimize=True
        )
        assert ops_of(program)[:2] == [Op.PUSH_CONST, Op.RET]
        assert execute(program, "main")[0] is True

    def test_negation_folds(self):
        program = compile_source("func main() -> int { return -(3 + 4); }", optimize=True)
        assert ops_of(program)[:2] == [Op.PUSH_CONST, Op.RET]
        assert execute(program, "main")[0] == -7

    def test_string_concat_folds(self):
        program = compile_source(
            'func main() -> string { return "a" + "b" + "c"; }', optimize=True
        )
        assert execute(program, "main")[0] == "abc"
        assert ops_of(program)[:2] == [Op.PUSH_CONST, Op.RET]

    def test_int_float_distinction_survives_folding(self):
        program = compile_source(
            "func main() -> float { return 1 + 1 + 0.5; }", optimize=True
        )
        value, _ = execute(program, "main")
        assert value == 2.5
        assert type(value) is float

    def test_folding_reduces_instruction_count(self):
        source = "func main() -> float { return 2.0 * 3.1415 * 10.0 * 10.0; }"
        plain = compile_source(source)
        optimized = compile_source(source, optimize=True)
        assert instruction_count(optimized) < instruction_count(plain)


class TestControlFlow:
    def test_dead_code_after_return_removed(self):
        source = """
        func main() -> int {
            return 1;
        }
        """
        # The compiler's implicit void tail (PUSH_NONE; RET) is
        # unreachable here and must be eliminated.
        plain = compile_source(source)
        optimized = compile_source(source, optimize=True)
        assert instruction_count(optimized) < instruction_count(plain)
        assert execute(optimized, "main")[0] == 1

    def test_loops_still_work(self):
        source = """
        func main(n: int) -> int {
            var total: int = 0;
            for (var i: int = 0; i < n; i = i + 1) {
                if (i % 2 == 0) { continue; }
                total = total + i * (1 + 1);
            }
            return total;
        }
        """
        optimized = compile_source(source, optimize=True)
        plain = compile_source(source)
        assert execute(optimized, "main", [10])[0] == execute(plain, "main", [10])[0]

    def test_optimizer_is_idempotent(self):
        program = compile_source(kernels.MANDELBROT_ROW, optimize=True)
        again = optimize_program(program)
        assert again.fingerprint() == program.fingerprint()


class TestPeepholes:
    def test_not_jump_if_false_flips_to_jump_if_true(self):
        source = (
            "func main(a: int, b: int) -> int "
            "{ if (!(a < b)) { return 1; } return 2; }"
        )
        optimized = compile_source(source, optimize=True)
        ops = ops_of(optimized)
        assert Op.NOT not in ops
        assert Op.JUMP_IF_TRUE in ops
        for a, b in ((1, 2), (2, 1), (3, 3)):
            plain = compile_source(source)
            assert (
                execute(optimized, "main", [a, b])[0]
                == execute(plain, "main", [a, b])[0]
            )

    def test_not_jump_if_true_mirror_flips_to_jump_if_false(self):
        # Short-circuit `||` compiles its left operand to JUMP_IF_TRUE,
        # so `!(...) || ...` produces the mirror pair.
        source = (
            "func main(a: int, b: int) -> int "
            "{ if (!(a < b) || a == 9) { return 1; } return 2; }"
        )
        optimized = compile_source(source, optimize=True)
        assert Op.NOT not in ops_of(optimized)
        for a, b in ((1, 2), (2, 1), (9, 10)):
            plain = compile_source(source)
            assert (
                execute(optimized, "main", [a, b])[0]
                == execute(plain, "main", [a, b])[0]
            )

    def test_dup_pop_pair_deleted(self):
        from repro.tvm.assembler import assemble

        listing = """
        .constants 1
          k0 = 7
        .func main params=0 locals=0 returns=value
          0  PUSH_CONST 0
          1  DUP
          2  POP
          3  RET
        .end
        """
        optimized = optimize_program(assemble(listing))
        assert Op.DUP not in ops_of(optimized)
        assert Op.POP not in ops_of(optimized)
        assert execute(optimized, "main")[0] == 7

    def test_pure_push_pop_pair_deleted(self):
        from repro.tvm.assembler import assemble

        listing = """
        .constants 2
          k0 = 1
          k1 = 9
        .func main params=0 locals=0 returns=value
          0  PUSH_CONST 0
          1  POP
          2  PUSH_CONST 1
          3  RET
        .end
        """
        optimized = optimize_program(assemble(listing))
        assert Op.POP not in ops_of(optimized)
        assert execute(optimized, "main")[0] == 9

    def test_pop_that_is_a_jump_target_survives(self):
        # The POP at 6 ends a PUSH;POP pair on the false path and is also
        # where the true path lands with a second value of its own;
        # deleting the pair would leave that value on top at RET, so the
        # peephole must refuse.
        from repro.tvm.assembler import assemble

        listing = """
        .constants 2
          k0 = 1
          k1 = 2
        .func main params=1 locals=1 returns=value
          0  PUSH_CONST 0
          1  LOAD 0
          2  JUMP_IF_FALSE 5
          3  PUSH_CONST 1
          4  JUMP 6
          5  PUSH_CONST 0
         L6  POP
          7  RET
        .end
        """
        program = assemble(listing)
        optimized = optimize_program(program)
        assert Op.POP in ops_of(optimized)
        for flag in (True, False):
            assert (
                execute(optimized, "main", [flag])[0]
                == execute(program, "main", [flag])[0]
            )


@pytest.mark.parametrize("name", sorted(kernels.ALL_KERNELS))
def test_all_kernels_unchanged_behaviour(name):
    cases = {
        "mandelbrot_row": [3, 20, 15, 25],
        "monte_carlo_pi": [400],
        "matmul_tile": [[1.0] * 9, [2.0] * 9, 3],
        "fibonacci": [12],
        "prime_count": [300],
        "numeric_integration": [0.0, 3.0, 100],
        "word_histogram": ["abc 123!"],
    }
    args = cases[name]
    plain = compile_source(kernels.ALL_KERNELS[name])
    optimized = optimize_program(plain)
    assert (
        execute(optimized, "main", list(args), seed=5)[0]
        == execute(plain, "main", list(args), seed=5)[0]
    )


# Reuse the random-program generator from the differential suite: the
# optimizer must preserve behaviour on arbitrary well-typed programs.
from tests.tvm.test_differential import program as random_program  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    random_program(),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
def test_optimized_agrees_with_ast_interpreter(source, a, b, c):
    analysed = analyze(parse(source))
    optimized = optimize_program(compile_ast(analysed))
    vm_result, _ = execute(optimized, "main", [a, b, c])
    ast_result = AstInterpreter(analysed).run("main", [a, b, c])
    assert vm_result == ast_result, source
