"""Reference AST interpreter: unit behaviour beyond the differential suite."""

import pytest

from repro.common.errors import VMError
from repro.core import kernels
from repro.tvm.parser import parse
from repro.tvm.semantics import analyze

from tests.tvm.astinterp import AstInterpreter, interpret_source


def test_basic_execution():
    assert interpret_source("func main(n: int) -> int { return n + 1; }", args=[4]) == 5


def test_void_function_returns_none():
    assert interpret_source("func main() { var x: int = 1; }") is None


def test_recursion():
    assert interpret_source(kernels.FIBONACCI, args=[10]) == 55


def test_break_continue_semantics():
    source = """
    func main() -> int {
        var total: int = 0;
        for (var i: int = 0; i < 100; i += 1) {
            if (i % 3 == 0) { continue; }
            if (i > 10) { break; }
            total += i;
        }
        return total;
    }
    """
    assert interpret_source(source) == 1 + 2 + 4 + 5 + 7 + 8 + 10


def test_while_break_and_nested_loops():
    source = """
    func main() -> int {
        var count: int = 0;
        var i: int = 0;
        while (true) {
            i += 1;
            for (var j: int = 0; j < 5; j += 1) {
                if (j == 3) { break; }
                count += 1;
            }
            if (i == 4) { break; }
        }
        return count;
    }
    """
    assert interpret_source(source) == 12  # 4 outer x 3 inner


def test_unknown_entry_raises():
    program = analyze(parse("func main() -> int { return 1; }"))
    with pytest.raises(VMError):
        AstInterpreter(program).run("ghost")


def test_arity_mismatch_raises():
    with pytest.raises(VMError):
        interpret_source("func main(a: int) -> int { return a; }", args=[1, 2])


def test_runtime_type_error_via_any():
    with pytest.raises(VMError):
        interpret_source(
            "func main(xs: array) -> int { return xs[0] + 1; }", args=[["str"]]
        )


def test_step_budget_stops_infinite_loops():
    program = analyze(parse("func main() -> int { while (true) {} return 0; }"))
    interpreter = AstInterpreter(program, max_steps=10_000)
    with pytest.raises(VMError):
        interpreter.run("main")


def test_seeded_randomness_matches_vm_contract():
    source = "func main() -> float { return rand() + rand(); }"
    assert interpret_source(source, seed=3) == interpret_source(source, seed=3)
    assert interpret_source(source, seed=3) != interpret_source(source, seed=4)


def test_arrays_alias_like_the_vm():
    source = """
    func mutate(xs: array) { xs[0] = 99; }
    func main() -> array {
        var a: array = [1, 2];
        mutate(a);
        return a;
    }
    """
    assert interpret_source(source) == [99, 2]


def test_condition_must_be_bool_at_runtime():
    with pytest.raises(VMError):
        interpret_source(
            "func main(xs: array) -> int { if (xs[0]) { return 1; } return 0; }",
            args=[[1]],
        )
