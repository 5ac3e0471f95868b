"""Compound assignment operators: += -= *= /= %=."""

import pytest

from repro.common.errors import ParserError, SemanticError
from repro.tvm.compiler import compile_source
from repro.tvm.vm import execute

from tests.tvm.astinterp import interpret_source


def run_main(source, args=None):
    return execute(compile_source(source), "main", args or [])[0]


def test_all_compound_operators():
    source = """
    func main() -> int {
        var x: int = 100;
        x += 7;   // 107
        x -= 2;   // 105
        x *= 3;   // 315
        x /= 2;   // 157 (C truncation)
        x %= 100; // 57
        return x;
    }
    """
    assert run_main(source) == 57


def test_float_compound():
    source = """
    func main() -> float {
        var x: float = 1.0;
        x += 0.5;
        x *= 4.0;
        return x;
    }
    """
    assert run_main(source) == 6.0


def test_string_concat_compound():
    source = """
    func main() -> string {
        var s: string = "a";
        s += "b";
        s += "c";
        return s;
    }
    """
    assert run_main(source) == "abc"


def test_compound_in_for_step():
    source = """
    func main(n: int) -> int {
        var total: int = 0;
        for (var i: int = 0; i < n; i += 2) { total += i; }
        return total;
    }
    """
    assert run_main(source, [10]) == 0 + 2 + 4 + 6 + 8


def test_right_side_is_full_expression():
    source = """
    func main() -> int {
        var x: int = 10;
        x += 2 * 3 + 1;
        return x;
    }
    """
    assert run_main(source) == 17


def test_desugaring_matches_explicit_form():
    compound = "func main(n: int) -> int { var x: int = 1; x += n; return x; }"
    explicit = "func main(n: int) -> int { var x: int = 1; x = x + n; return x; }"
    assert run_main(compound, [5]) == run_main(explicit, [5])
    # Both engines agree too.
    assert interpret_source(compound, args=[5]) == 6


def test_indexed_target_rejected():
    with pytest.raises(ParserError) as info:
        compile_source("func main() { var a: array = [1]; a[0] += 1; }")
    assert "simple variables" in str(info.value)


def test_type_checking_applies_to_desugared_form():
    with pytest.raises(SemanticError):
        compile_source('func main() { var x: int = 1; x += "s"; }')


def test_undeclared_target_rejected():
    with pytest.raises(SemanticError):
        compile_source("func main() { ghost += 1; }")


def test_compound_divide_by_zero_is_runtime_error():
    from repro.common.errors import VMDivisionByZero

    with pytest.raises(VMDivisionByZero):
        run_main("func main(z: int) -> int { var x: int = 4; x /= z; return x; }", [0])
