"""Differential testing: compiled VM vs reference AST interpreter.

Hypothesis generates random *well-typed, terminating* Tasklet programs;
both execution engines must agree exactly.  The generator deliberately
sticks to integer arithmetic with guarded division and literal loop
bounds, so generated programs never fault — disagreement therefore always
indicates a compiler or VM bug, not an expected error.
"""

from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.tvm.compiler import compile_ast, compile_source
from repro.tvm.parser import parse
from repro.tvm.semantics import analyze
from repro.tvm.vm import execute

from tests.tvm.astinterp import AstInterpreter, interpret_source

# ---------------------------------------------------------------------------
# Random-program generator
# ---------------------------------------------------------------------------

_VARS = ["a", "b", "c"]


@st.composite
def int_expr(draw, depth=0):
    """An int-typed expression over variables a, b, c."""
    if depth >= 3:
        choice = draw(st.integers(min_value=0, max_value=1))
    else:
        choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        return str(draw(st.integers(min_value=-20, max_value=20)))
    if choice == 1:
        return draw(st.sampled_from(_VARS))
    left = draw(int_expr(depth=depth + 1))
    right = draw(int_expr(depth=depth + 1))
    if choice == 2:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({left} {op} {right})"
    if choice == 3:
        # Guarded division/modulo: non-zero literal denominator.
        op = draw(st.sampled_from(["/", "%"]))
        denominator = draw(
            st.integers(min_value=1, max_value=9).map(
                lambda d: d if draw(st.booleans()) else -d
            )
        )
        return f"({left} {op} {denominator})"
    # choice == 4: absolute value keeps things int-typed via builtin
    return f"abs({left})"


@st.composite
def condition(draw):
    left = draw(int_expr())
    right = draw(int_expr())
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    text = f"{left} {op} {right}"
    if draw(st.booleans()):
        other = f"{draw(int_expr())} {draw(st.sampled_from(['<', '>']))} {draw(int_expr())}"
        junction = draw(st.sampled_from(["&&", "||"]))
        text = f"({text}) {junction} ({other})"
    return text


@st.composite
def statement(draw, depth=0):
    kind = draw(st.integers(min_value=0, max_value=5 if depth < 2 else 1))
    target = draw(st.sampled_from(_VARS))
    if kind in (0, 1):
        return f"{target} = {draw(int_expr())};"
    if kind == 2:
        then_body = draw(statement(depth=depth + 1))
        if draw(st.booleans()):
            else_body = draw(statement(depth=depth + 1))
            return (
                f"if ({draw(condition())}) {{ {then_body} }} "
                f"else {{ {else_body} }}"
            )
        return f"if ({draw(condition())}) {{ {then_body} }}"
    if kind == 3:
        # Bounded for loop over a fresh counter.
        bound = draw(st.integers(min_value=0, max_value=8))
        counter = f"i{depth}"
        body = draw(statement(depth=depth + 1))
        maybe_break = ""
        if draw(st.booleans()):
            maybe_break = (
                f"if ({counter} == {draw(st.integers(min_value=0, max_value=8))})"
                f" {{ break; }}"
            )
        return (
            f"for (var {counter}: int = 0; {counter} < {bound}; "
            f"{counter} = {counter} + 1) {{ {maybe_break} {body} }}"
        )
    if kind == 4:
        # continue inside a bounded loop.
        bound = draw(st.integers(min_value=1, max_value=8))
        counter = f"j{depth}"
        body = draw(statement(depth=depth + 1))
        return (
            f"for (var {counter}: int = 0; {counter} < {bound}; "
            f"{counter} = {counter} + 1) {{ "
            f"if ({counter} % 2 == 0) {{ continue; }} {body} }}"
        )
    # kind == 5: block
    inner = " ".join(draw(st.lists(statement(depth=depth + 1), max_size=2)))
    return f"{{ {inner} }}"


@st.composite
def program(draw):
    body = " ".join(draw(st.lists(statement(), min_size=1, max_size=5)))
    return (
        "func main(a: int, b: int, c: int) -> int { "
        f"{body} "
        "return a + 10000 * b + 100000000 * c; }"
    )


@settings(max_examples=120, deadline=None)
@given(
    program(),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
def test_vm_agrees_with_ast_interpreter(source, a, b, c):
    analysed = analyze(parse(source))
    compiled = compile_ast(analysed)
    vm_result, _stats = execute(compiled, "main", [a, b, c])
    ast_result = AstInterpreter(analysed).run("main", [a, b, c])
    assert vm_result == ast_result, source


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=300))
def test_engines_agree_on_seeded_randomness(seed, samples):
    source = kernels.MONTE_CARLO_PI
    vm_result, _ = execute(compile_source(source), "main", [samples], seed=seed)
    ast_result = interpret_source(source, args=[samples], seed=seed)
    assert vm_result == ast_result


def test_engines_agree_on_all_standard_kernels():
    cases = {
        "mandelbrot_row": [5, 24, 16, 30],
        "matmul_tile": [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], 2],
        "fibonacci": [13],
        "prime_count": [500],
        "numeric_integration": [0.0, 4.0, 200],
        "word_histogram": ["Hello 123 world!"],
    }
    for name, args in cases.items():
        source = kernels.ALL_KERNELS[name]
        vm_result, _ = execute(compile_source(source), "main", list(args))
        ast_result = interpret_source(source, args=list(args))
        assert vm_result == ast_result, name
