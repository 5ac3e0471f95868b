"""VM resource limits: fuel, stacks, allocation cap, accounting."""

import pytest

from repro.common.errors import (
    VMError,
    VMFuelExhausted,
    VMStackOverflow,
)
from repro.tvm.compiler import compile_source
from repro.tvm.vm import TVM, VMLimits, execute

INFINITE_LOOP = "func main() -> int { while (true) {} return 0; }"


def test_fuel_exhaustion_stops_infinite_loop():
    program = compile_source(INFINITE_LOOP)
    with pytest.raises(VMFuelExhausted):
        execute(program, "main", limits=VMLimits(fuel=10_000))


def test_fuel_accounting_on_success():
    program = compile_source("func main() -> int { return 1 + 2; }")
    _, stats = execute(program)
    assert 0 < stats.instructions <= 10


def test_fuel_accounting_on_failure():
    program = compile_source(INFINITE_LOOP)
    machine = TVM(program, limits=VMLimits(fuel=5000))
    with pytest.raises(VMFuelExhausted):
        machine.run("main")
    assert machine.stats.instructions == 5000


def test_fuel_scales_with_work():
    program = compile_source(
        """
        func main(n: int) -> int {
            var total: int = 0;
            for (var i: int = 0; i < n; i = i + 1) { total = total + i; }
            return total;
        }
        """
    )
    _, small = execute(program, "main", [10])
    _, large = execute(program, "main", [1000])
    assert large.instructions > small.instructions * 50


def test_call_depth_limit():
    program = compile_source(
        """
        func dive(n: int) -> int { return dive(n + 1); }
        func main() -> int { return dive(0); }
        """
    )
    with pytest.raises(VMStackOverflow):
        execute(program, "main", limits=VMLimits(max_call_depth=50))


def test_deep_but_legal_recursion_succeeds():
    program = compile_source(
        """
        func count(n: int) -> int {
            if (n == 0) { return 0; }
            return 1 + count(n - 1);
        }
        func main(n: int) -> int { return count(n); }
        """
    )
    result, stats = execute(program, "main", [200], limits=VMLimits(max_call_depth=250))
    assert result == 200
    assert stats.max_call_depth > 190


def test_operand_stack_limit_via_array_growth():
    # BUILD_ARRAY checks the stack; huge literal nesting caught early.
    program = compile_source(
        """
        func main(n: int) -> array {
            var xs: array = [];
            while (len(xs) < n) { xs = xs + [1]; }
            return xs;
        }
        """
    )
    result, _ = execute(program, "main", [100])
    assert len(result) == 100


def test_allocation_cap_enforced():
    program = compile_source("func main() -> array { return array(100000000); }")
    with pytest.raises(VMError):
        execute(program)


def test_negative_allocation_rejected():
    program = compile_source("func main(n: int) -> array { return array(n); }")
    with pytest.raises(VMError):
        execute(program, "main", [-1])


def test_stats_count_calls_and_builtins():
    program = compile_source(
        """
        func helper() -> float { return sqrt(4.0); }
        func main() -> float { return helper() + helper(); }
        """
    )
    _, stats = execute(program)
    assert stats.function_calls == 2
    assert stats.builtin_calls == 2


def test_vm_instance_is_single_use():
    program = compile_source("func main() -> int { return 1; }")
    machine = TVM(program)
    machine.run("main")
    with pytest.raises(VMError):
        machine.run("main")


def test_default_limits_allow_real_kernels():
    from repro.core.kernels import MANDELBROT_ROW

    program = compile_source(MANDELBROT_ROW)
    result, stats = execute(program, "main", [0, 64, 48, 32])
    assert len(result) == 64
    assert stats.instructions < VMLimits().fuel
