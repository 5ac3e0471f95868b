"""Translated execution at its limits, and what runs share.

Fuel, call depth and argument sharing are where "restart on the portable
VM" could go wrong without any divergence in ordinary results: a block
charged one instruction short, a depth check off by one, a restart that
sees an array the abandoned run had already written to, or per-call
state (fuel, RNG, depth) that leaked into the module.
"""

import sys
import threading

import pytest

from repro.common.errors import VMError
from repro.core import kernels
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import ProviderMetrics
from repro.common.serde import opened
from repro.provider import executor as executor_module
from repro.provider.executor import TaskletExecutor, local_assignment
from repro.tvm.compiler import compile_source
from repro.tvm.vm import TVM

from tests.tvm.engines import KERNEL_CASES, assert_engines_agree, run_portable


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_fuel_boundary_is_exact_for_every_kernel(name):
    program = compile_source(kernels.ALL_KERNELS[name])
    args = KERNEL_CASES[name]
    status, value, retired = run_portable(program, args, seed=3)
    assert status == "ok"
    expected, direct = assert_engines_agree(program, args, fuel=retired - 1, seed=3)
    assert expected == (
        "error",
        "VMFuelExhausted",
        f"fuel exhausted after {retired - 1} instructions",
        retired - 1,
    )
    assert direct == ("restart",)
    for fuel in (retired, retired + 1):
        expected, direct = assert_engines_agree(program, args, fuel=fuel, seed=3)
        assert expected == direct == ("ok", value, retired)


RECURSE = """
func down(n: int) -> int {
    if (n <= 1) { return 1; }
    return 1 + down(n - 1);
}
func main(n: int) -> int { return down(n); }
"""


def test_call_depth_limit_is_the_interpreters():
    # main is frame 1, down(n) nests n more: 255 frames deep at n = 254.
    program = compile_source(RECURSE)
    for n in (254, 255):
        expected, direct = assert_engines_agree(program, [n])
        assert expected[:2] == direct[:2] == ("ok", n)
    for n in (256, 257):
        expected, direct = assert_engines_agree(program, [n])
        assert expected[:3] == ("error", "VMStackOverflow", "call depth exceeded 256")
        assert direct == ("restart",)


def test_python_recursion_limit_restarts_instead_of_escaping():
    program = compile_source(RECURSE)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)  # well below 255 nested translated calls
    try:
        expected, direct = assert_engines_agree(program, [200])
    finally:
        sys.setrecursionlimit(limit)
    # The interpreter is iterative and completes; the RecursionError in
    # generated code only cost a restart.
    assert expected[:2] == ("ok", 200) and direct == ("restart",)


MUTATE_THEN_FAULT = """
func main(a: array, zero: int) -> int {{
    {mutation}
    return 10 / zero;
}}
"""


@pytest.mark.parametrize(
    "mutation", ["a[0] = 99;", "push(a, 99);", "pop(a);", "var inner: array = a[1]; inner[0] = 99;"]
)
def test_restart_sees_the_arguments_the_translated_run_was_given(mutation):
    program = compile_source(MUTATE_THEN_FAULT.format(mutation=mutation))
    args = [[1, [2, 3]], 0]
    executor = TaskletExecutor()
    request = local_assignment(program, args)
    outcome = executor.execute(request)
    assert executor.restarts == 1
    assert outcome.error == "VMDivisionByZero: division by zero"
    # Both runs were given their own opening of the packed arguments: the
    # caller's list is what it was, and so is the assignment.
    assert args == [[1, [2, 3]], 0] and request.args == local_assignment(program, args).args
    with pytest.raises(VMError):
        TVM(program).run("main", [[1, [2, 3]], 0])
    # And when nothing faults, the result is what the interpreter computes
    # from the same starting array.
    succeeding = [[1, [2, 3]], 5]
    assert_engines_agree(program, succeeding)
    assert succeeding == [[1, [2, 3]], 5]  # the helper ran copies


def test_a_second_push_would_show_if_the_restart_reused_the_array():
    source = """
    func main(a: array) -> int {
        push(a, 7);
        if (len(a) == 2) { return 1 / 0; }
        return len(a);
    }
    """
    # Given [] the translated run pushes once and returns 1.  Given [5]
    # it pushes, faults and restarts: an interpreter handed the *written*
    # array would see length 3 and return it, the pristine one — opened
    # again from the assignment's bytes — length 2, and fault as it must.
    program = compile_source(source)
    assert assert_engines_agree(program, [[]])[0][:2] == ("ok", 1)
    executor = TaskletExecutor()
    array = [5]
    outcome = executor.execute(local_assignment(program, [array]))
    assert outcome.error == "VMDivisionByZero: division by zero"
    assert executor.restarts == 1 and array == [5]


def test_programs_that_cannot_mutate_pay_no_argument_copy(monkeypatch):
    """The arguments are opened once per run — and a second time only for
    the restart of a program that could have written to them."""
    opens = []
    monkeypatch.setattr(executor_module, "opened", lambda blob: opens.append(1) or opened(blob))
    echo = compile_source("func main(a: array) -> array { return a; }")
    payload = list(range(1024))
    executor = TaskletExecutor()
    outcome = executor.execute(local_assignment(echo, [payload]))
    assert outcome.value == payload and executor.translated_runs == 1 and len(opens) == 1
    (cached,) = executor._cache.values()
    assert cached[1].mutates is False
    reader = compile_source("func main(a: array, zero: int) -> int { return a[0] / zero; }")
    assert not executor.execute(local_assignment(reader, [payload, 0])).ok
    assert executor.restarts == 1 and len(opens) == 2  # restarted on what it was given
    writer = compile_source("func main(a: array, zero: int) -> int { a[0] = 1; return 1 / zero; }")
    assert not executor.execute(local_assignment(writer, [payload, 0])).ok
    assert executor.restarts == 2 and len(opens) == 4 and payload[0] == 0


def test_concurrent_runs_of_one_translation_share_no_state():
    program = compile_source(kernels.MONTE_CARLO_PI)
    seeds = (11, 12, 13, 14)
    expected = {seed: run_portable(program, [3000], seed=seed) for seed in seeds}
    assert len({outcome[1] for outcome in expected.values()}) > 1  # seeds matter
    executor = TaskletExecutor()
    executor.execute(local_assignment(program, [10]))  # translate once, up front
    results: dict[int, list] = {seed: [] for seed in seeds}

    def worker(seed):
        for _ in range(5):
            outcome = executor.execute(local_assignment(program, [3000], seed=seed))
            results[seed].append(("ok", outcome.value, outcome.instructions))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the runs as finely as CPython allows
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert results[seed] == [expected[seed]] * 5, seed
    assert executor.restarts == 0 and executor.cache_misses == 1


def test_counters_and_metric_say_which_engine_ran():
    registry = MetricsRegistry()
    executor = TaskletExecutor(metrics=ProviderMetrics(registry))
    divide = compile_source("func main(n: int) -> int { return 100 / n; }")
    wide = compile_source(
        "func main() -> int { var a: array = "
        "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]; return len(a); }"
    )
    for n in (1, 2, 0, 0, 0):
        executor.execute(local_assignment(divide, [n]))
    for _ in range(2):
        assert executor.execute(local_assignment(wide, [])).value == 17
    assert (executor.translated_runs, executor.restarts, executor.declined_programs) == (2, 3, 1)
    runs = registry.get("repro_provider_vm_runs_total")
    assert runs.labels(engine="translated").value == 2
    assert runs.labels(engine="restarted").value == 3  # paying both engines, visibly
    assert runs.labels(engine="portable").value == 2
    uncached = TaskletExecutor(cache_size=0)
    assert uncached.execute(local_assignment(divide, [4])).value == 25
    assert (uncached.translated_runs, uncached.restarts, uncached.declined_programs) == (0, 0, 0)
