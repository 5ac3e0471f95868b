"""The engines the translate suites compare, and the comparison itself.

* **portable** — :class:`repro.tvm.vm.TVM`, the reference.
* **translated** — :meth:`repro.tvm.translate.Translation.run` driven
  directly: it may only return what the portable VM returns (value *and*
  instruction count); anything else it must raise.
* **executor** — :meth:`repro.provider.executor.TaskletExecutor.execute`,
  the path assignments take: translated run, restart on the portable VM.

Every engine gets its own deep copy of the arguments, so a kernel that
mutates an array it was given cannot leak state into the next engine.
"""

import copy

from repro.common.errors import VMError
from repro.core.results import ExecutionStatus
from repro.provider.executor import TaskletExecutor, local_assignment
from repro.tvm.translate import translate
from repro.tvm.vm import TVM, VMLimits

#: Plenty for every program the suites run, small enough that a runaway
#: loop ends in milliseconds.
FUEL = 1_000_000

#: The standard kernels with small arguments: the corpus every suite sweeps.
KERNEL_CASES = {
    "mandelbrot_row": [5, 24, 16, 30],
    "matmul_tile": [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], 2],
    "fibonacci": [13],
    "prime_count": [500],
    "numeric_integration": [0.0, 4.0, 200],
    "word_histogram": ["Hello 123 world!"],
    "monte_carlo_pi": [400],
}


def run_portable(program, args, fuel=FUEL, seed=0, entry="main"):
    """``("ok", value, instructions)`` or ``("error", type name, message,
    instructions)`` from the portable VM.  Anything it raises that is not
    a :class:`VMError` propagates: on verified bytecode that is a defect."""
    machine = TVM(program, limits=VMLimits(fuel=fuel), seed=seed)
    try:
        value = machine.run(entry, copy.deepcopy(list(args)))
    except VMError as error:
        return ("error", type(error).__name__, str(error), machine.stats.instructions)
    return ("ok", value, machine.stats.instructions)


def run_translated(program, args, fuel=FUEL, seed=0, entry="main"):
    """``("ok", value, instructions)``, ``("restart",)`` or ``("declined",)``."""
    translation = translate(program)
    if translation is None:
        return ("declined",)
    try:
        value, instructions = translation.run(
            entry, copy.deepcopy(list(args)), fuel, seed
        )
    except Exception:  # any exception means: the portable VM decides
        return ("restart",)
    return ("ok", value, instructions)


def assert_engines_agree(program, args, fuel=FUEL, seed=0, entry="main"):
    """Run all three; returns ``(portable outcome, translated outcome)``.

    The translated run may give up, never differ; the executor's outcome
    must be the portable VM's in status, value, error string and
    instruction count (0 on failure, by the executor's contract).
    """
    program.verify()
    expected = run_portable(program, args, fuel, seed, entry)
    direct = run_translated(program, args, fuel, seed, entry)
    if direct[0] == "ok":
        assert direct == expected, f"translated {direct} != portable {expected}"

    executor = TaskletExecutor()
    request = local_assignment(
        program, copy.deepcopy(list(args)), entry=entry, seed=seed, fuel=fuel
    )
    outcome = executor.execute(request)
    if expected[0] == "ok":
        assert outcome.status is ExecutionStatus.SUCCESS, outcome.error
        assert (outcome.value, outcome.instructions) == expected[1:]
        assert outcome.error is None
    else:
        assert outcome.status is ExecutionStatus.VM_ERROR
        assert outcome.error == f"{expected[1]}: {expected[2]}"
        assert (outcome.value, outcome.instructions) == (None, 0)
    # The counters name the engine that ran.
    ran = (executor.translated_runs, executor.restarts, executor.declined_programs)
    assert ran == {"ok": (1, 0, 0), "restart": (0, 1, 0), "declined": (0, 0, 1)}[
        direct[0]
    ]
    return expected, direct
