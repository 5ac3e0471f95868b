"""Tasklet executor: outcomes, caching, fingerprint integrity."""

import pytest

from repro.common.serde import packed
from repro.core.results import ExecutionStatus
from repro.provider.executor import TaskletExecutor
from repro.transport.message import AssignExecution
from repro.tvm.compiler import compile_source
from tests.transport.test_messages import HOSTILE_BLOBS
from tests.conftest import packed_document

PROGRAM = compile_source(
    """
    func main(n: int) -> int {
        if (n < 0) { return 1 / (n - n); }  // deliberate division by zero
        var total: int = 0;
        for (var i: int = 0; i < n; i = i + 1) { total = total + i; }
        return total;
    }
    """
)


def assignment(n=10, fingerprint=None, fuel=1_000_000, program=None, seed=0):
    target = program or PROGRAM
    return AssignExecution(
        execution_id=f"ex-{n}",
        tasklet_id=f"tl-{n}",
        consumer_id="c",
        program=target.packed(),
        entry="main",
        args=packed([n]),
        seed=seed,
        fuel=fuel,
        program_fingerprint=(
            target.fingerprint() if fingerprint is None else fingerprint
        ),
    )


def test_successful_execution():
    outcome = TaskletExecutor().execute(assignment(10))
    assert outcome.ok
    assert outcome.value == 45
    assert outcome.instructions > 0
    assert outcome.error is None


def test_vm_error_becomes_failed_outcome():
    outcome = TaskletExecutor().execute(assignment(-1))
    assert not outcome.ok
    assert outcome.status is ExecutionStatus.VM_ERROR
    assert "VMDivisionByZero" in outcome.error


def test_fuel_exhaustion_becomes_failed_outcome():
    outcome = TaskletExecutor().execute(assignment(10**6, fuel=1000))
    assert not outcome.ok
    assert "VMFuelExhausted" in outcome.error


def test_malformed_program_becomes_failed_outcome():
    request = assignment(1)
    request.program = packed_document({"version": 1, "functions": [], "constants": []})
    request.program_fingerprint = ""
    outcome = TaskletExecutor().execute(request)
    assert not outcome.ok


def test_stack_underflow_is_refused_at_load_not_raised_mid_run():
    # [POP, PUSH_CONST 0, RET]: verified before PR 18, then IndexError out
    # of execute() — the pool thread died holding its slot.
    request = assignment(1)
    request.program = packed_document({
        "version": 1,
        "constants": [1],
        "functions": [
            {
                "name": "main",
                "n_params": 1,
                "n_locals": 1,
                "returns_value": True,
                "code": [[5, -1], [1, 0], [42, -1]],
            }
        ],
    })
    request.program_fingerprint = ""
    outcome = TaskletExecutor().execute(request)
    assert outcome.status is ExecutionStatus.VM_ERROR
    assert outcome.error.startswith("VMInvalidProgram: main@0: POP pops 1 with 0")


@pytest.mark.parametrize("cache_size", [0, 64], ids=["portable", "translated"])
def test_execute_never_raises_whatever_an_engine_throws(monkeypatch, cache_size):
    from repro.tvm.vm import TVM

    def defect(self, entry, args=None):
        raise IndexError("pop from empty list")

    # The translated run gives up on any exception and restarts on the
    # portable VM, so a defect there is what finally reaches execute().
    monkeypatch.setattr(TVM, "run", defect)
    executor = TaskletExecutor(cache_size=cache_size)
    request = assignment(-1)  # the translated engine restarts on this one
    outcome = executor.execute(request)
    assert outcome.status is ExecutionStatus.VM_ERROR
    assert outcome.error.startswith("IndexError: pop from empty list")
    assert "engine fault at defect" in outcome.error
    assert (outcome.value, outcome.instructions) == (None, 0)


@pytest.mark.parametrize("args", HOSTILE_BLOBS + [b"\x00", packed(7)], ids=lambda a: repr(a)[:24])
def test_arguments_that_do_not_open_to_a_list_are_refused_typed(args):
    """The provider opens the arguments — here, and nowhere before — and
    refuses what its VM would: bytes that are no packed value or pack no
    list are a ``VMTypeError`` outcome, never an exception, never an
    "engine fault"; a list that opens is the VM's to judge, as ever."""
    request = assignment(3)
    request.args = args
    outcome = TaskletExecutor().execute(request)
    assert outcome.status is ExecutionStatus.VM_ERROR and outcome.value is None
    assert "engine fault" not in outcome.error
    opens_to_a_list = args in (packed([{"a": 1}]), packed([b"x"]), packed([None]))
    assert outcome.error.startswith("VMTypeError: arguments do ") != opens_to_a_list
    assert outcome.error.startswith(("VMTypeError: ", "VMError: ")), outcome.error


def test_cache_hits_for_repeated_program():
    executor = TaskletExecutor()
    for n in range(5):
        assert executor.execute(assignment(n)).ok
    assert executor.cache_misses == 1
    assert executor.cache_hits == 4


@pytest.fixture
def opened(monkeypatch):
    """One entry per program opened (``from_packed`` reads through it)."""
    from repro.tvm.bytecode import CompiledProgram

    opened = []
    original = CompiledProgram.from_dict.__func__
    monkeypatch.setattr(
        CompiledProgram,
        "from_dict",
        classmethod(lambda cls, data: opened.append(1) or original(cls, data)),
    )
    return opened


def test_a_cache_hit_opens_no_program(opened):
    """The provider's hop: the packed program is opened on a cache miss,
    once, and never on a hit — where its bytes are hashed, not read."""
    executor = TaskletExecutor()
    assert executor.execute(assignment(3)).value == 3
    assert len(opened) == 1
    assert executor.execute(assignment(4)).value == 6
    assert (len(opened), executor.cache_hits) == (1, 1)


def test_cache_distinguishes_programs():
    other = compile_source("func main(n: int) -> int { return n; }")
    executor = TaskletExecutor()
    executor.execute(assignment(1))
    executor.execute(assignment(1, program=other))
    assert executor.cache_misses == 2


def test_cache_eviction_respects_size():
    executor = TaskletExecutor(cache_size=2)
    programs = [
        compile_source(f"func main(n: int) -> int {{ return n + {i}; }}")
        for i in range(3)
    ]
    for program in programs:
        executor.execute(assignment(1, program=program))
    # Oldest evicted: re-running it misses again.
    executor.execute(assignment(1, program=programs[0]))
    assert executor.cache_misses == 4


def test_fingerprint_mismatch_rejected():
    outcome = TaskletExecutor().execute(assignment(1, fingerprint="bogus"))
    assert not outcome.ok
    assert "fingerprint mismatch" in outcome.error


def test_fingerprint_poisoning_cannot_hijack_cache():
    # A request claiming the fingerprint of program A but shipping
    # program B must not poison A's cache slot.
    a = compile_source("func main(n: int) -> int { return 111; }")
    b = compile_source("func main(n: int) -> int { return 222; }")
    executor = TaskletExecutor()
    poisoned = assignment(1, program=b)
    poisoned.program_fingerprint = a.fingerprint()
    assert not executor.execute(poisoned).ok
    honest = assignment(1, program=a)
    assert executor.execute(honest).value == 111


def test_a_warm_cache_does_not_answer_for_another_program():
    """Fails on the parent: a hit was taken on the stamp alone, so bytes
    of B stamped as A ran A's cached code and reported A's result."""
    a = compile_source("func main(n: int) -> int { return 111; }")
    b = compile_source("func main(n: int) -> int { return 222; }")
    executor = TaskletExecutor()
    assert executor.execute(assignment(1, program=a)).value == 111  # A is warm
    forged = assignment(1, program=b, fingerprint=a.fingerprint())
    outcome = executor.execute(forged)
    assert outcome.status is ExecutionStatus.VM_ERROR and outcome.value is None
    assert outcome.error == (
        "VMInvalidProgram: program fingerprint mismatch: "
        f"claimed {a.fingerprint()}, actual {b.fingerprint()}"
    )
    assert (executor.cache_hits, executor.cache_misses) == (0, 1)  # counted as neither
    assert executor.execute(assignment(1, program=b)).value == 222


def test_missing_fingerprint_still_works(opened):
    """... and opens the program once: an unstamped assignment is cached
    by the hash of its bytes, as a stamped one is."""
    executor = TaskletExecutor()
    for n in (5, 6, 7):
        outcome = executor.execute(assignment(n, fingerprint=""))
        assert outcome.ok and outcome.value == n * (n - 1) // 2
    assert (len(opened), executor.cache_misses, executor.cache_hits) == (1, 1, 2)
    assert executor.execute(assignment(5)).ok and len(opened) == 1  # one entry, stamped or not


def test_cache_size_zero_disables_caching():
    executor = TaskletExecutor(cache_size=0)
    for n in range(3):
        assert executor.execute(assignment(n)).ok
    assert executor.cache_misses == 3
    assert executor.cache_hits == 0


def test_negative_cache_size_rejected():
    with pytest.raises(ValueError):
        TaskletExecutor(cache_size=-1)


def test_cache_hit_refreshes_lru_order():
    executor = TaskletExecutor(cache_size=2)
    programs = [
        compile_source(f"func main(n: int) -> int {{ return n * {i + 2}; }}")
        for i in range(3)
    ]
    executor.execute(assignment(1, program=programs[0]))
    executor.execute(assignment(1, program=programs[1]))
    executor.execute(assignment(1, program=programs[0]))  # refresh 0
    executor.execute(assignment(1, program=programs[2]))  # evicts 1, not 0
    misses = executor.cache_misses
    executor.execute(assignment(1, program=programs[0]))
    assert executor.cache_misses == misses  # still cached


def test_cache_metrics_flow_into_registry():
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import ProviderMetrics

    registry = MetricsRegistry()
    executor = TaskletExecutor(metrics=ProviderMetrics(registry))
    for n in range(3):
        executor.execute(assignment(n))
    cache = registry.get("repro_provider_program_cache_total")
    assert cache.labels(result="miss").value == 1
    assert cache.labels(result="hit").value == 2
    instructions = registry.get("repro_provider_vm_instructions_total")
    assert instructions.value > 0


def test_profiled_outcome_carries_vm_profile():
    executor = TaskletExecutor(profile=True)
    outcome = executor.execute(assignment(10))
    assert outcome.ok
    assert outcome.profile is not None
    assert outcome.profile.instructions == outcome.instructions
    # Unprofiled executors leave it unset.
    assert TaskletExecutor().execute(assignment(10)).profile is None


def test_seed_reaches_the_vm():
    program = compile_source("func main() -> float { return rand(); }")
    executor = TaskletExecutor()
    request_a = assignment(0, program=program, seed=1)
    request_a.args = packed([])
    request_b = assignment(0, program=program, seed=1)
    request_b.args = packed([])
    request_c = assignment(0, program=program, seed=2)
    request_c.args = packed([])
    assert executor.execute(request_a).value == executor.execute(request_b).value
    assert executor.execute(request_a).value != executor.execute(request_c).value
