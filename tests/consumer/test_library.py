"""Tasklet Library: the public API surface applications use."""

import pytest

from repro.common.errors import ExecutionFailed, LanguageError
from repro.consumer.library import TaskletLibrary
from repro.core.futures import TaskletFuture
from repro.core.qoc import QoC
from repro.core.results import TaskletResult


class FakeSession:
    """Session stub that records submissions and resolves immediately."""

    def __init__(self, fail=False):
        self.submitted = []
        self.batches = []  # size of each submit_tasklets call
        self.fail = fail
        self.time = 0.0

    def submit_tasklets(self, tasklets):
        self.batches.append(len(tasklets))
        return [self._submit(tasklet) for tasklet in tasklets]

    def _submit(self, tasklet):
        self.submitted.append(tasklet)
        future = TaskletFuture(tasklet.tasklet_id)
        future.resolve(
            TaskletResult(
                tasklet_id=tasklet.tasklet_id,
                ok=not self.fail,
                value=f"result-{len(self.submitted)}" if not self.fail else None,
                error="boom" if self.fail else None,
            )
        )
        return future

    def now(self):
        self.time += 0.5
        return self.time


SOURCE = "func main(n: int) -> int { return n * n; }"


def test_submit_source_compiles_and_ships():
    session = FakeSession()
    library = TaskletLibrary(session)
    future = library.submit(SOURCE, args=[3])
    assert future.result(0) == "result-1"
    tasklet = session.submitted[0]
    assert tasklet.entry == "main"
    assert tasklet.args == [3]


def test_compile_cache_reuses_program():
    library = TaskletLibrary(FakeSession())
    assert library.compile(SOURCE) is library.compile(SOURCE)


def test_compile_error_propagates():
    library = TaskletLibrary(FakeSession())
    with pytest.raises(LanguageError):
        library.compile("func main( {")


def test_submit_accepts_precompiled_program():
    session = FakeSession()
    library = TaskletLibrary(session)
    program = library.compile(SOURCE)
    library.submit(program, args=[2])
    assert session.submitted[0].program is program


def test_tasklet_ids_are_unique():
    session = FakeSession()
    library = TaskletLibrary(session)
    library.submit(SOURCE, args=[1])
    library.submit(SOURCE, args=[2])
    ids = [tasklet.tasklet_id for tasklet in session.submitted]
    assert len(set(ids)) == 2


def test_seeds_derived_deterministically_per_tasklet():
    first_session = FakeSession()
    library = TaskletLibrary(first_session, base_seed=5)
    library.submit(SOURCE, args=[1])
    library.submit(SOURCE, args=[1])
    seeds = [tasklet.seed for tasklet in first_session.submitted]
    assert seeds[0] != seeds[1]  # distinct per tasklet

    second_session = FakeSession()
    replay = TaskletLibrary(second_session, base_seed=5)
    replay.submit(SOURCE, args=[1])
    replay.submit(SOURCE, args=[1])
    assert [t.seed for t in second_session.submitted] == seeds  # reproducible


def test_explicit_seed_wins():
    session = FakeSession()
    TaskletLibrary(session).submit(SOURCE, args=[1], seed=777)
    assert session.submitted[0].seed == 777


def test_map_fans_out_in_order():
    session = FakeSession()
    library = TaskletLibrary(session)
    futures = library.map(SOURCE, [[1], [2], [3]])
    assert len(futures) == 3
    assert [tasklet.args for tasklet in session.submitted] == [[1], [2], [3]]
    assert session.batches == [3]  # one registration, one send


def test_map_ids_and_seeds_are_those_of_as_many_submits():
    mapped, submitted = FakeSession(), FakeSession()
    TaskletLibrary(mapped, base_seed=9).map(SOURCE, [[1], [2], [3]])
    library = TaskletLibrary(submitted, base_seed=9)
    for n in (1, 2, 3):
        library.submit(SOURCE, args=[n])
    assert [(t.tasklet_id, t.seed) for t in mapped.submitted] == [
        (t.tasklet_id, t.seed) for t in submitted.submitted
    ]


def test_map_of_nothing_touches_no_session():
    session = FakeSession()
    assert TaskletLibrary(session).map(SOURCE, []) == []
    assert session.batches == []


def test_gather_collects_values_in_order():
    library = TaskletLibrary(FakeSession())
    futures = library.map(SOURCE, [[1], [2]])
    assert library.gather(futures, timeout=0) == ["result-1", "result-2"]


def test_gather_raises_on_failure():
    library = TaskletLibrary(FakeSession(fail=True))
    futures = library.map(SOURCE, [[1]])
    with pytest.raises(ExecutionFailed):
        library.gather(futures, timeout=0)


def test_qoc_attached_to_tasklets():
    session = FakeSession()
    library = TaskletLibrary(session)
    library.submit(SOURCE, args=[1], qoc=QoC.reliable(redundancy=2))
    assert session.submitted[0].qoc.redundancy == 2


class TestLocalExecution:
    def test_local_only_never_reaches_session(self):
        session = FakeSession()
        library = TaskletLibrary(session)
        future = library.submit(SOURCE, args=[6], qoc=QoC.private())
        assert session.submitted == []  # privacy honoured
        assert future.result(0) == 36  # actually executed, locally

    def test_local_map_never_reaches_session(self):
        session = FakeSession()
        futures = TaskletLibrary(session).map(SOURCE, [[2], [3]], qoc=QoC.private())
        assert session.batches == []
        assert [future.result(0) for future in futures] == [4, 9]

    def test_local_failure_is_reported(self):
        session = FakeSession()
        library = TaskletLibrary(session)
        future = library.submit(
            "func main(n: int) -> int { return n / 0; }",
            args=[1],
            qoc=QoC.private(),
        )
        outcome = future.wait(0)
        assert not outcome.ok
        assert "VMDivisionByZero" in outcome.error

    def test_local_execution_record_attached(self):
        library = TaskletLibrary(FakeSession())
        future = library.submit(SOURCE, args=[2], qoc=QoC.private())
        outcome = future.wait(0)
        assert len(outcome.executions) == 1
        assert outcome.executions[0].provider_id == "local"
