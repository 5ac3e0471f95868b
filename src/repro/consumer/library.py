"""The Tasklet Library: the public API applications program against.

This is the paper's "Tasklet Library" — the thin layer an application
links to issue Tasklets without caring where they run.  It adds, on top of
a :class:`Session` (simulated or TCP):

* source compilation with caching (``compile``);
* one-call submission (``submit``) and bulk fan-out (``map``);
* the *privacy* QoC goal: ``local_only`` Tasklets never reach the session —
  they run on the consumer's own TVM, synchronously;
* seed management so that every Tasklet gets a distinct but reproducible
  PRNG seed derived from the library's base seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..dag.handle import WorkflowHandle
    from ..dag.spec import WorkflowSpec

from ..common.ids import IdGenerator
from ..common.rng import derive_seed
from ..core.futures import TaskletFuture
from ..core.qoc import QoC
from ..core.results import ExecutionRecord, TaskletResult
from ..core.tasklet import Tasklet
from ..provider.executor import TaskletExecutor, local_assignment
from ..tvm.bytecode import CompiledProgram
from ..tvm.compiler import compile_source
from ..tvm.vm import DEFAULT_FUEL


class Session(Protocol):
    """Where remote Tasklets go: the simulator or a TCP connection.

    Everything the library calls on its session is listed here;
    :class:`~repro.consumer.session.CoreSession` implements it once, over
    a :class:`~repro.consumer.core.ConsumerCore`, for both.
    """

    def submit_tasklets(self, tasklets: Sequence[Tasklet]) -> list[TaskletFuture]:
        """Hand a batch of Tasklets to the middleware as one registration
        and one send; returns their futures in order."""
        ...

    def submit_workflow(self, spec: "WorkflowSpec") -> "WorkflowHandle":
        """Hand a whole DAG to the middleware; returns its handle."""
        ...

    def now(self) -> float:
        """Session time (virtual in simulation, wall on TCP)."""
        ...


class TaskletLibrary:
    """Application-facing entry point (see module docstring).

    >>> library = TaskletLibrary(session)          # doctest: +SKIP
    >>> program = library.compile(SOURCE)          # doctest: +SKIP
    >>> future = library.submit(program, args=[4]) # doctest: +SKIP
    >>> future.result()                            # doctest: +SKIP
    """

    def __init__(self, session: Session, base_seed: int = 0):
        self.session = session
        self.base_seed = base_seed
        self.ids = IdGenerator()
        self._source_cache: dict[str, CompiledProgram] = {}
        self._local_executor = TaskletExecutor()

    # -- compilation ---------------------------------------------------------

    def compile(self, source: str) -> CompiledProgram:
        """Compile Tasklet source (memoised per distinct source text)."""
        cached = self._source_cache.get(source)
        if cached is not None:
            return cached
        program = compile_source(source)
        self._source_cache[source] = program
        return program

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        program: CompiledProgram | str,
        entry: str = "main",
        args: Sequence[Any] | None = None,
        qoc: QoC | None = None,
        fuel: int = DEFAULT_FUEL,
        seed: int | None = None,
        tasklet_id: str | None = None,
    ) -> TaskletFuture:
        """Issue one Tasklet; returns its future.

        ``program`` may be source text (compiled and cached) or an
        already-compiled program.  ``seed`` defaults to a deterministic
        per-Tasklet derivation from the library's ``base_seed``.

        ``tasklet_id`` defaults to a fresh id.  Passing an explicit id
        makes resubmission idempotent: once a broker or connection
        failure has *failed* the pending future (``BrokerUnreachable``),
        submitting again with the same id re-attaches to the in-flight
        attempt or re-delivers the journalled result — it never runs the
        work twice.  The derived seed depends only on the id, so a
        resubmit is bit-identical.  While the id's earlier future is
        still *pending* on this consumer, a resubmit raises
        :class:`~repro.common.errors.DuplicateSubmission` and sends
        nothing: that future is the one that gets the answer.
        """
        tasklet = self._tasklet(program, entry, args, qoc, fuel, seed, tasklet_id)
        return self._issue([tasklet])[0]

    def map(
        self,
        program: CompiledProgram | str,
        args_list: Sequence[Sequence[Any]],
        entry: str = "main",
        qoc: QoC | None = None,
        fuel: int = DEFAULT_FUEL,
    ) -> list[TaskletFuture]:
        """Fan one program out over many argument tuples (bag of tasks).

        The whole bag is one registration and, over TCP, one socket
        write; ids and derived seeds are those of as many ``submit`` calls.
        """
        return self._issue(
            [self._tasklet(program, entry, args, qoc, fuel) for args in args_list]
        )

    def _tasklet(
        self,
        program: CompiledProgram | str,
        entry: str,
        args: Sequence[Any] | None,
        qoc: QoC | None,
        fuel: int,
        seed: int | None = None,
        tasklet_id: str | None = None,
    ) -> Tasklet:
        if isinstance(program, str):
            program = self.compile(program)
        if tasklet_id is None:
            tasklet_id = self.ids.next_tasklet()
        if seed is None:
            seed = derive_seed(self.base_seed, tasklet_id)
        return Tasklet(
            tasklet_id=tasklet_id,
            program=program,
            entry=entry,
            args=list(args or []),
            qoc=qoc or QoC(),
            seed=seed,
            fuel=fuel,
        )

    def _issue(self, tasklets: list[Tasklet]) -> list[TaskletFuture]:
        """Futures for the Tasklets of one call (so one QoC): ``local_only``
        ones run here and now, others go to the session as one batch."""
        if not tasklets:
            return []
        if tasklets[0].qoc.local_only:
            return [self._run_local(tasklet) for tasklet in tasklets]
        return self.session.submit_tasklets(tasklets)

    def submit_workflow(self, spec: "WorkflowSpec") -> "WorkflowHandle":
        """Submit a whole DAG of Tasklets in one message.

        The broker owns the graph: it releases nodes as predecessors
        complete and injects their outputs into successor arguments, so
        multi-stage pipelines pay no consumer round-trip between stages.
        The returned :class:`~repro.dag.WorkflowHandle` resolves with the
        sink-node outputs (``{node_id: value}``), or raises
        :class:`~repro.common.errors.WorkflowFailed` if a node exhausts
        its retries.  The spec is validated where it is registered
        (:meth:`~repro.consumer.core.ConsumerCore.submit_workflow`).
        """
        return self.session.submit_workflow(spec)

    @staticmethod
    def gather(futures: Sequence[TaskletFuture], timeout: float | None = None) -> list[Any]:
        """Wait for all futures; returns their values in order.

        Raises :class:`~repro.common.errors.ExecutionFailed` on the first
        failed Tasklet (partial results are available on the futures).
        """
        return [future.result(timeout) for future in futures]

    # -- local (privacy QoC) ----------------------------------------------------

    def _run_local(self, tasklet: Tasklet) -> TaskletFuture:
        """Execute on the consumer's own TVM, never leaving the device."""
        request = local_assignment(
            tasklet.program, tasklet.args, tasklet.entry, tasklet.seed, tasklet.fuel
        )
        started = self.session.now()
        outcome = self._local_executor.execute(request)
        finished = self.session.now()
        record = ExecutionRecord(
            execution_id=f"local-{tasklet.tasklet_id}",
            tasklet_id=tasklet.tasklet_id,
            provider_id="local",
            status=outcome.status,
            value=outcome.value,
            error=outcome.error,
            instructions=outcome.instructions,
            started_at=started,
            finished_at=finished,
        )
        future = TaskletFuture(tasklet.tasklet_id)
        future.resolve(
            TaskletResult(
                tasklet_id=tasklet.tasklet_id,
                ok=outcome.ok,
                value=outcome.value,
                error=outcome.error,
                attempts=1,
                executions=[record],
                submitted_at=started,
                completed_at=finished,
            )
        )
        return future
