"""The consumer core: submission bookkeeping and future resolution.

Sans-IO like its broker and provider counterparts: ``submit_tasklets`` /
``submit_workflow`` produce the envelopes to send, ``handle`` consumes
broker replies and resolves the matching waiter.

All the core knows about an in-flight submission is one :class:`_Pending`
record, in one table per kind.  A submission becomes pending in one place
(``_register``) and stops being pending in one place per kind
(``_end_tasklet``, ``_end_workflow``) — completion, rejection,
disconnect and a submission that did not encode alike — so every waiter
handed out is answered exactly once (DESIGN.md §8).

The tables are locked because TCP drives this core from two threads: the
application submits while the consumer's loop thread resolves, or on disconnect
fails, what is pending.  Tables and counters change under the lock;
metrics, spans and the waiter's resolution (application callbacks) do not.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from ..common.clock import Clock
from ..common.errors import (
    BrokerUnreachable,
    CodecError,
    DuplicateSubmission,
    TaskletError,
    TransportError,
    WorkflowFailed,
    WorkflowSpecError,
)
from ..common.ids import NodeId, TaskletId
from ..common.serde import opened
from ..core.futures import TaskletFuture
from ..core.results import TaskletResult, open_completion
from ..core.tasklet import Tasklet
from ..dag.handle import WorkflowHandle
from ..dag.spec import WorkflowSpec
from ..obs import events as ev
from ..obs.telemetry import CONSUMER_COUNTS, ConsumerMetrics, Telemetry, count_stats
from ..obs.trace import TraceContext
from ..transport.message import (
    BROKER_ADDRESS,
    Envelope,
    MessageBody,
    SubmitAck,
    SubmitTasklet,
    SubmitWorkflow,
    TaskletComplete,
    WorkflowAck,
    WorkflowComplete,
    body_of,
    report_unreadable,
)


@dataclass
class ConsumerStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    workflows_submitted: int = 0
    workflows_completed: int = 0
    workflows_failed: int = 0


@dataclass(slots=True)
class _Pending:
    """One in-flight submission: all that ending it needs."""

    waiter: Any  # TaskletFuture | WorkflowHandle
    submitted_at: float
    trace: TraceContext | None  # the root context, with telemetry on


class _Kind(NamedTuple):
    """What differs between registering a tasklet and a workflow."""

    waiter: type  # what the application holds on to
    refusal: type[TaskletError]  # raised for an id that is still pending
    counter: str  # the ConsumerStats field counting registrations


#: Error text -> coarse family, for the ``failures_total`` counter.
_FAILURE_KINDS = (
    ("disagreed", "disagreement"),
    ("insufficient agreeing", "insufficient_votes"),
    ("executions failed", "executions_failed"),
    ("rejected by broker", "rejected"),
    ("broker unreachable", "broker_unreachable"),
)
_TASKLET = _Kind(TaskletFuture, DuplicateSubmission, "submitted")
_WORKFLOW = _Kind(WorkflowHandle, WorkflowSpecError, "workflows_submitted")


class ConsumerCore:
    """One consumer node's middleware state."""

    def __init__(
        self,
        node_id: NodeId,
        clock: Clock,
        broker: NodeId = BROKER_ADDRESS,
        telemetry: Telemetry | None = None,
    ):
        self.node_id = node_id
        self.clock = clock
        self.broker = broker
        self.telemetry = telemetry
        self._metrics = ConsumerMetrics(telemetry.registry) if telemetry else None
        self._tracer = telemetry.tracer if telemetry else None
        self._events = telemetry.events if telemetry else None
        self.stats = ConsumerStats()
        if telemetry is not None:
            count_stats(telemetry.registry, CONSUMER_COUNTS, self.stats)
        self._lock = threading.Lock()
        self._tasklets: dict[TaskletId, _Pending] = {}
        self._workflows: dict[str, _Pending] = {}

    # -- submission -----------------------------------------------------------

    def submit_tasklets(
        self, tasklets: Sequence[Tasklet]
    ) -> tuple[list[TaskletFuture], list[Envelope]]:
        """Register a future per tasklet and produce the submit messages.

        All of the batch or none of it: an id that is still pending (or
        appears twice in the batch) raises :class:`DuplicateSubmission`
        before anything is registered, so no future is ever overwritten.
        """
        return self._register(
            self._tasklets,
            _TASKLET,
            [(t.tasklet_id, SubmitTasklet(tasklet=t.to_dict())) for t in tasklets],
        )

    def submit_workflow(
        self, spec: WorkflowSpec
    ) -> tuple[WorkflowHandle, list[Envelope]]:
        """Register a handle for a whole DAG and produce its submit message.

        The broker owns the graph from here: node outputs feed successor
        arguments broker-side, and the handle resolves once on
        ``workflow_complete`` with the sink-node outputs.
        """
        spec.validate()
        submission = spec.workflow_id, SubmitWorkflow(workflow=spec.to_dict())
        (handle,), envelopes = self._register(self._workflows, _WORKFLOW, [submission])
        return handle, envelopes

    def _register(
        self, table: dict, kind: _Kind, submissions: Sequence[tuple[Any, MessageBody]]
    ) -> tuple[list, list[Envelope]]:
        """The one place a submission becomes pending: every ``(id, submit
        message)`` of the batch or, if one of the ids still is, none."""
        now = self.clock.now()
        tracer = self._tracer
        fresh: dict[Any, _Pending] = {}
        for submission_id, _ in submissions:
            if submission_id in fresh:
                raise kind.refusal(f"{submission_id!r} is twice in one batch")
            trace = tracer.start_trace() if tracer is not None else None
            fresh[submission_id] = _Pending(kind.waiter(submission_id), now, trace)
        with self._lock:  # held for the check and the insert, not the building
            if clash := table.keys() & fresh.keys():
                raise kind.refusal(f"{min(clash)!r} is already in flight")
            table.update(fresh)
            count = getattr(self.stats, kind.counter) + len(fresh)
            setattr(self.stats, kind.counter, count)
        envelopes = []
        for (_, body), record in zip(submissions, fresh.values()):
            envelope = body.envelope(src=self.node_id, dst=self.broker)
            if record.trace is not None:
                envelope.trace = record.trace.to_dict()
            envelopes.append(envelope)
        return [record.waiter for record in fresh.values()], envelopes

    # -- broker replies ----------------------------------------------------------

    def handle(self, envelope: Envelope) -> list[Envelope]:
        """Resolve what a broker reply answers.  One that cannot be read
        is reported and changes nothing: its waiter stays pending for a
        readable answer or the link's loss (DESIGN.md, "Wire boundary")."""
        try:
            body = body_of(envelope)
        except TransportError as exc:
            report_unreadable(self._events, self.node_id, self.clock.now(), envelope, str(exc))
            return []
        if isinstance(body, TaskletComplete):
            self._end_tasklet(body)
        elif isinstance(body, SubmitAck) and not body.accepted:
            error = f"rejected by broker: {body.reason}"
            verdict = TaskletComplete(body.tasklet_id, ok=False, error=error)
            self._end_tasklet(verdict, "rejected")
        elif isinstance(body, WorkflowComplete):
            failure = None if body.ok else WorkflowFailed(
                body.error
                or f"workflow {body.workflow_id!r} failed at node {body.failed_node!r}",
                node_id=body.failed_node,
                dependents=body.dependents,
            )
            status = "ok" if body.ok else "failed"
            self._end_workflow(body.workflow_id, status, failure, body)
        elif isinstance(body, WorkflowAck) and not body.accepted:
            error = f"workflow {body.workflow_id!r} rejected by broker: {body.reason}"
            self._end_workflow(body.workflow_id, "rejected", WorkflowSpecError(error))
        return []

    def fail_all_pending(self, reason: str) -> int:
        """Fail everything pending with :class:`BrokerUnreachable`.

        Called by the transport when the broker connection is lost: a
        disconnected consumer can never receive ``tasklet_complete``, so
        waiting callers are woken with a typed error instead of hanging
        until their timeout.  Returns the number of tasklet futures failed.
        """
        with self._lock:
            tasklets, workflows = list(self._tasklets), list(self._workflows)
        if (tasklets or workflows) and self._events is not None:
            self._events.record(
                ev.DISCONNECT,
                node=str(self.node_id),
                ts=self.clock.now(),
                reason=reason,
                pending_failed=len(tasklets) + len(workflows),
            )
        # An id answered since the snapshot is no longer pending; the ending
        # paths count and resolve only what they pop.
        for workflow_id in workflows:
            exc = BrokerUnreachable(f"workflow {workflow_id}: {reason}")
            self._end_workflow(workflow_id, "broker_unreachable", exc)
        error = f"broker unreachable: {reason}"
        return sum(
            self._end_tasklet(
                TaskletComplete(tasklet_id, ok=False, error=error),
                "broker_unreachable",
                BrokerUnreachable(f"tasklet {tasklet_id}: {reason}"),
            )
            for tasklet_id in tasklets
        )

    def fail_unsent(self, envelopes: Sequence[Envelope], exc: TaskletError) -> None:
        """End the submissions ``envelopes`` carry, failed with ``exc``: they
        never left this host (they did not encode), so no answer can come."""
        for body in (envelope.payload for envelope in envelopes):
            if "workflow" in body:
                self._end_workflow(body["workflow"]["workflow_id"], "unsent", exc)
            else:
                verdict = TaskletComplete(body["tasklet"]["tasklet_id"], ok=False, error=str(exc))
                self._end_tasklet(verdict, "unsent", exc)

    # -- the ending paths -----------------------------------------------------

    def _end_tasklet(
        self,
        verdict: TaskletComplete,
        kind: str | None = None,
        exc: TaskletError | None = None,
    ) -> bool:
        """The one place a tasklet submission stops being pending.

        ``verdict`` is the broker's terminal message, or one this core
        wrote in its stead (rejection, disconnect); ``kind`` the failure
        family when the caller knows it (else it is read off the error
        text); with ``exc`` the future *fails* typed instead of resolving.
        False — and nothing counted — when the id is not pending: a
        duplicate, late or unknown terminal message.  Values arrive packed:
        opened here, once; one that does not open fails the future typed."""
        now = self.clock.now()
        try:
            value, executions = open_completion(verdict.value, verdict.executions)
        except CodecError as bad:
            verdict = TaskletComplete(verdict.tasklet_id, False, error=f"unreadable result: {bad}")
            value, executions, kind, exc = None, [], kind or "unreadable", exc or bad
        tasklet_id, ok = TaskletId(verdict.tasklet_id), verdict.ok
        with self._lock:
            record = self._tasklets.pop(tasklet_id, None)
            if record is None:
                return False
            if ok:
                self.stats.completed += 1
            else:
                self.stats.failed += 1
                if kind == "rejected":
                    self.stats.rejected += 1
        result = TaskletResult(
            tasklet_id=tasklet_id,
            ok=ok,
            value=value,
            error=verdict.error,
            attempts=verdict.attempts,
            cost=verdict.cost,
            executions=executions,
            submitted_at=record.submitted_at,
            completed_at=now,
        )
        if self._metrics is not None:
            if not ok and kind is None:
                error = result.error or ""
                kind = next((kind for text, kind in _FAILURE_KINDS if text in error), "other")
            if kind is not None:
                self._metrics.failures.labels(kind=kind).inc()
            self._metrics.latency.observe(max(0.0, now - record.submitted_at))
            self._root_span("tasklet", record, now, kind or "ok", {"tasklet_id": str(tasklet_id)})
        if exc is None:
            record.waiter.resolve(result)
        else:
            record.waiter.fail(exc, result)
        return True

    def _end_workflow(
        self,
        workflow_id: str,
        status: str,
        exc: TaskletError | None = None,
        body: WorkflowComplete | None = None,
    ) -> bool:
        """The one place a workflow submission stops being pending.

        ``status`` labels the root ``workflow`` span (``ok`` counts as
        completed, anything else as failed); the handle fails with ``exc``
        or, without one, resolves with the outputs of ``body``, opened — or
        fails, should one not open.  False when the id is not pending
        (duplicate terminal message)."""
        now, outputs = self.clock.now(), None
        try:
            if exc is None:
                outputs = {sink: opened(blob) for sink, blob in body.outputs.items()}
        except CodecError as bad:
            status, exc = "unreadable", bad
        with self._lock:
            record = self._workflows.pop(workflow_id, None)
            if record is None:
                return False
            if status == "ok":
                self.stats.workflows_completed += 1
            else:
                self.stats.workflows_failed += 1
        handle: WorkflowHandle = record.waiter
        attrs: dict[str, Any] = {"workflow_id": workflow_id}
        if body is not None:
            handle.nodes_total = attrs["nodes_total"] = body.nodes_total
            handle.nodes_memoized = attrs["nodes_memoized"] = body.nodes_memoized
        self._root_span("workflow", record, now, status, attrs)
        if exc is None:
            handle.resolve(outputs)
        else:
            handle.fail(exc)
        return True

    def _root_span(
        self, name: str, record: _Pending, end: float, status: str, attrs: dict
    ) -> None:
        if record.trace is not None:
            self._tracer.record(
                name=name,
                context=record.trace,
                node=str(self.node_id),
                start=record.submitted_at,
                end=end,
                status=status,
                attrs=attrs,
            )

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._tasklets) + len(self._workflows)
