"""Workflow coordination: broker-owned DAGs of Tasklets (sans-IO).

:class:`WorkflowCoordinator` owns every graph a consumer submitted: the
:class:`~repro.dag.scheduler.DagScheduler` per workflow, the released
nodes, terminal outcomes for idempotent resubmits, and journal resume.
A node is an ordinary tasklet under the key
``consumer_id/workflow_id:node_id``; the coordinator reaches the tasklet
lifecycle only through the core's ``_admit`` / ``_place`` / ``_complete``
and is told about node outcomes through :meth:`node_terminal`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..common.errors import TaskletError, WorkflowSpecError
from ..common.ids import NodeId, TaskletId
from ..core.qoc import QoC
from ..core.tasklet import Tasklet
from ..dag.scheduler import DONE, FAILED, RUNNING, DagScheduler
from ..dag.spec import WorkflowSpec
from ..obs.trace import TraceContext
from ..tvm.bytecode import CompiledProgram
from ..transport.message import (
    Envelope,
    SubmitWorkflow,
    WorkflowAck,
    WorkflowComplete,
    WorkflowUpdate,
)
from .journal import (
    COMPLETED_RETENTION,
    CompletionRecord,
    JournalSnapshot,
    WorkflowAdmitted,
    WorkflowOutcome,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import BrokerCore


@dataclass
class _WorkflowState:
    """Broker-side lifecycle of one DAG workflow (``key`` is
    ``consumer_id/workflow_id``)."""

    key: str
    workflow_id: str
    consumer_id: NodeId
    spec: WorkflowSpec
    #: ``spec.programs``, opened (by the broker's table) at admission.
    programs: dict[str, CompiledProgram]
    scheduler: DagScheduler
    submitted_at: float
    #: Content hash of the spec — idempotent-resubmit identity.
    spec_fingerprint: str
    nodes_memoized: int = 0
    done: bool = False
    #: Released, not yet terminal nodes: tasklet key -> node id, in
    #: release order (what a failing graph has to cancel).
    running: dict[str, str] = field(default_factory=dict)
    #: Telemetry contexts: the ``broker.workflow`` span and the consumer's
    #: root ``workflow`` context it parents on (None when disabled).
    trace_ctx: TraceContext | None = None
    trace_parent: TraceContext | None = None
    #: Per released node: the ``wf.node`` span context + release time,
    #: popped when the node reaches a terminal state.
    node_traces: dict[str, tuple[TraceContext, float]] = field(
        default_factory=dict
    )


class WorkflowCoordinator:
    """Every workflow one broker is running or has finished."""

    def __init__(self, core: "BrokerCore"):
        self.core = core
        #: In-flight graphs by workflow key.
        self.active: dict[str, _WorkflowState] = {}
        #: Released node's tasklet key -> owning workflow.
        self.nodes: dict[str, _WorkflowState] = {}
        #: Terminal outcomes (LRU) serving idempotent resubmits.
        self.completed: "OrderedDict[str, WorkflowOutcome]" = OrderedDict()

    # -- submission ------------------------------------------------------------

    def on_submit(self, body: SubmitWorkflow, envelope: Envelope) -> list[Envelope]:
        core, src = self.core, envelope.src
        core.observer.workflow_submitted()
        try:
            spec, programs = self._read(body.workflow)
        except WorkflowSpecError as exc:
            # (The id is a string: the message would not have read otherwise.)
            refusal = f"invalid workflow: {exc}"
            return [self._ack(src, body.workflow["workflow_id"], refusal)]
        key = f"{src}/{spec.workflow_id}"
        outcome = self.completed.get(key)
        if outcome is not None:
            # Idempotent resubmit of a finished workflow (consumer
            # reconnected, or the broker restarted between the terminal
            # message and the consumer seeing it): redeliver the stored
            # outcome, run nothing.
            complete = _complete_message(outcome)
            core.observer.redelivered(
                src, complete.ok, workflow_id=complete.workflow_id
            )
            return [self._ack(src, complete.workflow_id), core._send(complete, src)]
        existing = self.active.get(key)
        if existing is not None:
            # Same graph resubmitted while in flight: re-ack and let the
            # running instance complete to this consumer.
            same = existing.spec_fingerprint == spec.fingerprint()
            return [
                self._ack(
                    src, spec.workflow_id, "" if same else "duplicate workflow id"
                )
            ]
        wf = self._open(src, spec, programs, envelope.trace)
        if core.journal is not None:
            core.journal.record_workflow_admitted(
                key, str(src), spec.to_dict(), ts=wf.submitted_at
            )
            core.observer.journal_appended("wf_admitted")
        core.observer.workflow_admitted(wf, len(self.active))
        out = [self._ack(src, spec.workflow_id)]
        out.extend(self._release(wf, wf.scheduler.start(), core.clock.now()))
        return out

    def _ack(self, dst: NodeId, workflow_id: str, refusal: str = "") -> Envelope:
        ack = WorkflowAck(
            workflow_id=workflow_id, accepted=not refusal, reason=refusal
        )
        return self.core._send(ack, dst)

    def _read(self, workflow: dict) -> tuple[WorkflowSpec, dict[str, CompiledProgram]]:
        """Open a ``workflow`` record — the spec once, its programs if the
        broker has not yet — or :class:`WorkflowSpecError`: it does not
        read, is no valid graph, or a program is not what its key says."""
        spec = WorkflowSpec.from_dict(workflow)
        spec.validate()
        return spec, spec.open_programs(self.core.programs)

    def _open(
        self,
        consumer_id: NodeId,
        spec: WorkflowSpec,
        programs: dict[str, CompiledProgram],
        trace,
    ) -> _WorkflowState:
        wf = _WorkflowState(
            key=f"{consumer_id}/{spec.workflow_id}",
            workflow_id=spec.workflow_id,
            consumer_id=consumer_id,
            spec=spec,
            programs=programs,
            scheduler=DagScheduler(spec),
            submitted_at=self.core.clock.now(),
            spec_fingerprint=spec.fingerprint(),
        )
        self.core.observer.workflow_opened(wf, trace)
        self.active[wf.key] = wf
        return wf

    # -- node release ------------------------------------------------------------

    def _release(
        self, wf: _WorkflowState, node_ids: list[str], ready_at: float
    ) -> list[Envelope]:
        """Issue READY nodes; short-circuit ones whose result is known.

        ``ready_at`` is when their last dependency was met — their spans
        start there, so no broker time falls between a node and its
        successor on the trace's critical path.

        A worklist rather than plain iteration: a node served from the
        result cache (or a journalled completion, during recovery)
        completes instantly and may release its successors in the same
        call.  Ends by finishing the workflow if the cascade drained it.
        """
        core = self.core
        out: list[Envelope] = []
        worklist = list(node_ids)
        while worklist and not wf.done:
            node_id = worklist.pop(0)
            node = wf.spec.node(node_id)
            wire = {
                "tasklet_id": f"{wf.workflow_id}:{node_id}",
                "program": wf.spec.programs[node.program_fingerprint],
                "program_fingerprint": node.program_fingerprint,
                "entry": node.entry,
                "args": wf.scheduler.args_of(node_id),
                "qoc": {"max_attempts": node.max_attempts},
                "seed": node.seed,
                "fuel": node.fuel,
            }
            try:
                # The same Tasklet, opened — but for its program, which was
                # at admission (where entry and arity were checked, too).
                tasklet = Tasklet(
                    TaskletId(wire["tasklet_id"]), wf.programs[node.program_fingerprint],
                    node.entry, wire["args"], QoC(max_attempts=node.max_attempts),
                    node.seed, node.fuel,
                )
            except TaskletError as exc:  # a predecessor's output is no Tasklet value
                error = f"node {node_id!r} could not be released: {exc}"
                out.extend(self._fail(wf, node_id, error))
                break
            tasklet.program_fingerprint = node.program_fingerprint
            admission = core._admit(
                wf.consumer_id, tasklet, wire, workflow=wf.key, trace=wf.trace_ctx
            )
            prior = admission.completion
            if prior is not None and not prior.ok:
                # A journalled failure for this exact node (recovery, or
                # a re-run of a failed graph whose outcome was evicted):
                # the workflow fails the same way it did before.
                core.observer.node_failed_before(wf, node_id)
                error = prior.error or f"node {node_id!r} failed previously"
                out.extend(self._fail(wf, node_id, error))
                break
            if prior is not None:
                # Known result — a journalled success replayed, or the
                # same computation seen before from any submitter: the
                # node completes with zero executions.
                wf.nodes_memoized += 1
                core.observer.node_finished(wf, node_id, "memoized")
                out.append(self._update(wf, node_id, DONE))
                worklist.extend(wf.scheduler.complete(node_id, prior.value))
                continue
            state = admission.state
            if state is None:
                why = admission.refusal or "duplicate tasklet id"
                error = f"node {node_id!r} could not be released: {why}"
                out.extend(self._fail(wf, node_id, error))
                break
            wf.running[state.key] = node_id
            self.nodes[state.key] = wf
            wf.scheduler.mark_running(node_id)
            core.observer.node_released(wf, node_id, state, ready_at)
            out.append(self._update(wf, node_id, RUNNING))
            # Saturate-forwards exactly like a fresh consumer admission;
            # the ForwardComplete routes back through ``nodes``.
            out.extend(core._place(state))
        if not wf.done and wf.scheduler.finished:
            out.extend(self._finish(wf, ok=not wf.scheduler.failed))
        return out

    def _fail(self, wf: _WorkflowState, node_id: str, why: str) -> list[Envelope]:
        """Fail the graph on ``node_id``; its dependents can never run."""
        return self._finish(
            wf,
            ok=False,
            error=why,
            failed_node=node_id,
            dependents=wf.scheduler.fail(node_id),
        )

    def _update(
        self,
        wf: _WorkflowState,
        node_id: str,
        state: str,
        attempts: int = 0,
        error: str | None = None,
    ) -> Envelope:
        update = WorkflowUpdate(
            workflow_id=wf.workflow_id,
            node_id=node_id,
            state=state,
            attempts=attempts,
            error=error,
        )
        return self.core._send(update, wf.consumer_id)

    # -- node and workflow completion ----------------------------------------------

    def node_terminal(
        self, wf: _WorkflowState, outcome: CompletionRecord
    ) -> list[Envelope]:
        """A node's tasklet reached a terminal outcome: it feeds the graph
        (successor release / workflow failure), not a consumer future."""
        node_id = wf.running.pop(outcome.key)
        if wf.done:
            return []  # a sibling cancelled by ``_finish``
        ok, attempts = outcome.ok, outcome.attempts
        finished_at = self.core.clock.now()
        self.core.observer.node_finished(
            wf, node_id, "ok" if ok else "failed", attempts
        )
        if ok:
            out = [self._update(wf, node_id, DONE, attempts)]
            released = wf.scheduler.complete(node_id, outcome.value)
            out.extend(self._release(wf, released, finished_at))
            return out
        out = [self._update(wf, node_id, FAILED, attempts, outcome.error)]
        error = outcome.error or f"node {node_id!r} failed"
        out.extend(self._fail(wf, node_id, error))
        return out

    def _finish(
        self,
        wf: _WorkflowState,
        ok: bool,
        error: str | None = None,
        failed_node: str = "",
        dependents: list[str] | None = None,
    ) -> list[Envelope]:
        """Terminate one workflow: cancel stragglers, journal, notify."""
        wf.done = True
        core = self.core
        out: list[Envelope] = []
        # Cancel sibling nodes still running (their results are useless
        # once the graph has failed).  ``_complete`` routes each back
        # through ``node_terminal``, a no-op now that ``done`` is set.
        for tasklet_key in list(wf.running):
            out.extend(
                core._complete(
                    core._tasklets[tasklet_key],
                    ok=False,
                    error=(
                        f"workflow {wf.workflow_id!r} cancelled: "
                        f"{error or 'failed'}"
                    ),
                )
            )
        now = core.clock.now()
        outcome = WorkflowOutcome(
            workflow_id=wf.workflow_id,
            ok=ok,
            consumer_id=str(wf.consumer_id),
            outputs=wf.scheduler.outputs() if ok else {},
            error=error,
            failed_node=failed_node,
            dependents=list(dependents or []),
            nodes_total=len(wf.spec.nodes),
            nodes_memoized=wf.nodes_memoized,
        )
        self._remember(wf.key, outcome)
        if core.journal is not None:
            core.journal.record_workflow_complete(wf.key, outcome.to_dict(), ts=now)
            core.observer.journal_appended("wf_complete")
            core._maybe_compact_journal()
        del self.active[wf.key]
        core.observer.workflow_finished(wf, outcome, len(self.active))
        out.append(core._send(_complete_message(outcome), wf.consumer_id))
        return out

    def _remember(self, key: str, outcome: WorkflowOutcome) -> None:
        self.completed[key] = outcome
        self.completed.move_to_end(key)
        while len(self.completed) > COMPLETED_RETENTION:
            self.completed.popitem(last=False)

    # -- crash recovery ------------------------------------------------------------

    def recover(self, snapshot: JournalSnapshot) -> int:
        """Replay the workflow half of the journal; returns how many
        in-flight graphs were resumed."""
        for entry in snapshot.workflow_completions.values():
            self._remember(entry.key, WorkflowOutcome.from_dict(entry.outcome))
        return sum(1 for entry in snapshot.workflows if self._resume(entry))

    def _resume(self, entry: WorkflowAdmitted) -> bool:
        """Rebuild one in-flight workflow during crash recovery.

        Node completions already replayed into the core short-circuit
        through ``_release`` (zero re-execution); the still-missing
        frontier re-issues into the backlog.  Envelopes are discarded —
        the consumer re-learns the outcome by resubmitting.
        """
        try:
            spec, programs = self._read(entry.workflow)
        except WorkflowSpecError:
            return False
        consumer_id = NodeId(entry.consumer_id)
        key = f"{consumer_id}/{spec.workflow_id}"
        if key in self.active or key in self.completed:
            return False
        wf = self._open(consumer_id, spec, programs, None)
        self._release(wf, wf.scheduler.start(), self.core.clock.now())
        self.core.observer.workflow_recovered(wf, wf.scheduler.counts()[DONE])
        return True

    # -- monitoring ------------------------------------------------------------------

    def describe(self, now: float) -> list[dict]:
        """The ``/healthz`` view of (the first few) in-flight graphs."""
        return [
            {
                "workflow_id": wf.workflow_id,
                "consumer": str(wf.consumer_id),
                "nodes": len(wf.spec.nodes),
                "states": wf.scheduler.counts(),
                "age_s": round(max(0.0, now - wf.submitted_at), 6),
            }
            for wf in list(self.active.values())[:16]
        ]


def _complete_message(outcome: WorkflowOutcome) -> WorkflowComplete:
    # (Field for field, but for the ``consumer_id`` the message leaves out.)
    return WorkflowComplete.from_dict(outcome.to_dict())
