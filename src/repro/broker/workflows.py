"""Workflow coordination: broker-owned DAGs of Tasklets (sans-IO).

:class:`WorkflowCoordinator` owns every graph a consumer submitted: the
:class:`~repro.dag.scheduler.DagScheduler` per workflow, the released
nodes, and the resumption of a graph its journal left in flight (its
journal lines and outcome are the core's ``durability``'s).  A node is an
ordinary tasklet under the key ``consumer_id/workflow_id:node_id``; the
coordinator reaches the tasklet lifecycle only through the core's
``_admit`` / ``_place`` / ``_complete`` and is told about node outcomes
through :meth:`node_terminal`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..common.errors import TaskletError, WorkflowSpecError
from ..common.ids import NodeId
from ..core.qoc import read_qoc
from ..core.tasklet import TaskletFields
from ..dag.scheduler import DONE, DagScheduler
from ..dag.spec import WorkflowGraph, WorkflowSpec
from ..obs.trace import TraceContext
from ..tvm.bytecode import CompiledProgram
from ..transport.message import (
    Envelope,
    SubmitWorkflow,
    WorkflowAck,
    WorkflowComplete,
)
from .journal import CompletionRecord, WorkflowAdmitted, WorkflowOutcome

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

    # -- submission ------------------------------------------------------------

    def on_submit(self, body: SubmitWorkflow, envelope: Envelope) -> list[Envelope]:
        core, src = self.core, envelope.src
        core.observer.workflow_submitted()
        try:
            graph, programs = self._read(body.workflow)
        except WorkflowSpecError as exc:
            # (The id is a string: the message would not have read otherwise.)
            refusal = f"invalid workflow: {exc}"
            return [self._refuse(src, body.workflow["workflow_id"], refusal)]
        spec = graph.spec
        key = f"{src}/{spec.workflow_id}"
        outcome = core.durability.workflow_outcomes.get(key)
        if outcome is not None:
            # Idempotent resubmit of a finished workflow (consumer
            # reconnected, or the broker restarted between the terminal
            # message and the consumer seeing it): redeliver the stored
            # outcome, run nothing.
            complete = _complete_message(outcome)
            core.observer.redelivered(
                src, complete.ok, workflow_id=complete.workflow_id
            )
            return [core._send(complete, src)]
        existing = self.active.get(key)
        if existing is not None:
            # Same graph resubmitted while in flight: the running instance
            # completes to this consumer, so there is nothing to say now.
            # (Content identity is hashed here, the one place that asks.)
            if existing.spec.fingerprint() == spec.fingerprint():
                return []
            return [self._refuse(src, spec.workflow_id, "duplicate workflow id")]
        wf = self._open(src, graph, programs, envelope.trace)
        core.durability.workflow_admitted(wf)
        core.observer.workflow_admitted(wf, len(self.active))
        return self._release(wf, wf.scheduler.start(), core.clock.now())

    def _refuse(self, dst: NodeId, workflow_id: str, refusal: str) -> Envelope:
        """The one answer to a submission that is not its outcome (an
        accepted workflow is answered by its completion alone)."""
        ack = WorkflowAck(workflow_id=workflow_id, accepted=False, reason=refusal)
        return self.core._send(ack, dst)

    def _read(self, workflow: dict) -> tuple[WorkflowGraph, dict[str, CompiledProgram]]:
        """Open a ``workflow`` record — the spec once, its graph walked
        once, its programs if the broker has not yet — or
        :class:`WorkflowSpecError`: it does not read, is no valid graph, or
        a program is not what its key says."""
        spec = WorkflowSpec.from_dict(workflow)
        graph = spec.validate()
        return graph, spec.open_programs(self.core.programs)

    def _open(
        self,
        consumer_id: NodeId,
        graph: WorkflowGraph,
        programs: dict[str, CompiledProgram],
        trace,
    ) -> _WorkflowState:
        spec = graph.spec
        wf = _WorkflowState(
            key=f"{consumer_id}/{spec.workflow_id}",
            workflow_id=spec.workflow_id,
            consumer_id=consumer_id,
            spec=spec,
            programs=programs,
            scheduler=DagScheduler(graph),
            submitted_at=self.core.clock.now(),
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
        worklist = deque(node_ids)
        while worklist and not wf.done:
            node_id = worklist.popleft()
            node = wf.scheduler.graph.nodes[node_id]
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
                # The same fields, read — but for the program, which was
                # opened at admission (where entry and arity were checked, too).
                tasklet = TaskletFields.checked(
                    wf.programs[node.program_fingerprint], wire["tasklet_id"],
                    node.program_fingerprint, node.entry, wire["args"],
                    read_qoc(wire["qoc"]), node.seed, node.fuel,
                )
            except TaskletError as exc:  # a predecessor's output is no Tasklet value
                error = f"node {node_id!r} could not be released: {exc}"
                out.extend(self._fail(wf, node_id, error))
                break
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

    # -- node and workflow completion ----------------------------------------------

    def node_terminal(
        self, wf: _WorkflowState, outcome: CompletionRecord
    ) -> list[Envelope]:
        """A node's tasklet reached a terminal outcome: it feeds the graph
        (successor release / workflow failure), not a consumer future."""
        node_id = wf.running.pop(outcome.key)
        if wf.done:
            return []  # a sibling cancelled by ``_finish``
        self.core.observer.node_finished(
            wf, node_id, "ok" if outcome.ok else "failed", outcome.attempts
        )
        if outcome.ok:
            released = wf.scheduler.complete(node_id, outcome.value)
            return self._release(wf, released, self.core.clock.now())
        return self._fail(wf, node_id, outcome.error or f"node {node_id!r} failed")

    def _finish(
        self,
        wf: _WorkflowState,
        ok: bool,
        error: str | None = None,
        failed_node: str = "",
        dependents: list[str] | None = None,
    ) -> list[Envelope]:
        """Terminate one workflow: cancel stragglers, remember, notify."""
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
        core.durability.workflow_completed(wf.key, outcome)
        del self.active[wf.key]
        core.observer.workflow_finished(wf, outcome, len(self.active))
        out.append(core._send(_complete_message(outcome), wf.consumer_id))
        return out

    # -- crash recovery ------------------------------------------------------------

    def _resume(self, entry: WorkflowAdmitted) -> bool:
        """Rebuild one in-flight workflow during crash recovery.

        Node completions already replayed into the core short-circuit
        through ``_release`` (zero re-execution); the still-missing
        frontier re-issues into the backlog.  Envelopes are discarded —
        the consumer re-learns the outcome by resubmitting.
        """
        try:
            graph, programs = self._read(entry.workflow)
        except WorkflowSpecError:
            return False
        consumer_id = NodeId(entry.consumer_id)
        key = f"{consumer_id}/{graph.spec.workflow_id}"
        if key in self.active or key in self.core.durability.workflow_outcomes:
            return False
        wf = self._open(consumer_id, graph, programs, None)
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
