"""The broker's lifecycle observer: every stat, metric, event and span.

:class:`~repro.broker.core.BrokerCore` and its workflow / forwarding
components *decide*; this module *reports*.  They call one named method
per lifecycle fact ("a replica was placed", "a tasklet finished"),
unconditionally, and never test whether telemetry is on:

* :class:`LifecycleObserver` keeps the :class:`BrokerStats` counters and
  otherwise does nothing — the whole cost of observation with telemetry
  off is one method call per fact.
* :class:`TelemetryObserver` additionally owns the metric bundles, the
  flight recorder, the tracer and the :class:`HealthModel` (straggler
  watchdog, flap detection, scorecards).  A fact ``BrokerStats`` counts
  is not counted again: the exposition reads the field
  (:data:`~repro.obs.telemetry.BROKER_COUNTS`).

Contract: an observer method records and returns — it takes no
decisions, builds no envelopes and never touches broker tables.  The
only things it writes are the opaque trace contexts on the state objects
it is handed (``trace_ctx`` / ``trace_parent`` / ``node_traces``, and a
forward record's ``trace_ctx``), which the core copies onto outbound
envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..common.clock import Clock
from ..common.ids import NodeId
from ..core.results import ExecutionRecord, ExecutionStatus
from ..obs import events as ev
from ..obs.health import FLAP_WINDOW_S, GRADE_RANK, HealthMetrics, HealthModel, overall_status
from ..obs.telemetry import (
    BROKER_COUNTS,
    FEDERATION_COUNTS,
    BrokerMetrics,
    FederationMetrics,
    Telemetry,
    WorkflowMetrics,
    count_stats,
)
from ..obs.trace import TraceContext
from ..transport.message import report_unreadable
from .journal import CompletionRecord, WorkflowOutcome
from .registry import ProviderRecord, ProviderRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..transport.message import Envelope, RegisterProvider
    from .core import _Outstanding, _TaskletState
    from .federation import FederationCore
    from .forwarding import _Forward
    from .scheduling import Strategy
    from .workflows import _WorkflowState


@dataclass
class BrokerStats:
    """Counters the benchmark harness reads after a run."""

    tasklets_submitted: int = 0
    tasklets_completed: int = 0
    tasklets_failed: int = 0
    executions_issued: int = 0
    executions_succeeded: int = 0
    executions_failed: int = 0
    executions_timed_out: int = 0
    executions_lost: int = 0
    replicas_queued: int = 0
    providers_failed: int = 0
    #: Inbound envelopes that could not be read (unknown type, or a field
    #: missing, mistyped or outside its closed set); each changed nothing.
    messages_unreadable: int = 0
    #: Replicas dropped because the scheduling backlog was full (the
    #: owning tasklet is failed fast instead of stranded).
    replicas_overflowed: int = 0
    #: Pending tasklets re-admitted from the work journal at startup.
    tasklets_recovered: int = 0
    #: Journalled completions re-delivered on idempotent resubmit.
    completions_redelivered: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: Automatic in-place journal rewrites (threshold-triggered).
    journal_compactions: int = 0
    # -- federation ---------------------------------------------------------
    #: Submissions placed on a peer broker instead of the local pool.
    tasklets_forwarded: int = 0
    #: Forwards admitted from peer brokers (executed here on their behalf).
    forwards_received: int = 0
    #: Forwarded tasklets whose terminal outcome came back from a peer.
    forwards_completed: int = 0
    #: Forwarded tasklets taken back (peer died/restarted/rejected).
    forwards_reclaimed: int = 0
    #: Pending tasklets adopted from a dead peer's journal.
    tasklets_adopted: int = 0
    #: Completions adopted from a dead peer's journal.
    completions_adopted: int = 0
    # -- workflows ----------------------------------------------------------
    workflows_submitted: int = 0
    workflows_completed: int = 0
    workflows_failed: int = 0
    #: In-flight workflows resumed from the journal at startup.
    workflows_recovered: int = 0
    #: Workflow nodes that reached a terminal state (including memoized).
    workflow_nodes_completed: int = 0
    #: Workflow nodes short-circuited by the result cache or a journalled
    #: completion: zero executions issued.
    workflow_nodes_memoized: int = 0


class LifecycleObserver:
    """Counts lifecycle facts into :class:`BrokerStats`; reports nothing.
    One method per fact (DESIGN.md, "Broker internals", says when each
    fires)."""

    #: Cluster health model; only a :class:`TelemetryObserver` keeps one.
    health: HealthModel | None = None

    def __init__(self) -> None:
        self.stats = BrokerStats()

    # -- the wire boundary, membership and the periodic tick ---------------------

    def message_unreadable(self, envelope: "Envelope", reason: str) -> None:
        """``body_of`` refused an inbound envelope; nothing was changed."""
        self.stats.messages_unreadable += 1

    def provider_registered(self, body: "RegisterProvider", was_known: bool) -> None:
        """A registration was accepted (``was_known``: it is a re-join)."""

    def provider_left(self, provider_id: str) -> None: ...

    def heartbeat(self, record: ProviderRecord | None) -> None:
        """A heartbeat arrived; ``record`` still holds the previous one."""

    def provider_failed(self, provider_id: NodeId) -> None:
        """The failure detector declared a provider dead."""
        self.stats.providers_failed += 1

    def ticked(
        self,
        pending_tasklets: int,
        backlog_replicas: int,
        registry: ProviderRegistry,
        federation: "FederationCore | None",
    ) -> None:
        """A maintenance tick finished (gauges, watchdog sweep)."""

    # -- admission ----------------------------------------------------------------

    def submitted(self) -> None:
        """A consumer's ``SubmitTasklet`` arrived (well-formed or not)."""
        self.stats.tasklets_submitted += 1

    def memo_lookup(self, hit: bool) -> None:
        """The result cache was consulted for new work."""
        if hit:
            self.stats.memo_hits += 1
        else:
            self.stats.memo_misses += 1

    def admitted(self, state: "_TaskletState", trace) -> None:
        """New work entered the tasklet table.  ``trace`` is the parent
        context (wire dict, :class:`TraceContext`, or None = new trace)."""
        if state.origin_broker is not None:
            self.stats.forwards_received += 1

    def journal_appended(self, kind: str) -> None: ...

    def journal_compacted(self, compaction: dict) -> None:
        self.stats.journal_compactions += 1

    def tasklet_memoized(
        self, consumer_id: NodeId, completion: CompletionRecord
    ) -> None:
        """A consumer's submission was answered from the result cache."""
        self.stats.tasklets_completed += 1

    def redelivered(self, consumer_id: NodeId, ok: bool, **ident) -> None:
        """A stored outcome was re-sent for a resubmit (``ident`` names the
        ``tasklet_id`` or ``workflow_id``)."""
        self.stats.completions_redelivered += 1

    def recovered(
        self, pending: int, completions: int, workflows: int, malformed: int
    ) -> None:
        """The broker's own journal was replayed at construction."""
        self.stats.tasklets_recovered = pending
        self.stats.workflows_recovered = workflows

    # -- executions ---------------------------------------------------------------

    def placed(
        self,
        state: "_TaskletState",
        outstanding: "_Outstanding",
        provider: ProviderRecord,
        strategy: "Strategy",
    ) -> None:
        """One replica was assigned to ``provider``."""
        self.stats.executions_issued += 1

    def replicas_queued(self, count: int) -> None:
        """``count`` replicas entered the backlog for the first time."""
        self.stats.replicas_queued += count

    def backlog_overflowed(
        self, state: "_TaskletState", dropped: int, limit: int
    ) -> None:
        self.stats.replicas_overflowed += dropped

    def execution_ended(
        self,
        state: "_TaskletState",
        outstanding: "_Outstanding",
        record: ExecutionRecord | None,
    ) -> None:
        """An execution stopped being outstanding.  ``record`` is None
        for a replica cancelled because the vote was already decided; a
        lost-provider or timeout record was synthesized by the broker,
        an error or rejection was reported by the provider itself."""
        if record is None:
            return
        if record.ok:
            self.stats.executions_succeeded += 1
            return
        self.stats.executions_failed += 1
        if record.status is ExecutionStatus.PROVIDER_LOST:
            self.stats.executions_lost += 1
        elif record.status is ExecutionStatus.TIMEOUT:
            self.stats.executions_timed_out += 1

    def reissued(
        self,
        state: "_TaskletState",
        after: str,
        node: str = "",
        count: int | None = None,
    ) -> None:
        """Replacement replicas are about to be issued (``count`` is only
        given for an undecided vote, which may need several)."""

    def tasklet_done(self, state: "_TaskletState", ok: bool, error: str | None) -> None:
        """A tasklet reached its terminal outcome (before its remaining
        replicas are cancelled)."""
        if ok:
            self.stats.tasklets_completed += 1
        else:
            self.stats.tasklets_failed += 1

    # -- workflows ------------------------------------------------------------------

    def workflow_submitted(self) -> None:
        self.stats.workflows_submitted += 1

    def workflow_opened(self, wf: "_WorkflowState", trace) -> None:
        """A graph (new or recovered) is about to release its first nodes."""

    def workflow_admitted(self, wf: "_WorkflowState", active: int) -> None: ...

    def workflow_recovered(self, wf: "_WorkflowState", done: int) -> None: ...

    def node_released(
        self,
        wf: "_WorkflowState",
        node_id: str,
        state: "_TaskletState",
        ready_at: float,
    ) -> None:
        """A node's tasklet was admitted; its dependencies were met at
        ``ready_at`` (before the admission work, which is the node's)."""

    def node_finished(
        self, wf: "_WorkflowState", node_id: str, outcome: str, attempts: int = 0
    ) -> None:
        """A node reached ``ok`` / ``failed`` / ``memoized``."""
        self.stats.workflow_nodes_completed += 1
        if outcome == "memoized":
            self.stats.workflow_nodes_memoized += 1

    def node_failed_before(self, wf: "_WorkflowState", node_id: str) -> None:
        """A node's journalled failure was replayed (nothing ran)."""

    def workflow_finished(
        self, wf: "_WorkflowState", outcome: WorkflowOutcome, active: int
    ) -> None:
        if outcome.ok:
            self.stats.workflows_completed += 1
        else:
            self.stats.workflows_failed += 1

    # -- federation ---------------------------------------------------------------

    def forwarded(self, forward: "_Forward") -> None:
        """A fresh admission was handed to a peer broker."""
        self.stats.tasklets_forwarded += 1

    def forward_completed(self, forward: "_Forward | None", ok: bool) -> None:
        """A peer returned the terminal outcome of a forward (``forward``
        is None when the work had been reclaimed meanwhile)."""
        self.stats.forwards_completed += 1

    def forward_reclaimed(self, forward: "_Forward", reason: str) -> None:
        """Forwarded work was taken back to run locally."""
        self.stats.forwards_reclaimed += 1

    def forward_cancelled(self, forward: "_Forward") -> None:
        """The tasklet completed while its forward was still in flight
        (e.g. its workflow was cancelled)."""

    def peer_up(self, peer_id: str, epoch: str) -> None: ...

    def peer_down(self, peer_id: str) -> None: ...

    def gossiped(self, direction: str) -> None:
        """One gossip digest was received (``in``) or sent (``out``)."""

    def journal_adopted(
        self, peer_id: str, pending: int, completions: int, malformed: int
    ) -> None:
        """A dead peer's journal was adopted by this broker."""
        self.stats.tasklets_adopted += pending
        self.stats.completions_adopted += completions

    # -- health documents -----------------------------------------------------------

    def provider_grades(self, registry: ProviderRegistry) -> dict[str, int]:
        """Providers per health grade (gossiped to peers)."""
        return {}

    def health_report(self, doc: dict, registry: ProviderRegistry) -> None:
        """Finish the ``/healthz`` document: overall status and detail."""
        doc["status"] = "ok" if doc["providers_alive"] else "unhealthy"


class TelemetryObserver(LifecycleObserver):
    """Reports every lifecycle fact through one :class:`Telemetry`."""

    def __init__(self, telemetry: Telemetry, node_id: NodeId, clock: Clock, federated: bool):
        super().__init__()
        self._node = str(node_id)
        self._clock = clock
        registry = telemetry.registry
        self._metrics = BrokerMetrics(registry)
        self._wf_metrics = WorkflowMetrics(registry)
        self._health_metrics = HealthMetrics(registry, telemetry.events)
        #: Only a federated broker registers the federation families.
        self._fed_metrics = FederationMetrics(registry) if federated else None
        counts = BROKER_COUNTS + (FEDERATION_COUNTS if federated else ())
        count_stats(registry, counts, self.stats)
        self._tracer = telemetry.tracer
        self._events = telemetry.events
        self.health = HealthModel()

    def _event(self, kind: str, node: str, **attrs) -> None:
        self._events.record(kind, node=node, ts=self._clock.now(), **attrs)

    def _span(
        self,
        name: str,
        context: TraceContext,
        start: float,
        parent: TraceContext | None,
        status: str,
        attrs: dict,
        end: float | None = None,
    ) -> None:
        self._tracer.record(
            name=name,
            context=context,
            node=self._node,
            start=start,
            end=self._clock.now() if end is None else end,
            parent_id=parent.span_id if parent else None,
            status=status,
            attrs=attrs,
        )

    def _open(self, target, trace) -> None:
        """Give ``target`` a span context parented on ``trace``."""
        parent = (
            trace
            if isinstance(trace, TraceContext)
            else TraceContext.from_dict(trace)
        )
        target.trace_parent = parent
        target.trace_ctx = (
            self._tracer.child(parent) if parent else self._tracer.start_trace()
        )

    # -- the wire boundary, membership and the periodic tick ---------------------

    def message_unreadable(self, envelope, reason):
        super().message_unreadable(envelope, reason)
        report_unreadable(
            self._events, self._node, self._clock.now(), envelope, reason
        )

    def provider_registered(self, body, was_known):
        self._event(
            ev.NODE_FLAP if was_known else ev.NODE_JOIN,
            body.provider_id,
            device_class=body.device_class,
            capacity=body.capacity,
            benchmark_score=body.benchmark_score,
        )
        if was_known and self.health.record_flap(body.provider_id, self._clock.now()):
            self._event(
                ev.FLAPPING_ALERT,
                body.provider_id,
                flaps=self.health.flap_count(body.provider_id),
                window_s=FLAP_WINDOW_S,
            )

    def provider_left(self, provider_id):
        self._event(ev.NODE_LEAVE, provider_id)

    def heartbeat(self, record):
        if record is not None and record.last_heartbeat > 0:
            self._metrics.heartbeat_gap.observe(
                self._clock.now() - record.last_heartbeat
            )

    def provider_failed(self, provider_id):
        super().provider_failed(provider_id)
        self._event(ev.NODE_DEAD, str(provider_id))

    def ticked(self, pending_tasklets, backlog_replicas, registry, federation):
        # Gauges are sampled once per tick, not per message.
        self._metrics.pending_tasklets.set(pending_tasklets)
        self._metrics.backlog_replicas.set(backlog_replicas)
        self._metrics.providers_alive.set(len(registry.alive_providers()))
        if federation is not None:
            self._fed_metrics.peers_alive.set(len(federation.alive_peers()))
        now = self._clock.now()
        for alert in self.health.watchdog.check(now):
            self._event(
                ev.STRAGGLER_ALERT,
                alert.provider_id,
                execution_id=alert.execution_id,
                tasklet_id=alert.tasklet_id,
                expected_s=round(alert.expected_s, 6),
                elapsed_s=round(alert.elapsed_s, 6),
                multiple=alert.multiple,
            )
        metrics = self._health_metrics
        metrics.stragglers_active.set(len(self.health.watchdog.active_stragglers()))
        counts = {grade: 0 for grade in ("healthy", "degraded", "unhealthy")}
        for card in self.health.scorecards(registry, now):
            metrics.provider_grade.labels(provider=card.provider_id).set(
                GRADE_RANK[card.grade]
            )
            counts[card.grade] = counts.get(card.grade, 0) + 1
        for grade, count in counts.items():
            metrics.providers_by_grade.labels(grade=grade).set(count)

    # -- admission ----------------------------------------------------------------

    def admitted(self, state, trace):
        super().admitted(state, trace)
        self._open(state, trace)

    def journal_appended(self, kind):
        self._metrics.journal_records.labels(kind=kind).inc()

    def journal_compacted(self, compaction):
        super().journal_compacted(compaction)
        self._event(ev.JOURNAL_COMPACTED, self._node, **compaction)

    def tasklet_memoized(self, consumer_id, completion):
        super().tasklet_memoized(consumer_id, completion)
        self._metrics.tasklets_completed.labels(outcome="memoized").inc()
        self._event(
            ev.MEMO_HIT,
            str(consumer_id),
            tasklet_id=completion.tasklet_id,
            memo_key=completion.memo_key,
        )

    def redelivered(self, consumer_id, ok, **ident):
        super().redelivered(consumer_id, ok, **ident)
        self._event(ev.RESULT_REDELIVERED, str(consumer_id), **ident, ok=ok)

    def recovered(self, pending, completions, workflows, malformed):
        super().recovered(pending, completions, workflows, malformed)
        self._event(
            ev.JOURNAL_RECOVERED,
            self._node,
            pending=pending,
            completions=completions,
            workflows=workflows,
            malformed=malformed,
        )

    # -- executions ---------------------------------------------------------------

    def placed(self, state, outstanding, provider, strategy):
        super().placed(state, outstanding, provider, strategy)
        if state.trace_ctx is not None:
            outstanding.trace_ctx = self._tracer.child(state.trace_ctx)
        self.health.watchdog.on_issue(
            execution_id=str(outstanding.execution_id),
            provider_id=str(outstanding.provider_id),
            tasklet_id=str(state.tasklet.tasklet_id),
            fingerprint=state.tasklet.program_fingerprint,
            speed_ips=provider.effective_speed,
            now=outstanding.issued_at,
        )
        self._event(
            ev.PLACEMENT,
            str(outstanding.provider_id),
            execution_id=str(outstanding.execution_id),
            tasklet_id=str(state.tasklet.tasklet_id),
        )
        self._metrics.placements.labels(
            strategy=getattr(strategy, "name", "unknown")
        ).inc()

    def backlog_overflowed(self, state, dropped, limit):
        super().backlog_overflowed(state, dropped, limit)
        self._event(
            ev.BACKLOG_OVERFLOW,
            str(state.consumer_id),
            tasklet_id=str(state.tasklet.tasklet_id),
            dropped=dropped,
            limit=limit,
        )

    def execution_ended(self, state, outstanding, record):
        super().execution_ended(state, outstanding, record)
        execution_id = str(outstanding.execution_id)
        if record is None:
            # The replica's result is no longer needed; closing its span
            # keeps a late ``provider.execute`` parented in the tree.
            self.health.watchdog.on_lost(execution_id)
            status = "cancelled"
        else:
            status = "ok" if record.ok else record.status.value
            self._metrics.execution_results.labels(status=record.status.value).inc()
            self.health.watchdog.on_result(
                execution_id, record.ok, record.instructions
            )
            if record.status in (ExecutionStatus.VM_ERROR, ExecutionStatus.REJECTED):
                self._event(
                    ev.EXECUTION_FAULT,
                    str(record.provider_id),
                    execution_id=execution_id,
                    tasklet_id=str(state.tasklet.tasklet_id),
                    status=record.status.value,
                    error=record.error or "",
                )
        if outstanding.trace_ctx is not None:
            self._span(
                "broker.assign",
                outstanding.trace_ctx,
                outstanding.issued_at,
                state.trace_ctx,
                status,
                {
                    "execution_id": execution_id,
                    "provider_id": str(outstanding.provider_id),
                },
            )

    def reissued(self, state, after, node="", count=None):
        self._metrics.executions_reissued.inc(count or 1)
        self._event(
            ev.REISSUE,
            node,
            tasklet_id=str(state.tasklet.tasklet_id),
            after=after,
            **({"count": count} if count else {}),
        )

    def tasklet_done(self, state, ok, error):
        super().tasklet_done(state, ok, error)
        self._metrics.tasklets_completed.labels(
            outcome="ok" if ok else "failed"
        ).inc()
        elapsed = self._clock.now() - state.submitted_at
        if not ok:
            self._event(
                ev.TASKLET_FAILED,
                str(state.consumer_id),
                tasklet_id=str(state.tasklet.tasklet_id),
                error=error or "",
                attempts=state.issued,
            )
        elif state.qoc.deadline_s is not None and elapsed > state.qoc.deadline_s:
            self._event(
                ev.SLO_BREACH,
                str(state.consumer_id),
                tasklet_id=str(state.tasklet.tasklet_id),
                deadline_s=state.qoc.deadline_s,
                elapsed_s=round(elapsed, 6),
            )
        if state.trace_ctx is not None:
            self._span(
                "broker.tasklet",
                state.trace_ctx,
                state.submitted_at,
                state.trace_parent,
                "ok" if ok else "failed",
                {"tasklet_id": str(state.tasklet.tasklet_id), "attempts": state.issued},
            )

    # -- workflows ------------------------------------------------------------------

    def workflow_opened(self, wf, trace):
        # A recovered graph passes no parent (the consumer's root context
        # died with the previous incarnation) and so gets a fresh trace.
        self._open(wf, trace)

    def workflow_admitted(self, wf, active):
        self._wf_metrics.active.set(active)
        self._event(
            ev.WORKFLOW_ADMITTED,
            str(wf.consumer_id),
            workflow_id=wf.workflow_id,
            nodes=len(wf.spec.nodes),
        )

    def workflow_recovered(self, wf, done):
        self._event(
            ev.WORKFLOW_RECOVERED,
            str(wf.consumer_id),
            workflow_id=wf.workflow_id,
            nodes=len(wf.spec.nodes),
            done=done,
        )

    def node_released(self, wf, node_id, state, ready_at):
        # One ``wf.node`` span per released node, parented on the
        # ``broker.workflow`` span; the node's ``broker.tasklet`` span
        # parents on it, so the whole graph shares the consumer's trace.
        node_ctx = self._tracer.child(wf.trace_ctx)
        wf.node_traces[node_id] = (node_ctx, ready_at)
        state.trace_parent = node_ctx
        self._event(
            ev.WORKFLOW_NODE_RELEASED,
            str(wf.consumer_id),
            workflow_id=wf.workflow_id,
            node_id=node_id,
        )

    def _node_span(self, wf, node_id, status, attempts=0):
        """Record the ``wf.node`` span for one node reaching a terminal
        state.  ``deps`` ride as an attribute so critical-path analysis
        can walk the graph from spans alone."""
        now = self._clock.now()
        entry = wf.node_traces.pop(node_id, None)
        if entry is not None:
            ctx, ready_at = entry
        else:
            # Never released (short-circuited straight from the cache or
            # journal): a zero-length span keeps the graph complete.
            ctx, ready_at = self._tracer.child(wf.trace_ctx), now
        self._span(
            "wf.node",
            ctx,
            ready_at,
            wf.trace_ctx,
            status,
            {
                "workflow_id": wf.workflow_id,
                "node_id": node_id,
                "deps": list(wf.scheduler.graph.deps[node_id]),
                "attempts": attempts,
            },
            end=now,
        )

    def node_finished(self, wf, node_id, outcome, attempts=0):
        self._node_span(wf, node_id, outcome, attempts)
        super().node_finished(wf, node_id, outcome, attempts)
        self._wf_metrics.nodes.labels(outcome=outcome).inc()
        if outcome == "memoized":
            self._event(
                ev.MEMO_HIT,
                str(wf.consumer_id),
                workflow_id=wf.workflow_id,
                node_id=node_id,
            )

    def node_failed_before(self, wf, node_id):
        self._node_span(wf, node_id, "failed")

    def workflow_finished(self, wf, outcome, active):
        super().workflow_finished(wf, outcome, active)
        ok = outcome.ok
        if ok:
            self._event(
                ev.WORKFLOW_COMPLETE,
                str(wf.consumer_id),
                workflow_id=wf.workflow_id,
                nodes=len(wf.spec.nodes),
                memoized=wf.nodes_memoized,
                elapsed_s=round(self._clock.now() - wf.submitted_at, 6),
            )
        else:
            self._event(
                ev.WORKFLOW_FAILED,
                str(wf.consumer_id),
                workflow_id=wf.workflow_id,
                failed_node=outcome.failed_node,
                dependents=len(outcome.dependents),
                error=outcome.error or "",
            )
        # Dependents that never got released can never run: they get
        # zero-length ``failed`` spans so every node of the DAG shows up
        # in the trace.  Nodes still open after that were running when
        # the graph died — cancelled, not failed.
        for node_id in outcome.dependents:
            if node_id not in wf.node_traces:
                self._node_span(wf, node_id, "failed")
        for node_id in list(wf.node_traces):
            self._node_span(wf, node_id, "cancelled")
        self._span(
            "broker.workflow",
            wf.trace_ctx,
            wf.submitted_at,
            wf.trace_parent,
            "ok" if ok else "failed",
            {
                "workflow_id": wf.workflow_id,
                "nodes_total": len(wf.spec.nodes),
                "nodes_memoized": wf.nodes_memoized,
            },
        )
        self._wf_metrics.active.set(active)

    # -- federation ---------------------------------------------------------------

    def _end_forward_span(self, forward, status: str) -> None:
        """Close the ``broker.forward`` span for a resolved forward."""
        if forward is None or forward.trace_ctx is None:
            return
        state = forward.state
        self._span(
            "broker.forward",
            forward.trace_ctx,
            forward.forwarded_at,
            state.trace_ctx,
            status,
            {"tasklet_id": str(state.tasklet.tasklet_id), "peer": forward.peer},
        )

    def forwarded(self, forward):
        super().forwarded(forward)
        state = forward.state
        if state.trace_ctx is not None:
            # The peer parents its ``broker.tasklet`` on this context, so
            # the forwarded execution stays inside the origin's trace.
            forward.trace_ctx = self._tracer.child(state.trace_ctx)
        self._event(
            ev.TASKLET_FORWARDED,
            forward.peer,
            tasklet_id=str(state.tasklet.tasklet_id),
            consumer_id=str(state.consumer_id),
        )

    def forward_completed(self, forward, ok):
        super().forward_completed(forward, ok)
        outcome = "ok" if ok else "failed"
        self._fed_metrics.forward_results.labels(outcome=outcome).inc()
        self._end_forward_span(forward, outcome)

    def forward_reclaimed(self, forward, reason):
        super().forward_reclaimed(forward, reason)
        self._end_forward_span(forward, "reclaimed")
        self._event(
            ev.FORWARD_RECLAIMED,
            forward.peer,
            tasklet_id=str(forward.state.tasklet.tasklet_id),
            reason=reason,
        )

    def forward_cancelled(self, forward):
        # Close its span so the tree stays connected.
        self._end_forward_span(forward, "cancelled")

    def peer_up(self, peer_id, epoch):
        self._event(ev.PEER_UP, peer_id, epoch=epoch)

    def peer_down(self, peer_id):
        self._event(ev.PEER_DOWN, peer_id)

    def gossiped(self, direction):
        self._fed_metrics.gossip.labels(direction=direction).inc()

    def journal_adopted(self, peer_id, pending, completions, malformed):
        super().journal_adopted(peer_id, pending, completions, malformed)
        self._event(
            ev.JOURNAL_HANDOFF,
            peer_id,
            successor=self._node,
            pending=pending,
            completions=completions,
            malformed=malformed,
        )

    # -- health documents -----------------------------------------------------------

    def provider_grades(self, registry):
        grades: dict[str, int] = {}
        for card in self.health.scorecards(registry, self._clock.now()):
            grades[card.grade] = grades.get(card.grade, 0) + 1
        return grades

    def health_report(self, doc, registry):
        now = self._clock.now()
        cards = self.health.scorecards(registry, now)
        doc["status"] = overall_status(cards)
        doc["providers"] = [card.to_dict() for card in cards]
        doc["stragglers"] = [
            {
                "execution_id": watch.execution_id,
                "provider_id": watch.provider_id,
                "tasklet_id": watch.tasklet_id,
                "elapsed_s": round(max(0.0, now - watch.issued_at), 6),
                "expected_s": (
                    round(watch.expected_s, 6)
                    if watch.expected_s is not None
                    else None
                ),
            }
            for watch in self.health.watchdog.active_stragglers()
        ]
