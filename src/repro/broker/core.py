"""The broker: sans-IO mediation between consumers and providers.

:class:`BrokerCore` is a pure state machine: every inbound
:class:`~repro.transport.message.Envelope` (and every timer ``tick``)
returns the list of outbound envelopes to deliver.  It performs no IO and
reads time only through the injected clock, so the identical broker runs
unchanged inside the discrete-event simulator and behind the real TCP
server.

This module owns membership and the tasklet lifecycle, whose four
transitions have one owner each (DESIGN.md, "Broker internals"):
**admit** (:meth:`BrokerCore._admit` — every way work enters), **issue**
(:meth:`BrokerCore._issue` — placement through the pluggable strategy,
backlog when saturated), **end-execution**
(:meth:`BrokerCore._end_execution` — result, rejection, lost provider,
timeout, cancellation; feeds the QoC vote) and **complete**
(:meth:`BrokerCore._complete` — single-shot, journalled, answered to
whoever waits).  :mod:`~repro.broker.workflows` (DAGs) and
:mod:`~repro.broker.forwarding` (federation peers) sit beside it and
reach the lifecycle only through those methods;
:mod:`~repro.broker.observer` does all the reporting — the core states
each fact once, unconditionally, and keeps only the opaque trace contexts
it copies onto envelopes.  Durability (the ``journal is not None``
checks) is a decision, not an observation, and stays here.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from ..common.clock import Clock
from ..common.errors import CodecError, RecordError, TaskletError, TransportError
from ..common.ids import ExecutionId, IdGenerator, NodeId
from ..common.serde import check_packed
from ..core.results import ExecutionRecord, ExecutionStatus, VoteCollector
from ..core.tasklet import Tasklet
from ..obs.telemetry import Telemetry
from ..obs.trace import TraceContext
from ..tvm.bytecode import ProgramTable
from .accounting import CostLedger
from .backlog import Backlog
from .executions import ExecutionIndex
from .federation import FederationConfig, FederationCore
from .forwarding import ForwardingPlane
from .journal import (
    COMPLETED_RETENTION,
    CompletionRecord,
    JournalSnapshot,
    ResultCache,
    WorkJournal,
    memo_key_of,
)
from .observer import LifecycleObserver, TelemetryObserver
from .registry import ProviderRegistry
from .scheduling import QoCStrategy, Strategy
from .workflows import WorkflowCoordinator
from ..transport.message import (
    AssignExecution,
    BROKER_ADDRESS,
    CancelExecution,
    Envelope,
    ExecutionRejected,
    ExecutionResult,
    ForwardComplete,
    Heartbeat,
    HeartbeatAck,
    MessageBody,
    REASON_UNKNOWN_PROVIDER,
    RegisterAck,
    RegisterProvider,
    SubmitAck,
    SubmitTasklet,
    SubmitWorkflow,
    TaskletComplete,
    Unregister,
    body_of,
)


@dataclass
class BrokerConfig:
    """Tunable broker behaviour."""

    heartbeat_interval: float = 1.0
    heartbeat_tolerance: float = 3.0  # intervals of silence before "dead"
    execution_timeout: float | None = 30.0  # per-execution re-issue horizon
    max_queued_replicas: int = 100_000
    #: When False, scheduling trusts self-reported benchmark scores and
    #: never learns from observed execution rates (ablation A1).
    learn_speed: bool = True
    #: Executions kept in flight per provider beyond its slots; hides the
    #: result->assign network round trip for fine-grained Tasklets
    #: (ablation A5).  0 = assign only to genuinely free slots.
    pipeline_depth: int = 0
    #: Straggler watchdog: alert when an outstanding execution exceeds
    #: this multiple of its expected runtime (learned program profile /
    #: provider speed).  Advisory only; re-issue policy is unchanged.
    straggler_multiple: float = 4.0
    #: Floor on expected runtime, absorbing scheduling/transport jitter
    #: for very short programs.
    straggler_min_expected_s: float = 0.05
    #: Serve repeated identical submissions (same program fingerprint,
    #: entry, args, seed, fuel) from the result cache with zero
    #: executions issued.  Safe because Tasklets are deterministic and
    #: side-effect-free; disable to force every submission to execute.
    memoize_results: bool = True


@dataclass
class _Outstanding:
    execution_id: ExecutionId
    provider_id: NodeId
    issued_at: float
    #: Seconds it may run before it is re-issued (None = no limit).
    horizon: float | None = None
    #: Telemetry context of the ``broker.assign`` span (None when disabled).
    trace_ctx: TraceContext | None = None


@dataclass
class _TaskletState:
    """Broker-side lifecycle of one Tasklet.

    ``key`` is the broker-internal identity ``consumer_id/tasklet_id``:
    tasklet ids only need to be unique *per consumer*, never globally.
    """

    key: str
    consumer_id: NodeId
    #: The admitted record, opened once (but for its ``args``, which stay
    #: the bytes they are) — and as it arrived: what is journalled and
    #: forwarded, and whose ``program`` bytes providers are sent.
    tasklet: Tasklet
    wire: dict
    submitted_at: float
    collector: VoteCollector
    #: Admission ordinal: executions that end together are folded in the
    #: order their tasklets were admitted.
    order: int = 0
    outstanding: dict[ExecutionId, _Outstanding] = field(default_factory=dict)
    #: Providers whose execution of this tasklet already failed; re-issue
    #: avoids them while alternatives exist.
    failed_providers: set[NodeId] = field(default_factory=set)
    #: Replicas wanted but not yet placeable (written by ``Backlog`` only).
    pending_replicas: int = 0
    issued: int = 0  # total executions ever issued
    done: bool = False
    #: Computation identity for result memoization (None = not memoizable).
    memo_key: str | None = None
    #: Federation: broker this tasklet was forwarded *from* (we execute on
    #: its behalf and return a ForwardComplete there instead of talking to
    #: the consumer).
    origin_broker: NodeId | None = None
    #: The consumer resubmitted this forwarded-in tasklet directly (it
    #: failed over to this broker while the work was in flight), so the
    #: outcome must be delivered to the consumer as well as the origin.
    direct_consumer: bool = False
    #: Opaque telemetry contexts, written by the observer (None when
    #: telemetry is off): the ``broker.tasklet`` span and the context it
    #: parents on.
    trace_ctx: TraceContext | None = None
    trace_parent: TraceContext | None = None

    @property
    def qoc(self):
        return self.tasklet.qoc

    @property
    def budget(self) -> int:
        return self.qoc.redundancy * self.qoc.max_attempts

    @property
    def budget_left(self) -> int:
        return max(0, self.budget - self.issued - self.pending_replicas)


@dataclass(slots=True)
class _Admission:
    """What ``_admit`` found or made for one submission; besides
    ``tasklet_id``, exactly one of the four outcomes is set."""

    tasklet_id: str
    #: Newly admitted work: the caller acknowledges, then places it.
    state: _TaskletState | None = None
    #: The same computation is already running under this key.
    in_flight: _TaskletState | None = None
    #: Already terminal — remembered from before, or (``memoized``)
    #: answered just now from the result cache with zero executions.
    completion: CompletionRecord | None = None
    memoized: bool = False
    #: Not admissible, and why.
    refusal: str | None = None


class BrokerCore:
    """One broker node (see module docstring)."""

    def __init__(
        self,
        clock: Clock,
        strategy: Strategy | None = None,
        config: BrokerConfig | None = None,
        node_id: NodeId = BROKER_ADDRESS,
        id_generator: IdGenerator | None = None,
        telemetry: Telemetry | None = None,
        journal: WorkJournal | None = None,
        federation: FederationConfig | None = None,
    ):
        self.node_id = node_id
        self.clock = clock
        self.strategy = strategy or QoCStrategy()
        self.config = config or BrokerConfig()
        self.ids = id_generator or IdGenerator()
        self.telemetry = telemetry
        #: Everything reported about the lifecycle goes through here; the
        #: health model and watchdog exist only when telemetry is enabled.
        self.observer: LifecycleObserver = (
            TelemetryObserver(
                telemetry, self.config, node_id, clock, federation is not None
            )
            if telemetry
            else LifecycleObserver()
        )
        self.stats = self.observer.stats
        self.health = self.observer.health
        self.registry = ProviderRegistry(
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_tolerance=self.config.heartbeat_tolerance,
            learn_speed=self.config.learn_speed,
            pipeline_depth=self.config.pipeline_depth,
        )
        self.ledger = CostLedger()
        #: Programs opened here (admission needs entry and arity), each
        #: once: what travels on, and is journalled, are the bytes sent.
        self.programs = ProgramTable()
        self._tasklets: dict[str, _TaskletState] = {}
        self._admissions = itertools.count()
        #: Every outstanding execution, by id, provider and deadline.
        self.executions = ExecutionIndex()
        #: Tasklets with queued replicas, FIFO by first queueing.
        self.backlog = Backlog(self.config.max_queued_replicas)
        #: Durability: journal (may be None), terminal outcomes by tasklet
        #: key (LRU-bounded, serves idempotent resubmits), and the result
        #: memoization cache by computation identity.
        self.journal = journal
        self._completed: "OrderedDict[str, CompletionRecord]" = OrderedDict()
        self.result_cache: ResultCache | None = (
            ResultCache() if self.config.memoize_results else None
        )
        self.workflows = WorkflowCoordinator(self)
        #: Message dispatch: body type -> ``handler(body, envelope)``.
        self._handlers: dict[type, Callable[..., list[Envelope]]] = {
            RegisterProvider: self._on_register,
            Unregister: self._on_unregister,
            Heartbeat: self._on_heartbeat,
            SubmitTasklet: self._on_submit,
            SubmitWorkflow: self.workflows.on_submit,
            ExecutionResult: self._on_result,
            ExecutionRejected: self._on_rejected,
        }
        #: Federation peer table and the plane that acts on it (None =
        #: standalone broker, zero overhead).
        self.federation: FederationCore | None = None
        self.forwarding: ForwardingPlane | None = None
        if federation is not None:
            self.federation = FederationCore(str(node_id), federation)
            self.forwarding = ForwardingPlane(self, self.federation)
            self._handlers.update(self.forwarding.handlers)
        if journal is not None:
            self._recover(journal)

    # -- message dispatch ----------------------------------------------------

    def handle(self, envelope: Envelope) -> list[Envelope]:
        """Process one inbound envelope; returns outbound envelopes.  One
        that cannot be read is reported, sends nothing and touches nothing
        (DESIGN.md, "Wire boundary")."""
        try:
            body = body_of(envelope)
        except TransportError as exc:
            self.observer.message_unreadable(envelope, str(exc))
            return []
        handler = self._handlers.get(type(body))
        # Unknown-but-registered types addressed to us are ignored rather
        # than fatal: forward compatibility with newer peers.
        out = handler(body, envelope) if handler is not None else []
        # Any inbound message may have freed capacity (a result, a
        # registration); give queued replicas a chance immediately rather
        # than waiting for the next tick.  This is the one drain per
        # message: handlers never drain themselves.
        out.extend(self._drain_backlog())
        return out

    def tick(self) -> list[Envelope]:
        """Periodic maintenance: failure detection, timeouts, backlog."""
        now = self.clock.now()
        out: list[Envelope] = []
        for provider_id in self.registry.detect_failures(now):
            self.observer.provider_failed(provider_id)
            out.extend(self._fail_provider_executions(provider_id))
        # Re-issue executions that outlived their timeout/deadline.
        overdue = self.executions.overdue(now)
        out.extend(self._lose(ExecutionStatus.TIMEOUT, overdue, cancel=True))
        if self.forwarding is not None:
            out.extend(self.forwarding.tick(now))
        out.extend(self._drain_backlog())
        self.observer.ticked(
            len(self._tasklets), self.backlog.replicas, self.registry, self.federation
        )
        return out

    # -- membership handlers ----------------------------------------------------

    def _on_register(
        self, body: RegisterProvider, envelope: Envelope
    ) -> list[Envelope]:
        provider_id = NodeId(body.provider_id)
        was_known = provider_id in self.registry
        now = self.clock.now()
        try:
            self.registry.register(
                provider_id=provider_id,
                device_class=body.device_class,
                capacity=body.capacity,
                benchmark_score=body.benchmark_score,
                price=body.price,
                now=now,
                heartbeat_interval=body.heartbeat_interval,
            )
        except TaskletError as exc:
            ack = RegisterAck(accepted=False, reason=str(exc))
            return [self._send(ack, provider_id)]
        out = [self._send(RegisterAck(accepted=True), provider_id)]
        self.observer.provider_registered(body, was_known)
        if was_known:
            # A provider we already know re-registering means it crashed
            # and came back: everything assigned to its previous
            # incarnation is lost.  Failing those executions now (instead
            # of waiting for the execution timeout) is what keeps fast
            # churn — "flapping" shorter than the heartbeat detection
            # window — recoverable.  The fresh registration above means
            # re-issue may legitimately pick this same provider again.
            out.extend(self._fail_provider_executions(provider_id))
        return out

    def _on_unregister(self, body: Unregister, envelope: Envelope) -> list[Envelope]:
        provider_id = NodeId(body.provider_id)
        self.registry.unregister(provider_id)
        self.observer.provider_left(body.provider_id)
        return self._fail_provider_executions(provider_id)

    def _on_heartbeat(self, body: Heartbeat, envelope: Envelope) -> list[Envelope]:
        now = self.clock.now()
        provider_id = NodeId(body.provider_id)
        self.observer.heartbeat(self.registry.get(provider_id))
        if not self.registry.heartbeat(provider_id, now):
            # A provider we do not know (e.g. we restarted): ask it to
            # re-register by rejecting the heartbeat.
            nack = RegisterAck(accepted=False, reason=REASON_UNKNOWN_PROVIDER)
            return [self._send(nack, provider_id)]
        if not body.sent_at:
            return []
        # Timestamped heartbeats ask for an echo (RTT telemetry).
        ack = HeartbeatAck(provider_id=body.provider_id, echo_sent_at=body.sent_at)
        return [self._send(ack, provider_id)]

    # -- admission ----------------------------------------------------------------

    def _on_submit(self, body: SubmitTasklet, envelope: Envelope) -> list[Envelope]:
        src = envelope.src
        self.observer.submitted()
        admission = self._admit_wire(src, body.tasklet, trace=envelope.trace)
        existing = admission.in_flight
        if existing is not None and existing.origin_broker is not None:
            # This in-flight work arrived via a peer forward, and the
            # consumer now talks to this broker directly (failover after
            # the origin died): deliver the outcome to both; the origin
            # gets its ForwardComplete for bookkeeping if it is alive.
            existing.direct_consumer = True
        ack = SubmitAck(
            tasklet_id=admission.tasklet_id,
            accepted=admission.refusal is None,
            reason=admission.refusal or "",
        )
        out = [self._send(ack, src)]
        completion = admission.completion
        if completion is not None:
            # Served from the result cache, or a resubmit of completed
            # work (the consumer reconnected, or the broker restarted
            # before it saw the result): deliver it, execute nothing.
            if admission.memoized:
                self.observer.tasklet_memoized(src, completion)
            else:
                self.observer.redelivered(
                    src, completion.ok, tasklet_id=completion.tasklet_id
                )
            out.append(self._send(self._tasklet_complete_of(completion), src))
        elif admission.state is not None:
            out.extend(self._place(admission.state))
        return out

    def _admit_wire(self, consumer_id: NodeId, wire: dict, **how) -> _Admission:
        """Open the ``tasklet`` record a peer or a journal handed over —
        here, once — and :meth:`_admit` it.  One that does not read is
        refused by its id, which its carrier's boundary saw to."""
        try:
            tasklet = Tasklet.from_dict(wire, self.programs)
        except RecordError as exc:
            return _Admission(wire["tasklet_id"], refusal=str(exc))
        except TaskletError as exc:  # reads as declared, and is no Tasklet
            return _Admission(wire["tasklet_id"], refusal=f"malformed tasklet: {exc}")
        return self._admit(consumer_id, tasklet, wire, **how)

    def _admit(
        self,
        consumer_id: NodeId,
        tasklet: Tasklet,
        wire: dict,
        *,
        trace=None,
        origin: NodeId | None = None,
        workflow: str = "",
        accept: Callable[[], str | None] | None = None,
        replayed: bool = False,
        journalled: bool = False,
    ) -> _Admission:
        """The one admission path: decide what ``tasklet`` — whose wire
        form is ``wire`` — is to this broker and, if it is new work, make
        it a journalled :class:`_TaskletState`.  The caller answers
        whoever asked.

        ``trace`` parents the ``broker.tasklet`` span.  ``origin`` (the
        forwarding peer broker) and ``workflow`` (the owning workflow key)
        tag the journal record, so replay leaves the work to whoever will
        re-drive it.  ``accept`` is asked once the work is known to be new
        and may return a refusal.  ``replayed`` work comes from a journal:
        nobody waits for an answer, so it is never served from the result
        cache and starts no trace; ``journalled`` says its admission
        record is already in this broker's journal.
        """
        tasklet_id = str(tasklet.tasklet_id)
        if tasklet.qoc.local_only:
            return _Admission(
                tasklet_id,
                refusal="local_only tasklets must be executed by the consumer library",
            )
        key = f"{consumer_id}/{tasklet_id}"
        completed = self._completed.get(key)
        if completed is not None:
            return _Admission(tasklet_id, completion=completed)
        fingerprint = tasklet.program_fingerprint
        existing = self._tasklets.get(key)
        if existing is not None:
            node_of = self.workflows.nodes.get(key)
            if node_of is not None:
                # A resubmit of in-flight work is re-acked because the
                # running attempt completes to the resubmitter; a released
                # workflow node completes to its graph, to nobody else.
                return _Admission(
                    tasklet_id,
                    refusal=f"tasklet id is a running node of workflow {node_of.workflow_id!r}",
                )
            admitted = existing.tasklet
            if (
                admitted.program_fingerprint == fingerprint
                and admitted.entry == tasklet.entry
                and admitted.args == tasklet.args  # bytes: 1, 1.0 and True differ
                and admitted.seed == tasklet.seed
                and admitted.fuel == tasklet.fuel
            ):
                return _Admission(tasklet_id, in_flight=existing)
            return _Admission(tasklet_id, refusal="duplicate tasklet id")
        refusal = accept() if accept is not None else None
        if refusal is not None:
            return _Admission(tasklet_id, refusal=refusal)
        now = self.clock.now()
        memo = memo_key_of(fingerprint, tasklet.entry, tasklet.args, tasklet.seed, tasklet.fuel)
        if self.result_cache is not None and memo is not None and not replayed:
            hit = self.result_cache.get(memo)
            if hit is not None:
                self.observer.memo_lookup(hit=True)
                completion = CompletionRecord(
                    key=key,
                    tasklet_id=tasklet_id,
                    consumer_id=str(consumer_id),
                    ok=True,
                    value=hit.value,
                    attempts=0,
                    cost=0.0,
                    memo_key=memo,
                    completed_at=now,
                )
                self._remember_completion(completion)
                return _Admission(tasklet_id, completion=completion, memoized=True)
            if origin is None:
                # (A forwarded tasklet's miss was counted by its origin.)
                self.observer.memo_lookup(hit=False)
        state = _TaskletState(
            key=key,
            consumer_id=consumer_id,
            tasklet=tasklet,
            wire=wire,
            submitted_at=now,
            collector=VoteCollector(tasklet.qoc.redundancy),
            order=next(self._admissions),
            memo_key=memo,
            origin_broker=origin,
        )
        if not replayed:
            self.observer.admitted(state, trace)
        self._tasklets[key] = state
        if self.journal is not None and not journalled:
            self.journal.record_admitted(
                key,
                str(consumer_id),
                wire,
                ts=now,
                origin=str(origin or ""),
                workflow=workflow,
            )
            self.observer.journal_appended("admitted")
        return _Admission(tasklet_id, state=state)

    def _place(self, state: _TaskletState) -> list[Envelope]:
        """Start a fresh admission: on a peer broker when no local
        provider has a free slot and the gossip view says a peer does (the
        admission stays journalled here — ours to survive), else here."""
        peer = self.forwarding.target() if self.forwarding is not None else None
        if peer is not None:
            return [self.forwarding.forward(state, peer, self.clock.now())]
        return self._issue(state, state.qoc.redundancy)

    def _tasklet_complete_of(
        self, completion: CompletionRecord, executions: list[dict] | None = None
    ) -> TaskletComplete:
        """The consumer-facing terminal message for one outcome (stored
        outcomes are re-delivered without the execution list)."""
        return TaskletComplete(
            tasklet_id=completion.tasklet_id,
            ok=completion.ok,
            value=completion.value,
            error=completion.error,
            attempts=completion.attempts,
            cost=completion.cost,
            executions=executions or [],
        )

    def _remember_completion(
        self, completion: CompletionRecord, journal_write: bool = True
    ) -> None:
        """Index (and optionally journal) one terminal outcome."""
        self._completed[completion.key] = completion
        self._completed.move_to_end(completion.key)
        while len(self._completed) > COMPLETED_RETENTION:
            self._completed.popitem(last=False)
        if (
            completion.ok
            and completion.memo_key
            and self.result_cache is not None
        ):
            self.result_cache.put(completion.memo_key, completion)
        if journal_write and self.journal is not None:
            self.journal.record_complete(completion)
            self.observer.journal_appended("complete")
            self._maybe_compact_journal()

    def _maybe_compact_journal(self) -> None:
        """Auto-compact the journal when its thresholds are crossed.

        Called after completion writes (the moment ``admitted`` records
        become droppable) and never while holding the journal lock —
        ``compact`` takes it itself.
        """
        compaction = self.journal.maybe_compact()
        if compaction is not None:
            self.observer.journal_compacted(compaction)

    # -- crash recovery ---------------------------------------------------------

    def _recover(self, journal: WorkJournal) -> None:
        """Replay the journal: re-index completions, re-admit pending work.

        Runs during construction, before any provider can register, so
        re-issuing pending tasklets only queues replicas in the backlog
        (the envelopes are discarded); they are placed as providers
        (re)join.  The SubmitAcks that re-admission would imply are not
        re-sent — the consumer already got them from the previous
        incarnation, and the resubmit path answers anyone who asks again.
        """
        snapshot = journal.replay()
        completions, pending, _ = self._absorb(snapshot, own=True)
        self.observer.recovered(
            pending, completions, self.workflows.recover(snapshot), snapshot.malformed
        )

    def _absorb(
        self, snapshot: JournalSnapshot, own: bool
    ) -> tuple[int, int, list[Envelope]]:
        """Take over a journal's tasklets — this broker's ``own`` at
        recovery, a dead peer's at adoption (then journalled here too):
        completions become re-deliverable, pending admissions are
        re-admitted and issued.  Returns both counts and the envelopes."""
        completions = pending = 0
        for completion in snapshot.completions.values():
            if completion.key in self._completed or completion.key in self._tasklets:
                continue
            self._remember_completion(completion, journal_write=not own)
            completions += 1
        out: list[Envelope] = []
        for entry in snapshot.pending:
            if entry.origin:
                # Work a federation peer forwarded to the journal's
                # broker.  The origin still holds the durable admission
                # and reclaims it itself, so re-admitting here would
                # double-execute.
                continue
            state = self._admit_wire(
                NodeId(entry.consumer_id), entry.tasklet, replayed=True, journalled=own
            ).state
            if state is not None:
                pending += 1
                out.extend(self._issue(state, state.qoc.redundancy))
        return completions, pending, out

    # -- execution lifecycle ------------------------------------------------------

    def _issue(self, state: _TaskletState, count: int) -> list[Envelope]:
        """Place up to ``count`` replicas; queue what cannot be placed."""
        if state.done or count <= 0:
            return []
        out = self._assign(state, count)
        missing = count - len(out)
        if missing > 0:
            overflow = self.backlog.queue(state, missing)
            if missing > overflow:
                self.observer.replicas_queued(missing - overflow)
            if overflow > 0:
                # The backlog is full.  Dropping the replicas silently
                # would strand the tasklet (nothing outstanding, nothing
                # pending, no TaskletComplete — the consumer waits
                # forever), so account for the drop and, if nothing else
                # is carrying this tasklet, fail it now.
                self.observer.backlog_overflowed(
                    state, overflow, self.config.max_queued_replicas
                )
                if not state.outstanding and state.pending_replicas == 0:
                    out.extend(
                        self._complete(
                            state,
                            ok=False,
                            error=(
                                f"scheduling backlog full: {overflow} replica(s) "
                                "dropped (max_queued_replicas="
                                f"{self.config.max_queued_replicas})"
                            ),
                        )
                    )
        return out

    def _assign(self, state: _TaskletState, count: int) -> list[Envelope]:
        """Assign up to ``count`` replicas of ``state`` to providers with
        a free slot — one envelope per replica placed, possibly none.
        The placement half of :meth:`_issue`, and all the drain needs."""
        if self.registry.free_capacity <= 0:
            return []
        running = {
            outstanding.provider_id for outstanding in state.outstanding.values()
        }
        all_views = self.registry.views(require_free_slot=True)
        views = [
            view
            for view in all_views
            if view.provider_id not in running
            and view.provider_id not in state.failed_providers
        ]
        if not views:
            # Every candidate already failed this tasklet once; retrying
            # them beats giving up (transient faults are common).
            views = [
                view for view in all_views if view.provider_id not in running
            ]
        if not views:
            return []
        # ``select`` is looked up on the instance per call: tracing shims
        # patch it there.
        chosen = self.strategy.select(views, count, state.qoc)
        out: list[Envelope] = []
        now, tasklet = self.clock.now(), state.tasklet
        horizon = self._horizon(state)
        for provider_id in chosen:
            record = self.registry.get(provider_id)
            if record is None or not record.alive:
                # Chosen, but the provider died between the registry
                # snapshot and placement (or a strategy returned a stale
                # id).  Not counting it as placed leaves the replica to
                # the caller, so it queues in the backlog instead of
                # silently vanishing from the attempt budget.
                continue
            execution_id = self.ids.next_execution()
            self.registry.acquire(record)
            outstanding = _Outstanding(
                execution_id=execution_id,
                provider_id=provider_id,
                issued_at=now,
                horizon=horizon,
            )
            state.outstanding[execution_id] = outstanding
            state.issued += 1
            self.executions.add(execution_id, state.key, provider_id, now, horizon)
            self.observer.placed(state, outstanding, record, self.strategy)
            envelope = self._send(
                AssignExecution(
                    execution_id=execution_id,
                    tasklet_id=tasklet.tasklet_id,
                    consumer_id=state.consumer_id,
                    program=state.wire["program"],
                    program_fingerprint=tasklet.program_fingerprint,
                    entry=tasklet.entry,
                    args=tasklet.args,
                    seed=tasklet.seed,
                    fuel=tasklet.fuel,
                ),
                provider_id,
            )
            if outstanding.trace_ctx is not None:
                envelope.trace = outstanding.trace_ctx.to_dict()
            out.append(envelope)
        return out

    def _drain_backlog(self) -> list[Envelope]:
        """Give queued replicas the capacity that has come free."""
        return self.backlog.drain(self._tasklets, self.registry, self._assign)

    def _on_result(self, body: ExecutionResult, envelope: Envelope) -> list[Envelope]:
        execution_id = ExecutionId(body.execution_id)
        state = self._tasklets.get(self.executions.tasklet_of(execution_id) or "")
        outstanding = state.outstanding.get(execution_id) if state else None
        if outstanding is None:
            return []  # late result for an already-decided tasklet
        status, value, error = ExecutionStatus(body.status), None, body.error
        if status is ExecutionStatus.SUCCESS:  # (only a success carries a value)
            try:
                check_packed(body.value, whole_none=True)  # (None: a void function's)
                value = body.value
            except CodecError as exc:
                # No provider packs this.  Decided before anything is released, so
                # the execution ends as any failed one does: re-issued or failed,
                # and graded against its provider.
                status, error = ExecutionStatus.VM_ERROR, f"result is not a Tasklet value: {exc}"
        record = ExecutionRecord(
            execution_id=execution_id,
            tasklet_id=state.tasklet.tasklet_id,
            provider_id=outstanding.provider_id,  # whoever the body names
            status=status,
            value=value,
            error=error,
            instructions=body.instructions,
            started_at=body.started_at,
            finished_at=body.finished_at,
        )
        return self._end_execution(state, outstanding, record)

    def _on_rejected(
        self, body: ExecutionRejected, envelope: Envelope
    ) -> list[Envelope]:
        result = ExecutionResult(
            execution_id=body.execution_id,
            tasklet_id=body.tasklet_id,
            provider_id=body.provider_id,
            status=ExecutionStatus.REJECTED.value,
            error=body.reason or "rejected by provider",
        )
        return self._on_result(result, envelope)

    def _end_execution(
        self,
        state: _TaskletState,
        outstanding: _Outstanding,
        record: ExecutionRecord | None,
        cancel: bool = False,
    ) -> list[Envelope]:
        """The one execution-end path: ``outstanding`` stops counting
        against its tasklet and its provider, whatever ended it.

        ``record`` is folded into the vote — the provider's own, or one
        synthesized for a lost provider or a timeout; None = the tasklet
        is already decided and the replica's result no longer matters.
        ``cancel`` also tells the provider.
        """
        out = self._release(state, outstanding, record, cancel)
        if record is not None:
            out.extend(self._fold(state, [record]))
        return out

    def _release(
        self,
        state: _TaskletState,
        outstanding: _Outstanding,
        record: ExecutionRecord | None,
        cancel: bool,
    ) -> list[Envelope]:
        """The bookkeeping half of :meth:`_end_execution`: everything but
        the vote, which :meth:`_lose` casts once for all it ends."""
        state.outstanding.pop(outstanding.execution_id, None)
        self.executions.remove(
            outstanding.execution_id, outstanding.provider_id, outstanding.horizon
        )
        out: list[Envelope] = []
        if cancel:
            out.append(
                self._send(
                    CancelExecution(execution_id=outstanding.execution_id),
                    outstanding.provider_id,
                )
            )
        provider = self.registry.get(outstanding.provider_id)
        if provider is not None:
            # The single accounting path: frees the slot (no phantom
            # ``outstanding`` load if the provider re-registers later)
            # and grades every failure mode into ``reliability`` alike; a
            # cancelled replica says nothing about its provider.
            self.registry.release(provider)
            if record is not None:
                provider.record_result(
                    record.ok,
                    record.instructions,
                    record.duration,
                    learn_speed=self.registry.learn_speed,
                )
                if record.ok:
                    self.ledger.charge(
                        consumer_id=state.consumer_id,
                        provider_id=record.provider_id,
                        tasklet_key=state.key,
                        instructions=record.instructions,
                        price=provider.price,
                    )
        self.observer.execution_ended(state, outstanding, record)
        return out

    def _fold(
        self, state: _TaskletState, records: list[ExecutionRecord]
    ) -> list[Envelope]:
        """Update the vote with the executions that ended together and
        drive the tasklet toward completion.

        All of ``records`` are in the vote before anything is re-issued
        or decided, so no replacement lands on a provider that has just
        failed this tasklet and a final failure reports every execution.
        """
        if state.done:
            return []
        for record in records:
            if not record.ok:
                state.failed_providers.add(record.provider_id)
            state.collector.add(record)
        winner = state.collector.winner()
        if winner is not None:
            return self._complete(state, ok=True, value=winner[0].value)

        out: list[Envelope] = []
        for record in records:
            if not record.ok and state.budget_left > 0:
                self.observer.reissued(
                    state, after=record.status.value, node=str(record.provider_id)
                )
                out.extend(self._issue(state, 1))

        if not state.outstanding and state.pending_replicas == 0:
            if state.budget_left > 0:
                # Successful-but-undecided vote (e.g. r=3 with one success
                # and two losses): spend remaining budget on more replicas.
                needed = max(
                    1, state.collector.required - self._best_group_size(state)
                )
                self.observer.reissued(state, after="undecided_vote", count=needed)
                out.extend(self._issue(state, needed))
            if not state.outstanding and state.pending_replicas == 0:
                out.extend(self._complete_failed(state))
        return out

    @staticmethod
    def _best_group_size(state: _TaskletState) -> int:
        groups = state.collector.successes.values()
        return max((len(group) for group in groups), default=0)

    def _complete_failed(self, state: _TaskletState) -> list[Envelope]:
        if state.collector.disagreement():
            error = (
                "replicas disagreed and no majority formed "
                f"({len(state.collector.successes)} distinct values)"
            )
        elif state.collector.successes:
            error = (
                f"insufficient agreeing replicas: needed "
                f"{state.collector.required}, got {self._best_group_size(state)}"
            )
        else:
            failures = state.collector.failures
            last_error = failures[-1].error if failures else "no executions possible"
            error = f"all {len(failures)} executions failed; last: {last_error}"
        return self._complete(state, ok=False, error=error)

    def _complete(
        self,
        state: _TaskletState,
        ok: bool,
        value=None,
        error: str | None = None,
        remote: ForwardComplete | None = None,
    ) -> list[Envelope]:
        """Finish one tasklet.  ``remote`` is the outcome of a *forwarded*
        execution coming back from a peer broker: attempts, cost and
        execution records happened there, not in this broker's books."""
        if state.done:
            # Completion is single-shot: a caller further up the stack
            # (e.g. _fold re-checking after a failed _issue)
            # already finished this tasklet.
            return []
        state.done = True
        self.observer.tasklet_done(state, ok, error)
        if self.forwarding is not None:
            self.forwarding.forget(state)
        out: list[Envelope] = []
        for outstanding in list(state.outstanding.values()):
            out.extend(self._end_execution(state, outstanding, None, cancel=True))
        self.backlog.forget(state)
        attempts, cost = state.issued, self.ledger.pop_cost_of(state.key)
        # The winning value travels once, as the completion's own (the bytes are the vote).
        executions = [
            record.to_dict(with_value=not (ok and record.ok and record.value == value))
            for record in state.collector.all_records
        ]
        executed_by = str(self.node_id) if state.issued > 0 else ""
        if remote is not None:
            attempts, cost = remote.attempts, remote.cost
            executions, executed_by = list(remote.executions), remote.executed_by
        completion = CompletionRecord(
            key=state.key,
            tasklet_id=str(state.tasklet.tasklet_id),
            consumer_id=str(state.consumer_id),
            ok=ok,
            value=value,
            error=error,
            attempts=attempts,
            cost=cost,
            memo_key=state.memo_key,
            completed_at=self.clock.now(),
            executed_by=executed_by,
        )
        self._remember_completion(completion)
        del self._tasklets[state.key]
        # Who is waiting for this outcome?
        workflow = self.workflows.nodes.pop(state.key, None)
        if workflow is not None:
            # A workflow node: the DAG layer takes it from here; no
            # TaskletComplete is sent.
            out.extend(self.workflows.node_terminal(workflow, completion))
            return out
        answer = self._tasklet_complete_of(completion, executions)
        if state.origin_broker is not None:
            # Forwarded work: the consumer belongs to the origin broker,
            # so the outcome flows back there — and to the consumer too if
            # it has meanwhile resubmitted the work here directly.
            if state.direct_consumer:
                out.append(self._send(answer, state.consumer_id))
            complete = self._send(
                self.forwarding.complete_of(completion, executions),
                state.origin_broker,
            )
        else:
            complete = self._send(answer, state.consumer_id)
        if state.trace_ctx is not None:
            complete.trace = state.trace_ctx.to_dict()
        out.append(complete)
        return out

    # -- failure handling ---------------------------------------------------------

    def _fail_provider_executions(self, provider_id: NodeId) -> list[Envelope]:
        """Convert every outstanding execution on a dead provider into a
        PROVIDER_LOST record and let the vote logic re-issue."""
        return self._lose(
            ExecutionStatus.PROVIDER_LOST,
            self.executions.assigned_to(provider_id),
        )

    def _horizon(self, state: _TaskletState) -> float | None:
        """Seconds an execution of ``state`` may run before re-issue."""
        horizon = self.config.execution_timeout
        deadline = state.qoc.deadline_s
        if deadline is not None:
            horizon = deadline if horizon is None else min(horizon, deadline)
        return horizon

    def _lose(
        self,
        status: ExecutionStatus,
        gone: set[ExecutionId],
        cancel: bool = False,
    ) -> list[Envelope]:
        """End the live executions ``gone`` — their provider will never
        report on them — with a ``status`` record each."""
        affected = {self.executions.tasklet_of(execution_id) for execution_id in gone}
        out: list[Envelope] = []
        now = self.clock.now()
        lost: list[tuple[_TaskletState, list[ExecutionRecord]]] = []
        for state in sorted(
            (self._tasklets[key] for key in affected), key=lambda s: s.order
        ):
            records: list[ExecutionRecord] = []
            for outstanding in list(state.outstanding.values()):
                if outstanding.execution_id not in gone:
                    continue
                record = ExecutionRecord(
                    execution_id=outstanding.execution_id,
                    tasklet_id=state.tasklet.tasklet_id,
                    provider_id=outstanding.provider_id,
                    status=status,
                    error=(
                        "provider failed or left"
                        if status is ExecutionStatus.PROVIDER_LOST
                        else f"no result within {outstanding.horizon}s"
                    ),
                    started_at=outstanding.issued_at,
                    finished_at=now,
                )
                out.extend(self._release(state, outstanding, record, cancel))
                records.append(record)
            lost.append((state, records))
        # Every lost slot is free before any vote is folded: folding
        # re-issues, and a re-issue landing on a provider's fresh record
        # ahead of that provider's next loss would be uncounted by it.
        for state, records in lost:
            out.extend(self._fold(state, records))
        return out

    # -- monitoring ---------------------------------------------------------------

    def health_snapshot(self) -> dict:
        """The ``/healthz`` document: pool status plus provider scorecards.

        Works with telemetry disabled too (basic liveness only), so the
        ObsServer health callback never depends on construction order.
        """
        now = self.clock.now()
        records = list(self.registry.records())
        doc: dict = {
            "role": "broker",
            "node": str(self.node_id),
            "providers_total": len(records),
            "providers_alive": sum(1 for record in records if record.alive),
            "pending_tasklets": len(self._tasklets),
            "pending_workflows": self.pending_workflows,
        }
        if self.workflows.active:
            doc["workflows"] = self.workflows.describe(now)
        if self.forwarding is not None:
            doc["federation"] = self.forwarding.describe(now)
        self.observer.health_report(doc, records)
        return doc

    def _send(self, body: MessageBody, dst: NodeId) -> Envelope:
        return body.envelope(src=self.node_id, dst=dst)

    @property
    def pending_tasklets(self) -> int:
        """Tasklets admitted but not yet completed (for tests/monitoring)."""
        return len(self._tasklets)

    @property
    def pending_workflows(self) -> int:
        """Workflows admitted but not yet terminal (for tests/monitoring)."""
        return len(self.workflows.active)
