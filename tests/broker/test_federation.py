"""Broker federation: peer table, forwarding, reclaim, journal handoff.

Two (or three) sans-IO BrokerCores joined by an in-memory envelope
router — no sockets, no threads, virtual time — so every exactly-once
claim is checked deterministically.
"""

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.federation import (
    FederationConfig,
    FederationCore,
    PEER_CAME_UP,
    PEER_EPOCH_CHANGED,
)
from repro.broker.journal import WorkJournal, replay_journal
from repro.broker.scheduling import LeastLoadedStrategy
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import opened, packed
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.dag.spec import WorkflowBuilder
from repro.transport.message import (
    AssignExecution,
    ExecutionResult,
    ForwardAck,
    ForwardComplete,
    ForwardTasklet,
    RegisterProvider,
    SubmitTasklet,
    SubmitWorkflow,
    TaskletComplete,
    WorkflowComplete,
    body_of,
)
from repro.tvm.compiler import compile_source

PROGRAM = compile_source("func main(x: int) -> int { return x * 2; }")


class TestFederationCore:
    """The sans-IO peer table in isolation."""

    def make(self, peers=("b2", "b3")):
        return FederationCore(
            "b1", FederationConfig(peers=list(peers), epoch="e1")
        )

    def test_first_sighting_is_peer_up(self):
        fed = self.make()
        assert fed.observe("b2", "x1", now=1.0) == [PEER_CAME_UP]
        assert fed.observe("b2", "x1", now=2.0) == []

    def test_epoch_change_detected(self):
        fed = self.make()
        fed.observe("b2", "x1", now=1.0)
        transitions = fed.observe("b2", "x2", now=2.0)
        assert PEER_EPOCH_CHANGED in transitions

    def test_self_sightings_ignored(self):
        fed = self.make()
        assert fed.observe("b1", "whatever", now=1.0) == []
        assert "b1" not in fed.peers

    def test_unknown_peer_added_defensively(self):
        fed = self.make(peers=["b2"])
        fed.observe("b9", "x1", now=1.0)
        assert "b9" in fed.peers

    def test_silence_past_horizon_is_death(self):
        fed = self.make()
        fed.observe("b2", "x1", now=0.0)
        dead, _ = fed.tick(now=2.0)  # horizon = 3 * 1.0s
        assert dead == []
        dead, _ = fed.tick(now=3.5)
        assert dead == ["b2"]
        # Already-dead peers are not re-reported.
        dead, _ = fed.tick(now=4.5)
        assert dead == []

    def test_choose_peer_prefers_free_capacity(self):
        fed = self.make()
        fed.observe("b2", "x1", now=0.0)
        fed.observe("b3", "y1", now=0.0)
        fed.update_load("b2", 2, 2, free_slots=1,
                        pending_tasklets=0, backlog_replicas=0, grades={})
        fed.update_load("b3", 2, 2, free_slots=5,
                        pending_tasklets=0, backlog_replicas=0, grades={})
        assert fed.choose_peer() == "b3"

    def test_choose_peer_skips_dead_and_saturated(self):
        fed = self.make()
        fed.observe("b2", "x1", now=0.0)
        fed.update_load("b2", 2, 2, free_slots=0,
                        pending_tasklets=3, backlog_replicas=1, grades={})
        assert fed.choose_peer() is None  # saturated
        fed.update_load("b2", 2, 2, free_slots=2,
                        pending_tasklets=0, backlog_replicas=0, grades={})
        fed.tick(now=10.0)  # silence kills b2
        assert fed.choose_peer() is None  # dead

    def test_successor_is_lowest_live_id(self):
        fed = self.make()
        fed.observe("b2", "x1", now=0.0)
        fed.observe("b3", "y1", now=0.0)
        assert fed.successor_of("b2") == "b1"
        fed_b0 = FederationCore(
            "b0", FederationConfig(peers=["b1", "b2"], epoch="e0")
        )
        fed_b0.observe("b1", "e1", now=0.0)
        assert fed_b0.successor_of("b1") == "b0"


class FedHarness:
    """Federated BrokerCores joined by an in-memory envelope router.

    Envelopes addressed to a live broker are delivered recursively;
    everything else (consumer/provider traffic) is returned to the test.
    Brokers in ``down`` silently drop their mail — the federation sees
    exactly what a crashed TCP broker would produce: silence.
    """

    def __init__(self, ids=("b1", "b2"), journal_dir=None, with_journals=False,
                 peer_journals=False):
        self.clock = VirtualClock()
        self.ids = list(ids)
        self.down: set[str] = set()
        self.journal_dir = journal_dir
        self.journals: dict[str, WorkJournal] = {}
        self.cores: dict[str, BrokerCore] = {}
        self._tasklet_counter = 0
        for broker_id in self.ids:
            self.cores[broker_id] = self._build_core(
                broker_id, epoch=f"{broker_id}-epoch1",
                with_journal=with_journals, peer_journals=peer_journals,
            )

    def journal_path(self, broker_id):
        return str(self.journal_dir / f"{broker_id}.jsonl")

    def _build_core(self, broker_id, epoch, with_journal=False,
                    peer_journals=False):
        journal = None
        if with_journal:
            journal = WorkJournal(self.journal_path(broker_id))
            self.journals[broker_id] = journal
        federation = FederationConfig(
            peers=[other for other in self.ids if other != broker_id],
            epoch=epoch,
            peer_journals=(
                {
                    other: self.journal_path(other)
                    for other in self.ids
                    if other != broker_id
                }
                if peer_journals
                else {}
            ),
        )
        return BrokerCore(
            clock=self.clock,
            strategy=LeastLoadedStrategy(),
            config=BrokerConfig(execution_timeout=None),
            node_id=NodeId(broker_id),
            federation=federation,
            journal=journal,
        )

    def restart(self, broker_id, epoch):
        """Replace one core with a fresh incarnation (new epoch)."""
        journal = self.journals.get(broker_id)
        if journal is not None:
            journal.close()
        with_journal = broker_id in self.journals
        self.cores[broker_id] = self._build_core(
            broker_id, epoch=epoch, with_journal=with_journal
        )
        self.down.discard(broker_id)
        return self.cores[broker_id]

    def pump(self, envelopes):
        """Deliver broker-bound envelopes; return the external ones."""
        external = []
        queue = list(envelopes)
        while queue:
            envelope = queue.pop(0)
            dst = str(envelope.dst)
            if dst in self.down:
                continue
            if dst in self.cores:
                queue.extend(self.cores[dst].handle(envelope))
            else:
                external.append(envelope)
        return external

    def send(self, broker_id, body, src):
        return self.pump(
            [body.envelope(NodeId(src), NodeId(broker_id))]
        )

    def tick_all(self, dt=1.0):
        self.clock.advance(dt)
        external = []
        for broker_id in self.ids:
            if broker_id in self.down:
                continue
            external.extend(self.pump(self.cores[broker_id].tick()))
        return external

    def add_provider(self, broker_id, name, capacity=2):
        return self.send(
            broker_id,
            RegisterProvider(
                provider_id=name, device_class="desktop",
                capacity=capacity, benchmark_score=1e6,
            ),
            src=name,
        )

    def submit(self, broker_id, consumer="c1", qoc=None, args=None):
        self._tasklet_counter += 1
        tasklet = Tasklet(
            tasklet_id=TaskletId(f"tl-{self._tasklet_counter}"),
            program=PROGRAM,
            entry="main",
            args=args or [21],
            qoc=qoc or QoC(),
        )
        out = self.send(
            broker_id, SubmitTasklet(tasklet=tasklet.to_dict()), src=consumer
        )
        return tasklet.tasklet_id, out

    def result_for(self, broker_id, assign, value=42, status="success"):
        result = ExecutionResult(
            execution_id=assign.execution_id,
            tasklet_id=assign.tasklet_id,
            provider_id=str(assign.execution_id).split("/")[0]
            if "/" in str(assign.execution_id) else "p?",
            status=status,
            value=packed(value) if status == "success" else None,
            error=None if status == "success" else "failed",
            instructions=1000,
            started_at=self.clock.now(),
            finished_at=self.clock.now(),
        )
        return self.send(broker_id, result, src=result.provider_id)


def bodies(envelopes, body_type):
    return [
        body_of(envelope)
        for envelope in envelopes
        if isinstance(body_of(envelope), body_type)
    ]


def result_of(assign: AssignExecution, provider, clock, value=42,
              status="success"):
    return ExecutionResult(
        execution_id=assign.execution_id,
        tasklet_id=assign.tasklet_id,
        provider_id=provider,
        status=status,
        value=packed(value) if status == "success" else None,
        error=None if status == "success" else "failed",
        instructions=1000,
        started_at=clock.now(),
        finished_at=clock.now(),
    )


class TestForwarding:
    def test_saturated_broker_forwards_to_peer_with_capacity(self):
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()  # gossip: b1 learns b2 has free slots
        tasklet_id, out = fed.submit("b1")
        # b1 had no provider, so the placement crossed to b2 and came
        # back out as an assignment to b2's provider.
        assigns = bodies(out, AssignExecution)
        assert len(assigns) == 1
        assert fed.cores["b1"].stats.tasklets_forwarded == 1
        assert fed.cores["b2"].stats.forwards_received == 1
        # The result flows b2 -> b1 -> consumer.
        out = fed.send(
            "b2", result_of(assigns[0], "p1", fed.clock), src="p1"
        )
        completes = bodies(out, TaskletComplete)
        assert len(completes) == 1
        assert completes[0].ok and opened(completes[0].value) == 42
        assert fed.cores["b1"].stats.forwards_completed == 1
        assert fed.cores["b1"].stats.tasklets_completed == 1
        # The origin's completion record names the executing broker.
        completion = fed.cores["b1"].durability.tasklet_outcomes[f"c1/{tasklet_id}"]
        assert completion.executed_by == "b2"

    def test_forward_table_is_the_forwards_in_flight_and_nothing_else(self):
        """One record per outbound forward, gone when the forward resolves
        — also when the tasklet ends under it: a workflow that fails
        cancels its forwarded sibling, and nothing is left pointing at it."""
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        b1 = fed.cores["b1"]
        builder = WorkflowBuilder("wf-1")
        for node_id in ("left", "right"):
            builder.node(
                "func main(x: int) -> int { return x * 2; }", args=[1], node_id=node_id
            )
        out = fed.send("b1", SubmitWorkflow(workflow=builder.build().to_dict()), src="c1")
        left, right = bodies(out, AssignExecution)  # both ran off to b2
        assert sorted(b1.forwarding.forwards) == ["c1/wf-1:left", "c1/wf-1:right"]
        assert all(forward.acked for forward in b1.forwarding.forwards.values())
        assert b1.health_snapshot()["federation"]["forwarded_pending"] == 2
        out = fed.send("b2", result_of(left, "p1", fed.clock, status="vm_error"), src="p1")
        (done,) = bodies(out, WorkflowComplete)
        assert not done.ok and done.failed_node == "left"
        assert b1.forwarding.forwards == {} and b1.pending_tasklets == 0
        assert b1.health_snapshot()["federation"]["forwarded_pending"] == 0
        # The peer's late answer for the cancelled sibling finds nothing.
        assert fed.send("b2", result_of(right, "p1", fed.clock), src="p1") == []
        assert b1.stats.forwards_completed == 1

    def test_local_capacity_wins_over_forwarding(self):
        fed = FedHarness()
        fed.add_provider("b1", "p1")
        fed.add_provider("b2", "p2")
        fed.tick_all()
        _tasklet_id, out = fed.submit("b1")
        assert len(bodies(out, AssignExecution)) == 1
        assert fed.cores["b1"].stats.tasklets_forwarded == 0

    def test_no_forward_without_gossiped_capacity(self):
        fed = FedHarness()
        # No gossip has flowed: b1 cannot know b2's capacity, so the
        # submission queues locally instead of being forwarded blind.
        fed.add_provider("b2", "p1")
        _tasklet_id, out = fed.submit("b1")
        assert bodies(out, AssignExecution) == []
        assert fed.cores["b1"].stats.tasklets_forwarded == 0
        assert fed.cores["b1"].pending_tasklets == 1

    def test_duplicate_forward_is_idempotent(self):
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        tasklet_id, out = fed.submit("b1")
        assigns = bodies(out, AssignExecution)
        state = fed.cores["b1"]._tasklets[f"c1/{tasklet_id}"]
        # Re-send the forward (what the origin does while unacked).
        dup = ForwardTasklet(
            origin_broker="b1", consumer_id="c1",
            tasklet=state.wire,
        )
        out = fed.send("b2", dup, src="b1")
        # No second assignment: the peer recognised in-flight work.
        assert bodies(out, AssignExecution) == []
        assert fed.cores["b2"].stats.forwards_received == 1
        # Finish it; a third duplicate now answers from the completion.
        fed.send("b2", result_of(assigns[0], "p1", fed.clock), src="p1")
        out = fed.cores["b2"].handle(
            dup.envelope(NodeId("b1"), NodeId("b2"))
        )
        dup_completes = [
            body_of(envelope) for envelope in out
            if isinstance(body_of(envelope), ForwardComplete)
        ]
        assert len(dup_completes) == 1
        assert dup_completes[0].ok and dup_completes[0].executed_by == "b2"

    def test_peer_without_capacity_rejects_and_origin_reclaims(self):
        fed = FedHarness()
        fed.add_provider("b2", "p1", capacity=1)
        fed.tick_all()
        # Saturate b2's only slot so the gossiped view goes stale.
        fed.submit("b2", consumer="c9")
        # b1 still believes b2 has a free slot and forwards; b2 rejects,
        # b1 reclaims, and the work queues on b1 (it has no providers).
        tasklet_id, _out = fed.submit("b1")
        assert fed.cores["b1"].stats.tasklets_forwarded == 1
        assert fed.cores["b1"].stats.forwards_reclaimed == 1
        state = fed.cores["b1"]._tasklets[f"c1/{tasklet_id}"]
        assert state.key not in fed.cores["b1"].forwarding.forwards
        assert state.pending_replicas == 1


class TestPeerLoss:
    def test_peer_death_reclaims_forwarded_work(self):
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        tasklet_id, _out = fed.submit("b1")
        assert fed.cores["b1"].stats.tasklets_forwarded == 1
        # b2 crashes before returning the outcome.
        fed.down.add("b2")
        for _ in range(5):  # ride past the 3-interval tolerance
            fed.tick_all()
        assert fed.cores["b1"].stats.forwards_reclaimed == 1
        # The reclaimed work runs locally once b1 gains a provider.
        out = fed.add_provider("b1", "p9")
        assigns = bodies(out, AssignExecution)
        assert len(assigns) == 1
        out = fed.send(
            "b1", result_of(assigns[0], "p9", fed.clock), src="p9"
        )
        completes = bodies(out, TaskletComplete)
        assert len(completes) == 1 and completes[0].ok
        completion = fed.cores["b1"].durability.tasklet_outcomes[f"c1/{tasklet_id}"]
        assert completion.executed_by == "b1"

    def test_epoch_change_reclaims_forwarded_work(self):
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        fed.submit("b1")
        # b2 restarts (fresh incarnation) before returning the outcome:
        # its first gossip arrives under a new epoch.
        fed.restart("b2", epoch="b2-epoch2")
        fed.tick_all()
        assert fed.cores["b1"].stats.forwards_reclaimed == 1

    def test_late_forward_complete_after_reclaim_resolves_once(self):
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        tasklet_id, out = fed.submit("b1")
        assigns = bodies(out, AssignExecution)
        # b2 goes silent long enough for b1 to reclaim...
        fed.down.add("b2")
        for _ in range(5):
            fed.tick_all()
        out = fed.add_provider("b1", "p9")
        local_assigns = bodies(out, AssignExecution)
        assert len(local_assigns) == 1
        # ...then b2's outcome arrives anyway (network heals).
        fed.down.discard("b2")
        fed.send("b2", result_of(assigns[0], "p1", fed.clock), src="p1")
        core = fed.cores["b1"]
        assert core.stats.tasklets_completed == 1
        # The racing local replica was cancelled; its late result is a
        # no-op, not a second completion.
        fed.send(
            "b1", result_of(local_assigns[0], "p9", fed.clock, value=99),
            src="p9",
        )
        assert core.stats.tasklets_completed == 1
        assert opened(core.durability.tasklet_outcomes[f"c1/{tasklet_id}"].value) == 42


class TestForwardCompleteSender:
    """Only the peer a tasklet was forwarded to may end it — or, when its
    outcome raced a reclaim, the peer it was reclaimed from
    (``test_late_forward_complete_after_reclaim_resolves_once``)."""

    @staticmethod
    def forged(tasklet_id, broker_id):
        return ForwardComplete(
            tasklet_id=str(tasklet_id), consumer_id="c1", broker_id=broker_id,
            ok=True, value=packed(666), attempts=1,
        )

    def test_an_outcome_from_a_peer_it_was_not_forwarded_to_is_refused(self):
        fed = FedHarness(ids=("b1", "b2", "b3"))
        fed.add_provider("b2", "p1")
        fed.tick_all()  # b1 learns that b2 (not b3) has free slots
        tasklet_id, out = fed.submit("b1")
        (assign,) = bodies(out, AssignExecution)
        core = fed.cores["b1"]
        assert core.stats.tasklets_forwarded == 1
        for sender in ("b3", "c9"):  # another peer, a consumer
            assert fed.send("b1", self.forged(tasklet_id, sender), src=sender) == []
        assert core.stats.messages_unreadable == 2
        assert core.stats.tasklets_completed == 0 and core.pending_tasklets == 1
        assert list(core.forwarding.forwards) == [f"c1/{tasklet_id}"]
        # The peer the work went to still decides it.
        out = fed.send("b2", result_of(assign, "p1", fed.clock), src="p1")
        (done,) = bodies(out, TaskletComplete)
        assert done.ok and opened(done.value) == 42

    def test_a_tasklet_never_forwarded_is_not_completed_by_a_peer(self):
        fed = FedHarness()
        tasklet_id, _out = fed.submit("b1")  # no capacity anywhere: queued on b1
        core = fed.cores["b1"]
        assert core.stats.tasklets_forwarded == 0
        assert fed.send("b1", self.forged(tasklet_id, "b2"), src="b2") == []
        assert core.stats.messages_unreadable == 1 and core.pending_tasklets == 1


class TestFailoverResubmit:
    def test_consumer_resubmit_to_executing_peer_gets_the_result(self):
        """Consumer failover mid-forward: c1 submitted to b1, b1 forwarded
        to b2 and died; c1 fails over to b2 and resubmits the same id.
        The in-flight execution must complete to c1 directly."""
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        tasklet_id, out = fed.submit("b1")
        assigns = bodies(out, AssignExecution)
        assert len(assigns) == 1
        fed.down.add("b1")
        # The failover resubmit reaches b2 while the execution runs.
        resubmit = Tasklet(
            tasklet_id=TaskletId(str(tasklet_id)), program=PROGRAM,
            entry="main", args=[21], qoc=QoC(),
        )
        out = fed.send(
            "b2", SubmitTasklet(tasklet=resubmit.to_dict()), src="c1"
        )
        assert bodies(out, AssignExecution) == []  # no second execution
        out = fed.send(
            "b2", result_of(assigns[0], "p1", fed.clock), src="p1"
        )
        completes = bodies(out, TaskletComplete)
        assert len(completes) == 1
        assert completes[0].ok and opened(completes[0].value) == 42
        assert fed.cores["b2"].stats.executions_issued == 1


    def test_a_forward_under_a_running_workflow_nodes_id_is_refused_not_forgotten(self):
        """Regression (the ``forward_tasklet`` twin of the plain-submit
        collision): a forward whose key is a running workflow node was an
        in-flight admission — acked accepted — and when the node ended its
        outcome went to the graph only: the origin broker waited for a
        ``forward_complete`` that never came."""
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        builder = WorkflowBuilder("wf-1")
        builder.node(PROGRAM, args=[21], node_id="n1")
        spec = builder.build()
        out = fed.send("b2", SubmitWorkflow(workflow=spec.to_dict()), src="c1")
        (assign,) = bodies(out, AssignExecution)
        twin = Tasklet(TaskletId("wf-1:n1"), PROGRAM, "main", [21])  # the node, as a tasklet
        b2 = fed.cores["b2"]
        out = b2.handle(
            ForwardTasklet(origin_broker="b1", consumer_id="c1", tasklet=twin.to_dict())
            .envelope(NodeId("b1"), NodeId("b2"))
        )
        (ack,) = bodies(out, ForwardAck)
        assert len(out) == 1 and not ack.accepted and ack.tasklet_id == "wf-1:n1"
        assert ack.reason == "tasklet id is a running node of workflow 'wf-1'"
        assert b2._tasklets["c1/wf-1:n1"].origin_broker is None  # the node is untouched
        # ... and the graph still gets its node.
        out = fed.send("b2", result_of(assign, "p1", fed.clock), src="p1")
        (done,) = bodies(out, WorkflowComplete)
        assert done.ok and done.outputs == {"n1": packed(42)}
        assert bodies(out, ForwardComplete) == []


class TestEpochSemantics:
    def test_rapid_reregistration_across_brokers_drops_stale_results(self):
        """A provider flapping between two federated brokers must never
        have a stale-epoch execution matched to a fresh one."""
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        tasklet_id, out = fed.submit("b1", qoc=QoC(max_attempts=3))
        stale_assign = bodies(out, AssignExecution)[0]
        # p1 flaps: it re-registers on b2 (crash + instant return).  The
        # flap-recovery path fails the old execution and re-issues.
        out = fed.add_provider("b2", "p1")
        fresh_assigns = bodies(out, AssignExecution)
        assert len(fresh_assigns) == 1
        assert fresh_assigns[0].execution_id != stale_assign.execution_id
        # The stale incarnation's result arrives late: dropped, because
        # that execution id was already failed.
        fed.send(
            "b2", result_of(stale_assign, "p1", fed.clock, value=1000),
            src="p1",
        )
        assert fed.cores["b1"].stats.tasklets_completed == 0
        # Only the fresh execution's result completes the tasklet.
        out = fed.send(
            "b2", result_of(fresh_assigns[0], "p1", fed.clock), src="p1"
        )
        completes = bodies(out, TaskletComplete)
        assert len(completes) == 1 and opened(completes[0].value) == 42
        assert fed.cores["b1"].stats.tasklets_completed == 1
        assert fed.cores["b2"].stats.forwards_completed == 0  # b2 executed


class TestJournalHandoff:
    def test_successor_adopts_dead_peers_pending_work(self, tmp_path):
        fed = FedHarness(journal_dir=tmp_path, with_journals=True,
                         peer_journals=True)
        # Work lands on b2 and queues (no providers anywhere yet).
        tasklet_id, _out = fed.submit("b2")
        assert fed.cores["b2"].pending_tasklets == 1
        fed.tick_all()  # gossip: b1 sees b2 alive before it vanishes
        # b2 dies; b1 ("lowest live id") adopts its journal.
        fed.down.add("b2")
        for _ in range(5):
            fed.tick_all()
        core = fed.cores["b1"]
        assert core.stats.tasklets_adopted == 1
        assert core.pending_tasklets == 1
        # The adopted work executes on b1 and completes to the consumer.
        out = fed.add_provider("b1", "p1")
        assigns = bodies(out, AssignExecution)
        assert len(assigns) == 1
        out = fed.send(
            "b1", result_of(assigns[0], "p1", fed.clock), src="p1"
        )
        completes = bodies(out, TaskletComplete)
        assert len(completes) == 1 and completes[0].ok
        # Cross-journal exactly-once audit: at most one broker executed.
        executed_by = {
            completion.executed_by
            for broker_id in fed.ids
            for completion in replay_journal(fed.journal_path(broker_id)).completions.values()
            if completion.key == f"c1/{tasklet_id}" and completion.executed_by
        }
        assert executed_by == {"b1"}

    def test_adopted_completions_are_redeliverable(self, tmp_path):
        fed = FedHarness(journal_dir=tmp_path, with_journals=True,
                         peer_journals=True)
        fed.add_provider("b2", "p1")
        tasklet_id, out = fed.submit("b2")
        assigns = bodies(out, AssignExecution)
        fed.send("b2", result_of(assigns[0], "p1", fed.clock), src="p1")
        fed.tick_all()  # gossip: b1 sees b2 alive before it vanishes
        # b2 dies after completing; b1 adopts the completion, so the
        # consumer failing over to b1 gets a re-delivery, not a re-run.
        fed.down.add("b2")
        for _ in range(5):
            fed.tick_all()
        core = fed.cores["b1"]
        assert core.stats.completions_adopted == 1
        state = core._tasklets.get(f"c1/{tasklet_id}")
        assert state is None  # completed, not pending
        _tid, out = fed.submit("b2")  # new id; unrelated
        # Resubmit of the original id to b1 answers from the adoption.
        resubmit = Tasklet(
            tasklet_id=TaskletId(str(tasklet_id)), program=PROGRAM,
            entry="main", args=[21], qoc=QoC(),
        )
        out = fed.send(
            "b1", SubmitTasklet(tasklet=resubmit.to_dict()), src="c1"
        )
        completes = bodies(out, TaskletComplete)
        assert len(completes) == 1
        assert completes[0].ok and opened(completes[0].value) == 42
        assert core.stats.executions_issued == 0  # never re-executed

    def test_forwarded_admissions_are_not_readmitted_on_restart(self, tmp_path):
        path = tmp_path / "b2.jsonl"
        journal = WorkJournal(str(path))
        tasklet = Tasklet(
            tasklet_id=TaskletId("tl-own"), program=PROGRAM,
            entry="main", args=[3], qoc=QoC(),
        )
        journal.record_admitted(
            "c1/tl-own", "c1", tasklet.to_dict(), ts=1.0
        )
        forwarded = Tasklet(
            tasklet_id=TaskletId("tl-fwd"), program=PROGRAM,
            entry="main", args=[4], qoc=QoC(),
        )
        journal.record_admitted(
            "c1/tl-fwd", "c1", forwarded.to_dict(), ts=2.0, origin="b1"
        )
        journal.close()
        journal = WorkJournal(str(path))
        core = BrokerCore(
            clock=VirtualClock(),
            strategy=LeastLoadedStrategy(),
            node_id=NodeId("b2"),
            journal=journal,
            federation=FederationConfig(peers=["b1"], epoch="e2"),
        )
        # Own admission recovered; the origin-tagged one is b1's to
        # reclaim — re-admitting it here would double-execute.
        assert core.pending_tasklets == 1
        assert "c1/tl-own" in core._tasklets
        assert "c1/tl-fwd" not in core._tasklets
        journal.close()


class TestHealthSnapshot:
    def test_snapshot_includes_peer_table(self):
        fed = FedHarness()
        fed.add_provider("b2", "p1")
        fed.tick_all()
        doc = fed.cores["b1"].health_snapshot()
        federation = doc["federation"]
        assert federation["epoch"] == "b1-epoch1"
        peers = {peer["broker_id"]: peer for peer in federation["peers"]}
        assert peers["b2"]["alive"] is True
        assert peers["b2"]["free_slots"] == 2
        assert federation["forwarded_pending"] == 0


class TestStandaloneUnaffected:
    def test_no_federation_means_no_peer_handling(self):
        core = BrokerCore(
            clock=VirtualClock(), strategy=LeastLoadedStrategy()
        )
        assert core.federation is None
        hello = ForwardTasklet(
            origin_broker="b9", consumer_id="c1",
            tasklet={"tasklet_id": "t", "entry": "main"},
        )
        # Ignored like any unknown type: forward compatibility.
        assert core.handle(
            hello.envelope(NodeId("b9"), core.node_id)
        ) == []
