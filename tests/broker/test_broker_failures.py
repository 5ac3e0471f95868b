"""Broker failure handling: heartbeat detection, timeouts, flap recovery."""

import dataclasses
import struct

import pytest

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.scheduling import LeastLoadedStrategy
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import opened, packed
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.transport.codec import CODEC_BINARY, encode_envelope, iter_frames
from repro.transport.message import (
    REASON_UNKNOWN_PROVIDER,
    AssignExecution,
    CancelExecution,
    ExecutionResult,
    Heartbeat,
    RegisterAck,
    RegisterProvider,
    SubmitTasklet,
    TaskletComplete,
    body_of,
)
from repro.tvm.compiler import compile_source
from tests.transport.test_messages import HOSTILE_BLOBS

PROGRAM = compile_source("func main(x: int) -> int { return x; }")


class Harness:
    def __init__(self, config=None):
        self.clock = VirtualClock()
        self.broker = BrokerCore(
            clock=self.clock,
            strategy=LeastLoadedStrategy(),
            config=config
            or BrokerConfig(
                heartbeat_interval=1.0, heartbeat_tolerance=3.0, execution_timeout=10.0
            ),
        )
        self._n = 0

    def send(self, body, src):
        envelopes = self.broker.handle(body.envelope(NodeId(src), self.broker.node_id))
        return [(e.dst, body_of(e)) for e in envelopes]

    def register(self, name, capacity=1):
        return self.send(
            RegisterProvider(
                provider_id=name,
                device_class="desktop",
                capacity=capacity,
                benchmark_score=1e6,
            ),
            src=name,
        )

    def submit(self, qoc=None):
        self._n += 1
        tasklet = Tasklet(
            tasklet_id=TaskletId(f"tl-{self._n}"),
            program=PROGRAM,
            entry="main",
            args=[1],
            qoc=qoc or QoC(),
        )
        return self.send(SubmitTasklet(tasklet=tasklet.to_dict()), src="c1")

    def tick_at(self, time):
        self.clock.advance_to(time)
        return [(e.dst, body_of(e)) for e in self.broker.tick()]


def bodies(messages, body_type):
    return [body for _dst, body in messages if isinstance(body, body_type)]


class TestHeartbeatFailureDetection:
    def test_silent_provider_declared_dead_and_work_reissued(self):
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        replies = harness.submit(qoc=QoC(max_attempts=2))
        first_dst = [d for d, b in replies if isinstance(b, AssignExecution)][0]
        survivor = "p2" if first_dst == "p1" else "p1"
        # The survivor heartbeats; the assignee stays silent past the horizon.
        harness.clock.advance_to(2.0)
        harness.send(Heartbeat(provider_id=survivor, free_slots=1), src=survivor)
        replies = harness.tick_at(4.0)
        reissues = [(d, b) for d, b in replies if isinstance(b, AssignExecution)]
        assert len(reissues) == 1
        assert reissues[0][0] == survivor
        assert harness.broker.stats.providers_failed == 1
        assert harness.broker.stats.executions_lost == 1

    def test_dead_provider_without_retry_fails_tasklet(self):
        harness = Harness()
        harness.register("p1")
        harness.submit(qoc=QoC())  # max_attempts=1
        replies = harness.tick_at(10.0)
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1 and not completions[0].ok
        assert "provider failed" in completions[0].error

    def test_heartbeats_keep_provider_alive(self):
        harness = Harness()
        harness.register("p1")
        for t in (1.0, 2.0, 3.0, 4.0):
            harness.clock.advance_to(t)
            harness.send(Heartbeat(provider_id="p1", free_slots=1), src="p1")
        harness.tick_at(4.5)
        assert harness.broker.stats.providers_failed == 0


class TestExecutionTimeout:
    def test_stuck_execution_reissued_and_cancelled(self):
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        replies = harness.submit(qoc=QoC(max_attempts=2))
        first = bodies(replies, AssignExecution)[0]
        # Providers keep heartbeating (alive), but the result never comes.
        for t in (1.0, 2.0, 4.0, 6.0, 8.0, 10.0):
            harness.clock.advance_to(t)
            harness.send(Heartbeat(provider_id="p1", free_slots=0), src="p1")
            harness.send(Heartbeat(provider_id="p2", free_slots=1), src="p2")
        replies = harness.tick_at(10.5)
        cancels = bodies(replies, CancelExecution)
        reissues = bodies(replies, AssignExecution)
        assert len(cancels) == 1 and cancels[0].execution_id == first.execution_id
        assert len(reissues) == 1
        assert harness.broker.stats.executions_timed_out == 1

    def _two_replicas_time_out_together(self, max_attempts):
        harness = Harness(
            config=BrokerConfig(execution_timeout=10.0, heartbeat_tolerance=1e9)
        )
        for name in ("p1", "p2", "p3", "p4"):
            harness.register(name)
        replies = harness.submit(qoc=QoC(redundancy=2, max_attempts=max_attempts))
        losers = {dst for dst, body in replies if isinstance(body, AssignExecution)}
        assert len(losers) == 2
        return harness, losers, harness.tick_at(11.0)

    def test_simultaneous_timeouts_reissue_away_from_every_loser(self):
        # Both replicas of one tasklet expire in the same tick: neither
        # re-issue may land on the other replica's just-freed provider.
        harness, losers, replies = self._two_replicas_time_out_together(2)
        assert len(bodies(replies, CancelExecution)) == 2
        targets = {dst for dst, body in replies if isinstance(body, AssignExecution)}
        assert len(targets) == 2 and not targets & losers
        assert harness.broker.stats.executions_timed_out == 2

    def test_simultaneous_timeouts_without_budget_report_every_execution(self):
        harness, losers, replies = self._two_replicas_time_out_together(1)
        assert bodies(replies, AssignExecution) == []
        (complete,) = bodies(replies, TaskletComplete)
        assert not complete.ok
        assert complete.error.startswith("all 2 executions failed")
        assert {e["provider_id"] for e in complete.executions} == losers
        assert harness.broker.pending_tasklets == 0

    def test_deadline_qoc_tightens_timeout(self):
        harness = Harness(
            config=BrokerConfig(execution_timeout=100.0, heartbeat_tolerance=1e9)
        )
        harness.register("p1")
        harness.register("p2")
        harness.submit(qoc=QoC(max_attempts=2, deadline_s=2.0))
        replies = harness.tick_at(2.5)
        assert len(bodies(replies, AssignExecution)) == 1  # re-issued at deadline

    def test_no_timeout_when_disabled(self):
        harness = Harness(
            config=BrokerConfig(execution_timeout=None, heartbeat_tolerance=1e9)
        )
        harness.register("p1")
        harness.submit()
        replies = harness.tick_at(1e6)
        assert replies == []
        assert harness.broker.pending_tasklets == 1


class TestFlapRecovery:
    def test_reregistration_fails_lost_executions_immediately(self):
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        replies = harness.submit(qoc=QoC(max_attempts=2))
        first_dst = [d for d, b in replies if isinstance(b, AssignExecution)][0]
        other = "p2" if first_dst == "p1" else "p1"
        # The assignee crashes and comes straight back (flap, faster than
        # the failure detector); its re-registration must re-issue.
        replies = harness.register(first_dst)
        reissues = [(d, b) for d, b in replies if isinstance(b, AssignExecution)]
        assert len(reissues) == 1
        assert reissues[0][0] in (other, first_dst)
        assert harness.broker.stats.executions_lost == 1

    def test_fresh_registration_does_not_fail_anything(self):
        harness = Harness()
        harness.register("p1")
        harness.submit(qoc=QoC(max_attempts=2))
        assert harness.broker.stats.executions_lost == 0
        harness.register("p-new")
        assert harness.broker.stats.executions_lost == 0

    def test_reregistration_is_acked_and_resets_outstanding(self):
        # The crash-recovery branch of _on_register (was_known=True): the
        # returning provider is accepted and starts with a clean slate.
        harness = Harness()
        harness.register("p1", capacity=2)
        harness.submit(qoc=QoC(max_attempts=2))
        assert harness.broker.registry.get(NodeId("p1")).outstanding == 1
        replies = harness.register("p1", capacity=2)
        acks = bodies(replies, RegisterAck)
        assert len(acks) == 1 and acks[0].accepted
        # Fresh incarnation: zero outstanding, and the lost execution was
        # re-issued (possibly right back to p1, the only provider).
        record = harness.broker.registry.get(NodeId("p1"))
        assert record.outstanding == 1  # the re-issue, not the lost one
        assert harness.broker.stats.executions_lost == 1
        assert len(bodies(replies, AssignExecution)) == 1

    def test_reregistration_holding_two_executions_counts_both_reissues(self):
        # Both lost slots are freed before either tasklet is re-issued:
        # a re-issue landing on the fresh record between the two losses
        # would be wiped out by the second one (ROADMAP 2-vi).
        harness = Harness()
        harness.register("p1", capacity=2)
        harness.submit(qoc=QoC(max_attempts=2))
        harness.submit(qoc=QoC(max_attempts=2))
        assert harness.broker.registry.get(NodeId("p1")).outstanding == 2
        replies = harness.register("p1", capacity=2)
        assert len(bodies(replies, AssignExecution)) == 2
        assert harness.broker.registry.get(NodeId("p1")).outstanding == 2
        assert harness.broker.stats.executions_lost == 2

    def test_reregistration_single_attempt_fails_tasklet(self):
        # max_attempts=1: flap recovery has no budget left to re-issue,
        # so the consumer gets a terminal failure instead of a hang.
        harness = Harness()
        harness.register("p1")
        harness.submit(qoc=QoC())  # max_attempts=1
        replies = harness.register("p1")
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1 and not completions[0].ok
        assert harness.broker.pending_tasklets == 0

    def test_invalid_reregistration_keeps_previous_record(self):
        # A bad re-registration (capacity=0) is rejected *before* the
        # crash-recovery branch runs: the old incarnation's record and
        # its outstanding executions must survive untouched.
        harness = Harness()
        harness.register("p1")
        harness.submit(qoc=QoC(max_attempts=2))
        replies = harness.send(
            RegisterProvider(
                provider_id="p1",
                device_class="desktop",
                capacity=0,
                benchmark_score=1e6,
            ),
            src="p1",
        )
        acks = bodies(replies, RegisterAck)
        assert len(acks) == 1 and not acks[0].accepted
        assert harness.broker.stats.executions_lost == 0
        assert harness.broker.registry.get(NodeId("p1")).outstanding == 1


class TestLateResults:
    def test_late_result_after_timeout_is_dropped(self):
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        replies = harness.submit(qoc=QoC(max_attempts=2))
        first = bodies(replies, AssignExecution)[0]
        assignee = [d for d, b in replies if isinstance(b, AssignExecution)][0]
        # Both providers stay alive; the first execution times out at 10s.
        for t in (2.0, 4.0, 6.0, 8.0, 10.0):
            harness.clock.advance_to(t)
            harness.send(Heartbeat(provider_id="p1", free_slots=1), src="p1")
            harness.send(Heartbeat(provider_id="p2", free_slots=1), src="p2")
        replies = harness.tick_at(10.5)
        reissues = bodies(replies, AssignExecution)
        assert len(reissues) == 1
        assert harness.broker.stats.executions_timed_out == 1
        # The timed-out execution's result finally limps in: it must be
        # ignored — no completion, no double stats, no crash.
        late = harness.send(
            ExecutionResult(
                execution_id=first.execution_id,
                tasklet_id=first.tasklet_id,
                provider_id=assignee,
                status="success",
                value=packed(1),
                instructions=10,
                started_at=0.0,
                finished_at=10.4,
            ),
            src=assignee,
        )
        assert bodies(late, TaskletComplete) == []
        assert harness.broker.stats.executions_succeeded == 0
        assert harness.broker.stats.tasklets_completed == 0
        # The re-issued replica still decides the tasklet.
        done = harness.send(
            ExecutionResult(
                execution_id=reissues[0].execution_id,
                tasklet_id=reissues[0].tasklet_id,
                provider_id="p2",
                status="success",
                value=packed(1),
                instructions=10,
                started_at=10.5,
                finished_at=10.6,
            ),
            src="p2",
        )
        completions = bodies(done, TaskletComplete)
        assert len(completions) == 1 and completions[0].ok
        assert harness.broker.stats.tasklets_completed == 1

    def test_result_for_unknown_execution_ignored(self):
        harness = Harness()
        harness.register("p1")
        replies = harness.send(
            ExecutionResult(
                execution_id="ex-ghost",
                tasklet_id="tl-ghost",
                provider_id="p1",
                status="success",
                value=packed(1),
            ),
            src="p1",
        )
        assert replies == []
        assert harness.broker.stats.executions_succeeded == 0


#: ``inf - inf`` as x86 (sign bit set) and as ARM produce it.
NAN_BITS = ("fff8000000000000", "7ff8000000000000")


def result_of(assign, provider, value):
    """A success as a provider reports it: ``value`` packed (bytes: as given)."""
    return ExecutionResult(
        execution_id=assign.execution_id,
        tasklet_id=assign.tasklet_id,
        provider_id=provider,
        status="success",
        value=value if type(value) is bytes else packed(value, fold_nan=True),
        instructions=10,
    )


class TestByzantineResultValues:
    def test_non_tasklet_result_value_is_a_failed_execution_not_a_wedge(self):
        """Regression: a ``success`` whose value is outside the Tasklet
        value set raised out of ``handle`` *after* the execution had been
        released — the tasklet was left with no execution, no backlog
        entry and no deadline, and its consumer waited forever.  (The
        value arrives packed, and is refused as the bytes it is.)"""
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        first = bodies(harness.submit(qoc=QoC(max_attempts=2)), AssignExecution)[0]
        liar = harness.broker.registry.get(NodeId("p1"))
        assert liar.outstanding == 1  # least-loaded: p1 first
        # Budget remains: re-issued, away from the provider that lied.
        replies = harness.send(result_of(first, "p1", {"a": 1}), src="p1")
        (second,) = bodies(replies, AssignExecution)
        assert [dst for dst, body in replies if body is second] == ["p2"]
        assert bodies(replies, TaskletComplete) == []
        assert liar.outstanding == 0 and liar.failed == 1
        assert harness.broker.stats.executions_failed == 1
        # Budget spent: failed, with an error that names the type — and
        # the value never reaches the consumer.
        replies = harness.send(result_of(second, "p2", [1, [None]]), src="p2")
        (done,) = bodies(replies, TaskletComplete)
        assert not done.ok and done.value is None
        assert "result is not a Tasklet value: value tag 0x00" in done.error
        assert [record["status"] for record in done.executions] == ["vm_error"] * 2
        assert all(record["value"] is None for record in done.executions)
        assert harness.broker.pending_tasklets == 0

    @pytest.mark.parametrize(
        "value", [[1, 2], 7, "x", {"a": 1}, *HOSTILE_BLOBS], ids=lambda v: repr(v)[:24]
    )
    def test_a_success_that_packs_no_tasklet_value_fails_graded_and_is_reissued(self, value):
        """A result is checked as the bytes it arrives as, unopened: no
        bytes at all (what an older provider sends), or bytes wrong in any
        of the ways ``HOSTILE_BLOBS`` lists — the execution ends as a
        ``vm_error``, its provider is graded for it, the replica is
        re-issued elsewhere, and the value reaches no vote, no journal and
        no consumer."""
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        first = bodies(harness.submit(qoc=QoC(max_attempts=2)), AssignExecution)[0]
        liar = harness.broker.registry.get(NodeId("p1"))
        result = dataclasses.replace(result_of(first, "p1", 0), value=value)
        replies = harness.send(result, src="p1")
        (second,) = bodies(replies, AssignExecution)
        assert [dst for dst, body in replies if body is second] == ["p2"]
        assert bodies(replies, TaskletComplete) == []
        assert (liar.outstanding, liar.failed, liar.completed) == (0, 1, 0)
        stats = harness.broker.stats
        assert (stats.executions_failed, stats.executions_succeeded) == (1, 0)
        (state,) = harness.broker._tasklets.values()
        assert not state.collector.successes and len(state.collector.failures) == 1
        (done,) = bodies(harness.send(result_of(second, "p2", 5), src="p2"), TaskletComplete)
        assert done.ok and opened(done.value) == 5
        lied, honest = done.executions
        assert (lied["status"], lied["value"]) == ("vm_error", None)
        assert lied["error"].startswith("result is not a Tasklet value: ")
        assert "value" not in honest  # it agreed with the verdict: the value travels once

    def test_two_hosts_nans_are_one_vote_because_their_providers_folded_them(self):
        """The broker votes on the bytes: ``inf - inf`` as x86 and as ARM
        produce it differ in the sign bit, and agree because each provider
        packed with every NaN folded into one; blobs that kept their
        payloads are two values, as any two different byte strings are."""
        x86, arm = (struct.unpack(">d", bytes.fromhex(bits))[0] for bits in NAN_BITS)
        for fold, verdict in ((True, "ok"), (False, "disagreed")):
            harness = Harness()
            harness.register("p1")
            harness.register("p2")
            replies = harness.submit(qoc=QoC(redundancy=2, max_attempts=1))
            assigns = [(dst, body) for dst, body in replies if isinstance(body, AssignExecution)]
            for (provider, assign), nan in zip(assigns, (x86, arm)):
                blob = packed([1.5, 2.5, nan, 3.5], fold_nan=fold)
                replies = harness.send(result_of(assign, provider, blob), src=provider)
            (done,) = bodies(replies, TaskletComplete)
            if fold:
                assert done.ok and done.value == packed([1.5, 2.5, float("nan"), 3.5], fold_nan=True)
                assert all("value" not in record for record in done.executions)
            else:
                assert not done.ok and verdict in done.error

    @pytest.mark.parametrize("field", ["started_at", "finished_at", "instructions", "status"])
    def test_mistyped_result_field_never_wedges_a_tasklet(self, field):
        """Regression: both codecs carry a string where a number or a
        status belongs, and it raised out of ``handle`` — for the three
        numbers *after* the execution had been released, leaving the
        tasklet with nothing outstanding, nothing queued and no deadline.
        Now the result is unreadable: nothing moves, and liveness ends the
        execution it was about."""
        harness = Harness()
        harness.register("p1")
        assign = bodies(harness.submit(), AssignExecution)[0]
        result = result_of(assign, "p1", 1).envelope(NodeId("p1"), harness.broker.node_id)
        result.payload[field] = "x"
        (wire,) = iter_frames(encode_envelope(result, CODEC_BINARY))
        assert wire.payload[field] == "x"
        broker = harness.broker
        assert broker.handle(wire) == []
        assert broker.stats.messages_unreadable == 1
        (state,) = broker._tasklets.values()
        assert list(state.outstanding) == [assign.execution_id]
        assert broker.registry.get(NodeId("p1")).outstanding == 1
        assert broker.stats.executions_failed == broker.stats.executions_succeeded == 0
        # The provider falls silent: declared dead, and with it the
        # execution — the tasklet gets its terminal answer.
        (done,) = bodies(harness.tick_at(10.0), TaskletComplete)
        assert not done.ok and "1 executions failed" in done.error
        assert broker.pending_tasklets == 0

    def test_a_result_frees_the_slot_it_was_assigned_to_whoever_it_names(self):
        """Regression: the slot released was the one ``provider_id`` in the
        body named — another provider's, or nobody's, and then the real
        assignee's slot stayed taken for ever."""
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        first = bodies(harness.submit(), AssignExecution)[0]
        second = bodies(harness.submit(), AssignExecution)[0]
        p1, p2 = (harness.broker.registry.get(NodeId(name)) for name in ("p1", "p2"))
        assert (p1.outstanding, p2.outstanding) == (1, 1)
        (done,) = bodies(harness.send(result_of(first, "p2", 1), src="p1"), TaskletComplete)
        assert done.ok and done.executions[0]["provider_id"] == "p1"
        assert (p1.outstanding, p2.outstanding, p1.completed, p2.completed) == (0, 1, 1, 0)
        harness.send(result_of(second, "nobody", 1), src="p2")
        assert (p1.outstanding, p2.outstanding, harness.broker.registry.free_capacity) == (0, 0, 2)

    def test_void_and_nested_results_are_still_successes(self):
        for value in (None, [[1, 2.5], ["x", True], []]):
            harness = Harness()
            harness.register("p1")
            assign = bodies(harness.submit(), AssignExecution)[0]
            (done,) = bodies(
                harness.send(result_of(assign, "p1", value), src="p1"), TaskletComplete
            )
            assert done.ok and opened(done.value) == value


class _StaleThenHonestStrategy:
    """Returns a provider id that is not in the registry for the first
    few calls, then delegates to least-loaded — models a provider dying
    (or a buggy strategy going stale) between snapshot and placement.
    Two stale calls are needed because ``handle`` drains the backlog
    (calling ``select`` again) within the same inbound message."""

    name = "stale-then-honest"

    def __init__(self, stale_calls=2):
        self._delegate = LeastLoadedStrategy()
        self._stale_calls = stale_calls

    def select(self, views, n, qoc):
        if self._stale_calls > 0:
            self._stale_calls -= 1
            return [NodeId("ghost")]
        return self._delegate.select(views, n, qoc)


class TestIssuePlacementAccounting:
    def test_replica_chosen_for_dead_provider_requeues(self):
        # A replica whose chosen provider cannot take it must land in the
        # backlog (counted into `missing`), not vanish from the budget.
        harness = Harness()
        harness.broker.strategy = _StaleThenHonestStrategy()
        harness.register("p1")
        replies = harness.submit(qoc=QoC(max_attempts=2))
        assert bodies(replies, AssignExecution) == []  # ghost placement failed
        assert harness.broker.stats.replicas_queued == 1
        assert harness.broker.pending_tasklets == 1
        # Next maintenance tick drains the backlog via the honest path.
        replies = harness.tick_at(0.5)
        assert len(bodies(replies, AssignExecution)) == 1


class TestBacklogOverflow:
    def test_overflow_fails_tasklet_instead_of_stranding(self):
        # Regression: an overflowing replica used to be dropped silently,
        # leaving the tasklet with nothing outstanding, nothing queued and
        # no TaskletComplete — the consumer hung forever.
        harness = Harness(
            config=BrokerConfig(execution_timeout=None, max_queued_replicas=0)
        )
        replies = harness.submit()  # no providers, zero backlog budget
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1 and not completions[0].ok
        assert "backlog full" in completions[0].error
        assert harness.broker.stats.replicas_overflowed == 1
        assert harness.broker.pending_tasklets == 0

    def test_overflow_only_affects_new_work(self):
        harness = Harness(
            config=BrokerConfig(execution_timeout=None, max_queued_replicas=1)
        )
        first = harness.submit()
        assert bodies(first, TaskletComplete) == []  # queued, still pending
        second = harness.submit()
        completions = bodies(second, TaskletComplete)
        assert len(completions) == 1 and not completions[0].ok
        assert harness.broker.pending_tasklets == 1  # the queued one lives on


class TestSilenceDeathAccounting:
    def test_dead_provider_slots_released_and_failures_recorded(self):
        # Regression: silence-death failed the executions over but never
        # released the provider's slots or graded its record, so a
        # flapping provider came back with phantom outstanding load.
        harness = Harness()
        harness.register("p1", capacity=2)
        harness.submit(qoc=QoC())  # max_attempts=1
        harness.submit(qoc=QoC())
        record = harness.broker.registry.get(NodeId("p1"))
        assert record.outstanding == 2
        replies = harness.tick_at(4.0)  # silent past the horizon
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 2 and not any(c.ok for c in completions)
        assert record.outstanding == 0
        assert record.failed == 2

    def test_heartbeat_after_death_demands_reregistration(self):
        harness = Harness()
        harness.register("p1")
        harness.tick_at(4.0)  # p1 declared dead
        replies = harness.send(Heartbeat(provider_id="p1", free_slots=1), src="p1")
        acks = bodies(replies, RegisterAck)
        assert len(acks) == 1 and not acks[0].accepted
        assert acks[0].reason == REASON_UNKNOWN_PROVIDER
        assert harness.broker.registry.get(NodeId("p1")).alive is False
        # Re-registration restores service with a clean slate.
        replies = harness.register("p1")
        acks = bodies(replies, RegisterAck)
        assert len(acks) == 1 and acks[0].accepted
        assert harness.broker.registry.get(NodeId("p1")).outstanding == 0


class TestUnifiedFailureAccounting:
    def test_timeout_and_loss_grade_the_provider_identically(self):
        # Regression: a timed-out execution bumped ``failed`` by hand
        # while a lost one touched nothing, so identical misbehaviour
        # earned different reliability scores depending on how it was
        # detected.  Both paths now flow through record_result.
        harness = Harness()
        harness.register("p1")
        harness.register("p2")
        harness.submit(qoc=QoC(max_attempts=1))
        harness.submit(qoc=QoC(max_attempts=1))
        p1 = harness.broker.registry.get(NodeId("p1"))
        p2 = harness.broker.registry.get(NodeId("p2"))
        assert p1.outstanding == 1 and p2.outstanding == 1
        # p1 keeps heartbeating but never delivers (timeout path);
        # p2 goes silent (loss path).
        for t in (1.0, 2.0, 4.0, 6.0, 8.0, 10.0):
            harness.clock.advance_to(t)
            harness.send(Heartbeat(provider_id="p1", free_slots=0), src="p1")
        harness.tick_at(10.5)
        assert harness.broker.stats.executions_timed_out == 1
        assert harness.broker.stats.executions_lost == 1
        for record in (p1, p2):
            assert record.outstanding == 0
            assert record.failed == 1
        assert p1.reliability == p2.reliability


class TestBacklogUnderFailure:
    def test_queued_tasklet_survives_total_provider_loss(self):
        harness = Harness()
        harness.register("p1")
        replies = harness.submit(qoc=QoC(max_attempts=3))
        assert len(bodies(replies, AssignExecution)) == 1
        # Provider dies; re-issue has nowhere to go -> replica queues.
        harness.tick_at(10.0)
        assert harness.broker.pending_tasklets == 1
        # A new provider arrives; the queued replica is placed.
        replies = harness.register("p2")
        assert len(bodies(replies, AssignExecution)) == 1
