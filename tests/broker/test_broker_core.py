"""Broker core lifecycle, driven with scripted envelopes and a manual clock."""

import re

import pytest

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.journal import WorkJournal
from repro.broker.scheduling import LeastLoadedStrategy
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import opened, packed
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.dag.spec import WorkflowBuilder
from repro.transport.codec import CODEC_BINARY, encode_envelope
from repro.transport.message import (
    AssignExecution,
    CancelExecution,
    ExecutionResult,
    Heartbeat,
    RegisterAck,
    RegisterProvider,
    SubmitAck,
    SubmitTasklet,
    SubmitWorkflow,
    TaskletComplete,
    Unregister,
    WorkflowAck,
    WorkflowComplete,
    body_of,
)
from repro.tvm.bytecode import CompiledProgram, checked_stamp
from repro.tvm.compiler import compile_source
from tests.conftest import packed_document
from tests.transport.test_messages import HOSTILE_BLOBS

PROGRAM = compile_source("func main(x: int) -> int { return x * 2; }")


class Harness:
    """Drives one BrokerCore with typed messages; collects typed replies."""

    def __init__(self, strategy=None, config=None, journal=None):
        self.clock = VirtualClock()
        self.broker = BrokerCore(
            clock=self.clock,
            strategy=strategy or LeastLoadedStrategy(),
            config=config or BrokerConfig(execution_timeout=None),
            journal=journal,
        )
        self._tasklet_counter = 0

    def send(self, body, src="node"):
        envelopes = self.broker.handle(body.envelope(NodeId(src), self.broker.node_id))
        return [(e.dst, body_of(e)) for e in envelopes]

    def tick(self):
        return [(e.dst, body_of(e)) for e in self.broker.tick()]

    def add_provider(self, name="p1", capacity=2, score=1e6):
        return self.send(
            RegisterProvider(
                provider_id=name,
                device_class="desktop",
                capacity=capacity,
                benchmark_score=score,
            ),
            src=name,
        )

    def submit(self, qoc=None, consumer="c1", args=None):
        self._tasklet_counter += 1
        tasklet = Tasklet(
            tasklet_id=TaskletId(f"tl-{self._tasklet_counter}"),
            program=PROGRAM,
            entry="main",
            args=args or [21],
            qoc=qoc or QoC(),
        )
        out = self.send(SubmitTasklet(tasklet=tasklet.to_dict()), src=consumer)
        return tasklet.tasklet_id, out

    def complete(self, assign: AssignExecution, value=42, status="success",
                 provider=None, duration=1.0):
        """Answer ``assign`` as a provider does: a success's value packed."""
        result = ExecutionResult(
            execution_id=assign.execution_id,
            tasklet_id=assign.tasklet_id,
            provider_id=provider or "p1",
            status=status,
            value=packed(value, fold_nan=True) if status == "success" else None,
            error=None if status == "success" else "failed",
            instructions=1000,
            started_at=self.clock.now(),
            finished_at=self.clock.now() + duration,
        )
        return self.send(result, src=result.provider_id)


def bodies(messages, body_type):
    return [body for _dst, body in messages if isinstance(body, body_type)]


class TestRegistration:
    def test_register_acked(self):
        harness = Harness()
        replies = harness.add_provider()
        acks = bodies(replies, RegisterAck)
        assert len(acks) == 1 and acks[0].accepted

    def test_bad_registration_rejected(self):
        harness = Harness()
        replies = harness.send(
            RegisterProvider(
                provider_id="p1", device_class="x", capacity=0, benchmark_score=1e6
            ),
            src="p1",
        )
        acks = bodies(replies, RegisterAck)
        assert len(acks) == 1 and not acks[0].accepted

    def test_heartbeat_from_stranger_asks_reregistration(self):
        harness = Harness()
        replies = harness.send(Heartbeat(provider_id="ghost", free_slots=1), src="ghost")
        acks = bodies(replies, RegisterAck)
        assert len(acks) == 1 and not acks[0].accepted


class TestSubmission:
    def test_submit_assigns_to_provider(self):
        harness = Harness()
        harness.add_provider()
        tasklet_id, replies = harness.submit()
        acks = bodies(replies, SubmitAck)
        assigns = bodies(replies, AssignExecution)
        assert acks[0].accepted
        assert len(assigns) == 1
        assert assigns[0].tasklet_id == tasklet_id
        assert assigns[0].entry == "main"
        assert assigns[0].program_fingerprint == PROGRAM.fingerprint()

    def test_submit_without_providers_queues(self):
        harness = Harness()
        tasklet_id, replies = harness.submit()
        assert bodies(replies, SubmitAck)[0].accepted
        assert bodies(replies, AssignExecution) == []
        assert harness.broker.pending_tasklets == 1
        # A provider arriving later drains the backlog.
        replies = harness.add_provider()
        assigns = bodies(replies, AssignExecution)
        assert len(assigns) == 1 and assigns[0].tasklet_id == tasklet_id

    def test_malformed_tasklet_rejected(self):
        harness = Harness()
        replies = harness.send(SubmitTasklet(tasklet={"tasklet_id": "x"}), src="c1")
        acks = bodies(replies, SubmitAck)
        assert not acks[0].accepted
        assert "malformed" in acks[0].reason

    def test_local_only_rejected_at_broker(self):
        harness = Harness()
        harness.add_provider()
        tasklet = Tasklet(
            tasklet_id=TaskletId("tl-local"),
            program=PROGRAM,
            entry="main",
            args=[1],
            qoc=QoC.private(),
        )
        replies = harness.send(SubmitTasklet(tasklet=tasklet.to_dict()), src="c1")
        assert not bodies(replies, SubmitAck)[0].accepted

    def test_identical_resubmit_is_idempotent(self):
        # Same id, same payload: the resubmit (e.g. after a consumer
        # reconnect) re-acks the in-flight attempt instead of rejecting
        # or double-executing.
        harness = Harness()
        harness.add_provider()
        tasklet = Tasklet(
            tasklet_id=TaskletId("tl-dup"), program=PROGRAM, entry="main", args=[1]
        )
        harness.send(SubmitTasklet(tasklet=tasklet.to_dict()), src="c1")
        issued = harness.broker.stats.executions_issued
        replies = harness.send(SubmitTasklet(tasklet=tasklet.to_dict()), src="c1")
        assert bodies(replies, SubmitAck)[0].accepted
        assert bodies(replies, AssignExecution) == []
        assert harness.broker.stats.executions_issued == issued
        assert harness.broker.pending_tasklets == 1

    def test_conflicting_duplicate_tasklet_id_rejected(self):
        # Same id but a *different* computation is a real collision.
        harness = Harness()
        harness.add_provider()
        tasklet = Tasklet(
            tasklet_id=TaskletId("tl-dup"), program=PROGRAM, entry="main", args=[1]
        )
        harness.send(SubmitTasklet(tasklet=tasklet.to_dict()), src="c1")
        conflicting = Tasklet(
            tasklet_id=TaskletId("tl-dup"), program=PROGRAM, entry="main", args=[2]
        )
        replies = harness.send(SubmitTasklet(tasklet=conflicting.to_dict()), src="c1")
        ack = bodies(replies, SubmitAck)[0]
        assert not ack.accepted
        assert "duplicate" in ack.reason

    @pytest.mark.parametrize("other", [[1.0], [True], [2]], ids=repr)
    def test_resubmit_with_equal_but_differently_typed_args_is_another_computation(self, other):
        """Regression: in-flight resubmit identity was Python ``==`` on the
        argument lists, under which ``[1] == [1.0] == [True]`` — resubmitting
        ``tl-dup`` with ``[1.0]`` while ``tl-dup`` with ``[1]`` was in flight
        was acked ``accepted`` and answered with the other computation's
        result (``[2]`` was refused all along).  The packed bytes tell them
        apart, as they do for the memo key and the vote."""
        harness = Harness()
        harness.add_provider()
        program = compile_source("func main(x: float) -> float { return x / 2.0; }")
        first = Tasklet(TaskletId("tl-dup"), program, "main", [1])
        harness.send(SubmitTasklet(tasklet=first.to_dict()), src="c1")
        twin = Tasklet(TaskletId("tl-dup"), program, "main", other)
        (ack,) = bodies(harness.send(SubmitTasklet(tasklet=twin.to_dict()), src="c1"), SubmitAck)
        assert not ack.accepted and ack.reason == "duplicate tasklet id"
        same = Tasklet(TaskletId("tl-dup"), program, "main", [1])
        assert bodies(harness.send(SubmitTasklet(tasklet=same.to_dict()), src="c1"), SubmitAck)[0].accepted
        assert harness.broker.stats.executions_issued == 1 and harness.broker.pending_tasklets == 1


class TestCompletion:
    def test_result_completes_tasklet(self):
        harness = Harness()
        harness.add_provider()
        _tid, replies = harness.submit()
        assign = bodies(replies, AssignExecution)[0]
        replies = harness.complete(assign, value=42)
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1
        assert completions[0].ok and opened(completions[0].value) == 42
        assert completions[0].attempts == 1
        assert harness.broker.pending_tasklets == 0
        assert harness.broker.stats.tasklets_completed == 1

    def test_completion_goes_to_submitting_consumer(self):
        harness = Harness()
        harness.add_provider()
        _tid, replies = harness.submit(consumer="consumer-7")
        assign = bodies(replies, AssignExecution)[0]
        messages = harness.complete(assign)
        destinations = [dst for dst, body in messages if isinstance(body, TaskletComplete)]
        assert destinations == ["consumer-7"]

    def test_late_duplicate_result_ignored(self):
        harness = Harness()
        harness.add_provider()
        _tid, replies = harness.submit()
        assign = bodies(replies, AssignExecution)[0]
        harness.complete(assign)
        replies = harness.complete(assign)  # duplicate
        assert bodies(replies, TaskletComplete) == []

    def test_vm_error_without_retries_fails_tasklet(self):
        harness = Harness()
        harness.add_provider()
        _tid, replies = harness.submit()
        assign = bodies(replies, AssignExecution)[0]
        replies = harness.complete(assign, status="vm_error", value=None)
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1 and not completions[0].ok
        assert harness.broker.stats.tasklets_failed == 1

    def test_failure_with_retries_reissues(self):
        harness = Harness()
        harness.add_provider("p1")
        harness.add_provider("p2")
        _tid, replies = harness.submit(qoc=QoC(max_attempts=3))
        assign = bodies(replies, AssignExecution)[0]
        replies = harness.complete(assign, status="vm_error")
        reissues = bodies(replies, AssignExecution)
        assert len(reissues) == 1
        assert reissues[0].execution_id != assign.execution_id
        # Second attempt succeeds.
        replies = harness.complete(reissues[0], provider="p2")
        assert bodies(replies, TaskletComplete)[0].ok

    def test_attempt_budget_exhausts(self):
        harness = Harness()
        harness.add_provider()
        _tid, replies = harness.submit(qoc=QoC(max_attempts=2))
        assign = bodies(replies, AssignExecution)[0]
        replies = harness.complete(assign, status="vm_error")
        second = bodies(replies, AssignExecution)[0]
        replies = harness.complete(second, status="vm_error")
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1 and not completions[0].ok
        assert "failed" in completions[0].error


class TestRedundancy:
    def test_replicas_go_to_distinct_providers(self):
        harness = Harness()
        for name in ("p1", "p2", "p3"):
            harness.add_provider(name, capacity=1)
        _tid, replies = harness.submit(qoc=QoC.reliable(redundancy=3))
        assigns = bodies(replies, AssignExecution)
        destinations = [dst for dst, body in replies if isinstance(body, AssignExecution)]
        assert len(assigns) == 3
        assert len(set(destinations)) == 3

    def test_majority_completes_and_cancels_rest(self):
        harness = Harness()
        for name in ("p1", "p2", "p3"):
            harness.add_provider(name, capacity=1)
        _tid, replies = harness.submit(qoc=QoC.reliable(redundancy=3))
        assigns = [(dst, body) for dst, body in replies if isinstance(body, AssignExecution)]
        harness.complete(assigns[0][1], value=7, provider=assigns[0][0])
        replies = harness.complete(assigns[1][1], value=7, provider=assigns[1][0])
        completions = bodies(replies, TaskletComplete)
        cancels = bodies(replies, CancelExecution)
        assert completions[0].ok and opened(completions[0].value) == 7
        assert len(cancels) == 1
        assert cancels[0].execution_id == assigns[2][1].execution_id

    @pytest.mark.parametrize("redundancy", [1, 3])
    def test_completion_carries_the_winning_value_once(self, redundancy):
        """Records of the agreeing group go without their ``value``: the
        consumer re-attaches the completion's.  A dissenter keeps its own."""
        array, wrong = packed(list(range(70_000, 71_024))), packed(list(range(1024)))
        harness = Harness()
        for name in ("p1", "p2", "p3"):
            harness.add_provider(name, capacity=1)
        _tid, replies = harness.submit(qoc=QoC(redundancy=redundancy, max_attempts=3))
        assigns = [(dst, body) for dst, body in replies if isinstance(body, AssignExecution)]
        values = [array] if redundancy == 1 else [wrong, array, array]
        for (provider, assign), value in zip(assigns, values):
            envelopes = harness.broker.handle(
                ExecutionResult(
                    execution_id=assign.execution_id,
                    tasklet_id=assign.tasklet_id,
                    provider_id=provider,
                    status="success",
                    value=value,
                ).envelope(NodeId(provider), harness.broker.node_id)
            )
        (complete,) = [e for e in envelopes if e.type == "tasklet_complete"]
        body = body_of(complete)
        assert body.ok and body.value == array
        agreeing = [record for record in body.executions if "value" not in record]
        dissenting = [record for record in body.executions if "value" in record]
        assert len(agreeing) == (redundancy + 1) // 2
        assert [record["value"] for record in dissenting] == [wrong] * (redundancy // 2)
        assert encode_envelope(complete, CODEC_BINARY).count(array) == 1

    def test_disagreement_reported_when_budget_gone(self):
        harness = Harness()
        for name in ("p1", "p2"):
            harness.add_provider(name, capacity=1)
        _tid, replies = harness.submit(qoc=QoC(redundancy=2, max_attempts=1))
        assigns = [(dst, body) for dst, body in replies if isinstance(body, AssignExecution)]
        harness.complete(assigns[0][1], value=1, provider=assigns[0][0])
        replies = harness.complete(assigns[1][1], value=2, provider=assigns[1][0])
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1
        assert not completions[0].ok
        assert "disagreed" in completions[0].error

    def test_small_pool_queues_missing_replicas(self):
        harness = Harness()
        harness.add_provider("p1", capacity=1)
        _tid, replies = harness.submit(qoc=QoC.reliable(redundancy=3))
        assert len(bodies(replies, AssignExecution)) == 1
        # New provider triggers placement of a queued replica.
        replies = harness.add_provider("p2", capacity=1)
        assert len(bodies(replies, AssignExecution)) == 1


class TestUnregister:
    def test_unregister_fails_outstanding_work(self):
        harness = Harness()
        harness.add_provider("p1", capacity=1)
        _tid, replies = harness.submit()
        assert len(bodies(replies, AssignExecution)) == 1
        replies = harness.send(Unregister(provider_id="p1"), src="p1")
        completions = bodies(replies, TaskletComplete)
        assert len(completions) == 1 and not completions[0].ok

    def test_unregister_with_retry_reissues_elsewhere(self):
        harness = Harness()
        harness.add_provider("p1", capacity=1)
        harness.add_provider("p2", capacity=1)
        _tid, replies = harness.submit(qoc=QoC(max_attempts=2))
        first_dst = [dst for dst, body in replies if isinstance(body, AssignExecution)][0]
        other = "p2" if first_dst == "p1" else "p1"
        replies = harness.send(Unregister(provider_id=first_dst), src=first_dst)
        reissues = [(dst, body) for dst, body in replies if isinstance(body, AssignExecution)]
        assert len(reissues) == 1
        assert reissues[0][0] == other


class TestWorkflowNodeIds:
    """Node tasklets share the tasklet table with plain ones, under
    ``consumer/workflow:node``."""

    SOURCE = "func main(x: int) -> int { return x * 2; }"

    def _start_workflow(self, harness):
        builder = WorkflowBuilder("wf-1")
        builder.node(self.SOURCE, args=[21], node_id="n1")
        spec = builder.build()
        replies = harness.send(SubmitWorkflow(workflow=spec.to_dict()), src="c1")
        (assign,) = bodies(replies, AssignExecution)
        node = spec.node("n1")
        twin = Tasklet(
            tasklet_id=TaskletId("wf-1:n1"),
            program=compile_source(self.SOURCE),
            entry=node.entry,
            args=[21],
            seed=node.seed,
            fuel=node.fuel,
        )
        assert twin.program.fingerprint() == node.program_fingerprint
        return assign, SubmitTasklet(tasklet=twin.to_dict())

    def test_plain_submit_of_a_running_workflow_nodes_id_is_refused_not_forgotten(self):
        """Regression: the same computation under a running node's id was
        an in-flight admission — acked accepted — and when the node ended
        its outcome went to the graph only: no ``TaskletComplete``, ever."""
        harness = Harness()
        harness.add_provider()
        assign, twin = self._start_workflow(harness)
        (ack,) = bodies(harness.send(twin, src="c1"), SubmitAck)
        assert not ack.accepted and "workflow 'wf-1'" in ack.reason
        # The node itself is untouched, and another consumer's id is its own.
        assert bodies(harness.send(twin, src="c2"), SubmitAck)[0].accepted
        replies = harness.complete(assign)
        (done,) = bodies(replies, WorkflowComplete)
        assert done.ok and done.outputs == {"n1": packed(42)}
        assert [dst for dst, body in replies if isinstance(body, TaskletComplete)] == []

    def test_plain_submit_of_a_finished_nodes_id_still_answers(self):
        harness = Harness()
        harness.add_provider()
        assign, twin = self._start_workflow(harness)
        harness.complete(assign)
        replies = harness.send(twin, src="c1")
        assert bodies(replies, SubmitAck)[0].accepted
        (done,) = bodies(replies, TaskletComplete)
        assert done.ok and opened(done.value) == 42 and done.tasklet_id == "wf-1:n1"
        assert harness.broker.pending_tasklets == 0


@pytest.mark.parametrize(
    "damage",
    [
        {"qoc": 7},
        {"args": 7},
        {"program": "x"},
        {"seed": "x"},
        {"entry": []},
        {"tasklet_id": {}},
        {"program_fingerprint": 7},
    ],
    ids=lambda damage: next(iter(damage)),
)
def test_malformed_tasklet_dict_is_refused_or_read_as_text_never_raised(damage):
    """What is *inside* a tasklet dict is its reader's business, which
    refuses it by id — nothing is read as text any more — and what the
    broker then sends about it is readable by whoever receives it
    (``Harness.send`` reads it all).  A tasklet that does not even name
    itself cannot be refused by id: the message is unreadable."""
    harness = Harness()
    harness.add_provider()
    tasklet = Tasklet(TaskletId("tl-1"), PROGRAM, entry="main", args=[1]).to_dict()
    replies = harness.send(SubmitTasklet(tasklet={**tasklet, **damage}), src="c1")
    if "tasklet_id" in damage:
        assert replies == [] and harness.broker.stats.messages_unreadable == 1
    else:
        (ack,) = bodies(replies, SubmitAck)
        assert not ack.accepted and ack.tasklet_id == "tl-1"
        assert ack.reason.startswith(f"malformed tasklet: {next(iter(damage))} ")
    assert bodies(replies, AssignExecution) == []
    assert harness.broker.pending_tasklets == 0


@pytest.mark.parametrize("with_journal", [False, True], ids=["memory", "journal"])
@pytest.mark.parametrize(
    "args", [[1], 7, None, "x", b"\x00", packed(1), *HOSTILE_BLOBS], ids=lambda a: repr(a)[:24]
)
def test_args_that_pack_no_argument_list_are_refused_by_id_and_leave_nothing(
    args, with_journal, tmp_path
):
    """``args`` travels packed and is checked as the bytes it is, unopened:
    a list (what an older peer sends), no bytes at all, bytes that are no
    packed value, that pack a scalar, ``None`` or a value no Tasklet takes
    — each refused by id, with no table entry, no journal line, nothing
    sent but the refusal, and never an exception (100k-deep nesting
    included)."""
    journal = WorkJournal(str(tmp_path / "j.jsonl")) if with_journal else None
    harness = Harness(journal=journal)
    harness.add_provider()
    tasklet = Tasklet(TaskletId("tl-1"), PROGRAM, entry="main", args=[1]).to_dict()
    replies = harness.send(SubmitTasklet(tasklet={**tasklet, "args": args}), src="c1")
    (ack,) = bodies(replies, SubmitAck)
    assert len(replies) == 1 and not ack.accepted and ack.tasklet_id == "tl-1"
    assert ack.reason.startswith("malformed tasklet: args "), ack.reason
    broker = harness.broker
    assert broker.pending_tasklets == 0 and not broker._completed and len(broker.result_cache) == 0
    assert (broker.stats.tasklets_submitted, broker.stats.executions_issued) == (1, 0)
    assert broker.stats.messages_unreadable == 0
    if journal is not None:
        journal.close()
        assert (tmp_path / "j.jsonl").read_text() == ""
    # The id is free: the same tasklet, its arguments as they should be, runs.
    replies = harness.send(SubmitTasklet(tasklet=tasklet), src="c1")
    assert bodies(replies, SubmitAck)[0].accepted and len(bodies(replies, AssignExecution)) == 1


def test_malformed_workflow_dict_is_refused_not_raised():
    harness = Harness()
    for workflow in ({"workflow_id": "w", "nodes": [], "programs": 7}, {"workflow_id": "w", "nodes": 7}):
        (ack,) = bodies(harness.send(SubmitWorkflow(workflow=workflow), src="c1"), WorkflowAck)
        assert not ack.accepted and "invalid workflow" in ack.reason
    # One that does not name itself cannot be refused by id: unreadable.
    assert harness.send(SubmitWorkflow(workflow={}), src="c1") == []
    assert harness.broker.stats.messages_unreadable == 1
    assert harness.broker.pending_workflows == 0


# -- one record grammar: what is inside a tasklet / a workflow is read strictly -------


@pytest.mark.parametrize(
    "damage, reason",
    [
        ({"qoc": {"speed": "no"}}, "qoc holds a malformed qoc: speed is a str"),
        ({"qoc": {"redundancy": 2.9}}, "qoc holds a malformed qoc: redundancy is a float"),
        ({"fuel": True}, "fuel is a bool"),
        ({"seed": "7"}, "seed is a str"),
        ({"entry": None}, "entry is a NoneType"),
        ({"entry": "nosuch"}, "program has no entry function 'nosuch'"),
        ({"args": packed([1, 2])}, r"main\(\) expects 1 arguments, got 2"),
    ],
    ids=["qoc.speed", "qoc.redundancy", "fuel", "seed", "entry-null", "entry-unknown", "arity"],
)
def test_what_used_to_be_coerced_is_refused_by_id(damage, reason):
    """``speed: "no"`` admitted as ``True``, ``redundancy: 2.9`` as 2,
    ``fuel: true`` as one unit, ``seed: "7"`` as 7, ``entry: null`` as the
    entry ``"None"``.  Now each is answered by id, and nothing is kept —
    in the words a well-typed tasklet that is no Tasklet (the last two
    cases) has always been refused with."""
    harness = Harness()
    harness.add_provider()
    tasklet = Tasklet(TaskletId("tl-1"), PROGRAM, entry="main", args=[1]).to_dict()
    replies = harness.send(SubmitTasklet(tasklet={**tasklet, **damage}), src="c1")
    (ack,) = bodies(replies, SubmitAck)
    assert len(replies) == 1 and not ack.accepted and ack.tasklet_id == "tl-1"
    assert ack.reason.startswith("malformed tasklet: ")
    assert ack.reason.count("malformed tasklet") == 1
    assert re.search(reason, ack.reason), ack.reason
    assert harness.broker.pending_tasklets == 0


class TestWorkflowAdmissionOpensPrograms:
    """A workflow's programs are opened once each, when it is admitted —
    so what only a program can say about a node is said in the ack."""

    TWO = "func half(x: int) -> int { return x / 2; } func main(x: int, y: int) -> int { return x + y; }"

    def _spec(self, **last):
        builder = WorkflowBuilder("wf-1")
        first = builder.node(PROGRAM, args=[1], node_id="a")
        middle = builder.node(PROGRAM, args=[{"$from": first}], node_id="b")
        builder.node(self.TWO, node_id="c", **{"args": [{"$from": middle}, 1], **last})
        return builder.build()

    @pytest.mark.parametrize(
        "last, reason",
        [
            ({"entry": "nosuch"}, "node 'c': program has no entry function 'nosuch'"),
            ({"args": [{"$from": "b"}]}, r"node 'c': main\(\) expects 2 arguments, got 1"),
            ({"entry": "half"}, r"node 'c': half\(\) expects 1 arguments, got 2"),
        ],
        ids=["entry", "too-few", "too-many"],
    )
    def test_a_node_its_program_cannot_run_is_refused_in_the_ack(self, tmp_path, last, reason):
        """Regression: such a spec passed ``validate()`` and failed only
        when that node was released — after every predecessor had run."""
        spec = self._spec(**last)  # (valid as far as a spec can tell)
        journal = WorkJournal(str(tmp_path / "journal.jsonl"))
        harness = Harness(journal=journal)
        harness.add_provider()
        replies = harness.send(SubmitWorkflow(workflow=spec.to_dict()), src="c1")
        journal.close()
        (ack,) = bodies(replies, WorkflowAck)
        assert len(replies) == 1 and not ack.accepted
        assert re.search("invalid workflow: " + reason, ack.reason), ack.reason
        assert harness.broker.pending_workflows == harness.broker.pending_tasklets == 0
        assert harness.broker.stats.executions_issued == 0
        assert (tmp_path / "journal.jsonl").read_text() == ""

    def test_a_malformed_program_is_refused_by_fingerprint(self):
        document = self._spec().to_dict()
        blob = packed_document({"version": 1, "functions": "x", "constants": []})
        fingerprint = document["nodes"][2]["program_fingerprint"] = checked_stamp(blob)
        document["programs"][fingerprint] = blob
        harness = Harness()
        (ack,) = bodies(harness.send(SubmitWorkflow(workflow=document), src="c1"), WorkflowAck)
        assert not ack.accepted
        assert f"program {fingerprint!r}: malformed program: functions is a str" in ack.reason

    def test_programs_are_opened_once_each_not_once_per_node(self, monkeypatch):
        """The counting test: one ``CompiledProgram.from_dict`` per
        *distinct program* per broker — none for a ``submit_tasklet`` or a
        workflow table entry whose bytes it has opened before, and none as
        nodes are released."""
        opened = []
        original = CompiledProgram.from_dict.__func__
        monkeypatch.setattr(
            CompiledProgram,
            "from_dict",
            classmethod(lambda cls, data: opened.append(1) or original(cls, data)),
        )
        harness = Harness()
        harness.add_provider(capacity=8)
        _tid, replies = harness.submit()
        assert len(opened) == 1 and len(bodies(replies, AssignExecution)) == 1
        harness.submit()  # the same bytes again: hashed, looked up, not opened
        assert len(opened) == 1
        builder = WorkflowBuilder("wf-wide")
        source = builder.node(PROGRAM, args=[1], node_id="n0")
        for index in range(1, 7):
            builder.node(PROGRAM, args=[{"$from": source}], node_id=f"n{index}")
        builder.node(self.TWO, args=[{"$from": "n1"}, {"$from": "n2"}], node_id="sum")
        replies = harness.send(SubmitWorkflow(workflow=builder.build().to_dict()), src="c1")
        assert bodies(replies, WorkflowAck)[0].accepted
        assert len(opened) == 2  # eight nodes, two programs, one of them new to this broker
        pending, finished = bodies(replies, AssignExecution), []
        while pending:  # the source, the fan-out, then the sum
            replies = harness.complete(pending.pop(0), value=2)
            pending.extend(bodies(replies, AssignExecution))
            finished.extend(bodies(replies, WorkflowComplete))
        assert [done.ok for done in finished] == [True]
        assert len(opened) == 2
