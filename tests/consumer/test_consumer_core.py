"""Consumer core: submission bookkeeping and future resolution."""

import dataclasses

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import BrokerUnreachable, CodecError, DuplicateSubmission, TaskletError
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import packed
from repro.consumer.core import ConsumerCore
from repro.core.tasklet import Tasklet
from repro.dag.patterns import chain
from repro.obs import Telemetry
from repro.obs import events as ev
from repro.transport.codec import EnvelopeDecoder, encode_envelope
from repro.transport.message import (
    SubmitAck,
    SubmitTasklet,
    TaskletComplete,
    WorkflowComplete,
    body_of,
)
from repro.tvm.compiler import compile_source
from tests.transport.test_messages import HOSTILE_BLOBS

PROGRAM = compile_source("func main(x: int) -> int { return x + 1; }")


def make_core(clock=None):
    return ConsumerCore(node_id=NodeId("c1"), clock=clock or VirtualClock())


def make_tasklet(tasklet_id="tl-1"):
    return Tasklet(
        tasklet_id=TaskletId(tasklet_id), program=PROGRAM, entry="main", args=[1]
    )


def submit_one(core, tasklet):
    (future,), envelopes = core.submit_tasklets([tasklet])
    return future, envelopes


def deliver(core, body, src="broker", **payload):
    """Hand ``core`` the envelope of ``body`` — with the ``payload`` fields
    a peer wrote in its stead (execution records as the dicts they travel as)."""
    envelope = body.envelope(NodeId(src), core.node_id)
    if payload:
        envelope.payload.update(payload)
    return core.handle(envelope)


def test_submit_produces_wire_message_and_future():
    core = make_core()
    future, envelopes = submit_one(core, make_tasklet())
    assert not future.done
    assert len(envelopes) == 1
    body = body_of(envelopes[0])
    assert isinstance(body, SubmitTasklet)
    assert body.tasklet["tasklet_id"] == "tl-1"
    assert core.pending == 1
    assert core.stats.submitted == 1


def test_completion_resolves_future_with_latency():
    clock = VirtualClock()
    core = make_core(clock)
    future, _ = submit_one(core, make_tasklet())
    clock.advance(2.5)
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2), attempts=1))
    outcome = future.wait(0)
    assert outcome.ok and outcome.value == 2
    assert outcome.latency == 2.5
    assert core.pending == 0
    assert core.stats.completed == 1


def test_failed_completion():
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=False, error="lost", attempts=3))
    outcome = future.wait(0)
    assert not outcome.ok
    assert outcome.error == "lost"
    assert outcome.attempts == 3
    assert core.stats.failed == 1


def test_broker_rejection_resolves_future_as_failed():
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    deliver(core, SubmitAck(tasklet_id="tl-1", accepted=False, reason="no capacity"))
    outcome = future.wait(0)
    assert not outcome.ok
    assert "no capacity" in outcome.error
    assert core.stats.rejected == 1


def test_positive_ack_keeps_future_pending():
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    deliver(core, SubmitAck(tasklet_id="tl-1", accepted=True))
    assert not future.done


def test_unknown_completion_ignored():
    core = make_core()
    deliver(core, TaskletComplete(tasklet_id="tl-ghost", ok=True, value=packed(1)))
    assert core.stats.completed == 0


def test_duplicate_completion_ignored():
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(1)))
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2)))
    assert future.result(0) == 1
    assert core.stats.completed == 1


def test_execution_records_rehydrated():
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    record = {
        "execution_id": "ex-1",
        "tasklet_id": "tl-1",
        "provider_id": "p1",
        "status": "success",
        "value": packed(2),
        "error": None,
        "instructions": 50,
        "started_at": 0.5,
        "finished_at": 1.0,
    }
    deliver(
        core,
        TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2), attempts=1),
        executions=[record],
    )
    outcome = future.wait(0)
    assert len(outcome.executions) == 1
    assert outcome.executions[0].provider_id == "p1"
    assert outcome.provider_seconds == 0.5


def test_agreeing_records_get_the_verdicts_value_back():
    """The broker sends the winning value once; a record that agreed with
    it arrives without a ``value`` key and is handed the verdict's, so
    ``TaskletResult.executions`` reads as it always did.  A dissenting or
    failed record carries — and keeps — its own."""
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    array = list(range(1024))

    def record(n, status="success", **extra):
        return dict(
            execution_id=f"ex-{n}", tasklet_id="tl-1", provider_id=f"p{n}", status=status,
            error=None, instructions=5, started_at=0.0, finished_at=1.0, **extra,
        )

    executions = [
        record(1, "vm_error", value=None),
        record(2, value=packed([0])),  # outvoted
        record(3),
        record(4),
    ]
    deliver(
        core,
        TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(array), attempts=4),
        executions=executions,
    )
    outcome = future.wait(0)
    assert [r.value for r in outcome.executions] == [None, [0], array, array]
    assert all(r.value == outcome.value for r in outcome.executions[2:])


def test_a_handled_completion_still_holds_what_crossed_the_wire():
    """The values are opened into the result's own records: the envelope's
    body keeps the packed, agreeing-without-a-value records it was read into."""
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    item = {"execution_id": "ex-1", "tasklet_id": "tl-1", "provider_id": "p1", "status": "success"}
    sent = TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2)).envelope(
        NodeId("broker"), core.node_id
    )
    sent.payload["executions"] = [item]
    frame = encode_envelope(sent)
    ((envelope, _size),) = EnvelopeDecoder().feed(frame)
    core.handle(envelope)
    assert [record.value for record in future.wait(0).executions] == [2]
    assert envelope.body.executions[0].value is None
    assert encode_envelope(envelope) == frame


@pytest.mark.parametrize(
    "record",
    [{"execution_id": "ex-1"}, "x", {"status": "exploded"}, {"instructions": "many"}],
    ids=["missing-keys", "not-a-record", "unknown-status", "mistyped-number"],
)
def test_malformed_execution_record_never_orphans_a_future(record):
    """Regression: one bad record in ``executions`` (a list a broker relays
    verbatim from its peer) raised *after* the pending entry was popped
    and counted — the future never resolved and nothing pointed to it any
    more.  Now the message is unreadable: the future stays pending, and
    counted pending, for the well-formed completion that follows."""
    telemetry = Telemetry()
    core = ConsumerCore(NodeId("c1"), VirtualClock(), telemetry=telemetry)
    future, _ = submit_one(core, make_tasklet())
    good = {"execution_id": "ex-1", "tasklet_id": "tl-1", "provider_id": "p1", "status": "success"}
    if isinstance(record, dict) and "execution_id" not in record:
        record = {**good, **record}
    bad = TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2))
    assert deliver(core, bad, executions=[good, record]) == []
    assert not future.done and core.pending == 1
    assert (core.stats.completed, core.stats.failed) == (0, 0)
    (event,) = telemetry.events.events(kind=ev.MESSAGE_UNREADABLE)
    assert event.node == "broker" and event.attrs["type"] == "tasklet_complete"
    assert "executions" in event.attrs["reason"]
    assert telemetry.spans.spans() == []
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2)), executions=[good])
    assert future.result(0) == 2 and core.pending == 0 and core.stats.completed == 1
    assert [record.value for record in future.wait(0).executions] == [2]


def test_second_submit_of_pending_id_raises_and_first_future_still_resolves():
    core = make_core()
    first, _ = submit_one(core, make_tasklet())
    with pytest.raises(DuplicateSubmission, match="tl-1") as refused:
        submit_one(core, make_tasklet())
    assert isinstance(refused.value, TaskletError)
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2)))
    assert first.result(0) == 2
    assert core.pending == 0
    stats = dataclasses.asdict(core.stats)
    assert (stats["submitted"], stats["completed"], stats["failed"]) == (1, 1, 0)
    # Answered, so the id may be submitted again.
    again, envelopes = submit_one(core, make_tasklet())
    assert again is not first and len(envelopes) == 1


@pytest.mark.parametrize(
    "batch",
    [["tl-2", "tl-1"], ["tl-2", "tl-3", "tl-2"]],
    ids=["clashes-with-pending", "duplicate-inside-batch"],
)
def test_refused_batch_registers_nothing(batch):
    core = make_core()
    first, _ = submit_one(core, make_tasklet("tl-1"))
    with pytest.raises(DuplicateSubmission):
        core.submit_tasklets([make_tasklet(tasklet_id) for tasklet_id in batch])
    assert core.pending == 1 and core.stats.submitted == 1
    # Nothing of the refused batch is known: its completions are ignored.
    deliver(core, TaskletComplete(tasklet_id="tl-2", ok=True, value=packed(0)))
    assert core.stats.completed == 0
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(2)))
    assert first.result(0) == 2


def test_batch_is_one_registration_in_order():
    core = make_core()
    futures, envelopes = core.submit_tasklets(
        [make_tasklet(f"tl-{n}") for n in range(3)]
    )
    assert [future.tasklet_id for future in futures] == ["tl-0", "tl-1", "tl-2"]
    assert [body_of(e).tasklet["tasklet_id"] for e in envelopes] == [
        "tl-0", "tl-1", "tl-2"
    ]
    assert core.pending == 3 and core.stats.submitted == 3


def test_rejection_of_unknown_id_counts_nothing():
    core = make_core()
    deliver(core, SubmitAck(tasklet_id="tl-ghost", accepted=False, reason="x"))
    assert core.stats.rejected == 0 and core.stats.failed == 0


def test_disconnect_event_when_only_workflows_pending():
    telemetry = Telemetry()
    core = ConsumerCore(NodeId("c1"), VirtualClock(), telemetry=telemetry)
    handle, _ = core.submit_workflow(chain(2, work=10))
    assert core.fail_all_pending("link down") == 0  # no tasklet futures
    with pytest.raises(BrokerUnreachable, match="link down"):
        handle.result(0)
    (event,) = [e for e in telemetry.events.events() if e.kind == ev.DISCONNECT]
    assert event.attrs["pending_failed"] == 1
    assert core.pending == 0 and core.stats.workflows_failed == 1


def test_fail_all_pending_resolves_every_future_with_typed_error():
    core = make_core()
    first, _ = submit_one(core, make_tasklet("tl-1"))
    second, _ = submit_one(core, make_tasklet("tl-2"))
    failed = core.fail_all_pending("connection to broker lost")
    assert failed == 2
    assert core.pending == 0
    assert core.stats.failed == 2
    for future in (first, second):
        assert future.done
        outcome = future.wait(0)
        assert outcome.ok is False
        assert "broker unreachable" in outcome.error
        with pytest.raises(BrokerUnreachable):
            future.result(0)


def test_fail_all_pending_with_nothing_pending_is_noop():
    core = make_core()
    assert core.fail_all_pending("whatever") == 0
    assert core.stats.failed == 0


def test_late_completion_after_fail_all_pending_ignored():
    core = make_core()
    future, _ = submit_one(core, make_tasklet())
    core.fail_all_pending("connection to broker lost")
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(7)))
    # The typed failure won the write-once race; the late result is dropped.
    assert future.wait(0).ok is False
    assert core.stats.completed == 0


# -- values arrive packed: opened once, here, or the waiter fails typed -----------


#: (Three of the hostile blobs do open — to values no Tasklet returns,
#: which is the broker's check, made before anything was voted on.)
UNOPENABLE = [
    blob for blob in HOSTILE_BLOBS
    if blob not in (packed([{"a": 1}]), packed([b"x"]), packed([None]))
]


@pytest.mark.parametrize("value", [2, [1], "x", *UNOPENABLE], ids=lambda v: repr(v)[:24])
def test_an_unopenable_completion_fails_the_future_typed_not_pending(value):
    """``tasklet_complete.value`` reads at the boundary whatever it is; what
    does not open — no bytes at all (an older broker's list), or bytes
    that are no packed value — ends the submission with a typed error,
    counted as a failure: the future is never left waiting for a value
    that cannot come, and no half-opened result reaches the application."""
    telemetry = Telemetry()
    core = ConsumerCore(NodeId("c1"), VirtualClock(), telemetry=telemetry)
    future, _ = submit_one(core, make_tasklet())
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=value, attempts=1))
    assert future.done and core.pending == 0
    assert (core.stats.completed, core.stats.failed) == (0, 1)
    with pytest.raises(CodecError):
        future.result(0)
    outcome = future.wait(0)
    assert not outcome.ok and outcome.value is None and outcome.error.startswith("unreadable result: ")
    assert telemetry.events.events(kind=ev.MESSAGE_UNREADABLE) == []  # it *was* read
    failures = telemetry.registry.get("repro_consumer_failures_total")
    assert failures.labels(kind="unreadable").value == 1
    # The same goes for the value of one execution record among good ones.
    future, _ = submit_one(core, make_tasklet("tl-2"))
    record = {"execution_id": "ex-1", "tasklet_id": "tl-2", "provider_id": "p1",
              "status": "success", "value": value}
    deliver(core, TaskletComplete("tl-2", ok=True, value=packed(2)), executions=[record])
    with pytest.raises(CodecError):
        future.result(0)


def test_a_void_result_and_a_failure_carry_no_surprise():
    core = make_core()
    void, _ = submit_one(core, make_tasklet("tl-1"))
    deliver(core, TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(None)))
    assert void.wait(0).ok and void.result(0) is None
    failed, _ = submit_one(core, make_tasklet("tl-2"))
    deliver(core, TaskletComplete(tasklet_id="tl-2", ok=False, error="all 1 executions failed"))
    assert not failed.wait(0).ok and failed.wait(0).value is None


@pytest.mark.parametrize("blob", [3, None, *UNOPENABLE[:3]], ids=lambda v: repr(v)[:24])
def test_an_unopenable_workflow_output_fails_the_handle_typed(blob):
    core = make_core()
    spec = chain(2, work=10)
    handle, _ = core.submit_workflow(spec)
    complete = WorkflowComplete(spec.workflow_id, ok=True, outputs={"n1": packed(4), "n2": blob})
    deliver(core, complete)
    assert handle.done and core.pending == 0
    assert (core.stats.workflows_completed, core.stats.workflows_failed) == (0, 1)
    with pytest.raises(CodecError):
        handle.result(0)
    good, _ = core.submit_workflow(spec)
    deliver(core, WorkflowComplete(spec.workflow_id, ok=True, outputs={"n2": packed([4, 5.5])}))
    assert good.result(0) == {"n2": [4, 5.5]} and core.stats.workflows_completed == 1
