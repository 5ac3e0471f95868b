"""A stateful model of the consumer protocol: ``ConsumerCore`` on its own.

No sockets, no threads, a ``VirtualClock``.  Hypothesis interleaves
everything an application, a broker and a dying link can do to the core —
submit (a fresh id, an answered id again, an id that is still pending, a
batch with a pending id or an internal duplicate), ``submit_ack`` accept
and reject, ``tasklet_complete`` ok / failed / duplicate / for an unknown
id, ``submit_workflow`` (fresh and in flight), ``workflow_ack`` accept and
reject, ``workflow_update``, ``workflow_complete`` ok / failed /
duplicate, ``fail_all_pending``, clock advances — where any broker message
may first have one field replaced by something else the codecs carry (the
*hostile* step: a field of the message, or one inside an execution record
it carries) — and after every step
checks what the QoC layer promises the application (DESIGN.md §8):

* a message the boundary cannot read changes nothing (and, with telemetry
  on, is one ``message_unreadable`` event); one it can read is acted on as
  read, whatever it now says;

* every waiter ever handed out is answered at most once, and exactly
  once as soon as its id has ended — with the result, error type and
  latency the ending calls for;
* ``pending`` is the number of ids not yet ended;
* ``submitted == completed + failed + pending tasklets`` and
  ``rejected <= failed``, the same identity for the three workflow
  counters, and every counter equals the model's own count;
* when nothing is pending every table of the core is empty — no submit
  time or trace context outlives its submission, telemetry on or off;
* with telemetry on, every ended submission has exactly one root span, on
  the trace its submit message carried, and the consumer metrics agree
  with ``ConsumerStats``.
"""

import dataclasses

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.clock import VirtualClock
from repro.common.errors import (
    BrokerUnreachable,
    CodecError,
    DuplicateSubmission,
    ExecutionFailed,
    WorkflowFailed,
    WorkflowSpecError,
)
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import packed, unpack_value
from repro.consumer.core import ConsumerCore, ConsumerStats
from repro.core.tasklet import Tasklet
from repro.dag import WorkflowBuilder
from repro.obs import Telemetry
from repro.obs import events as ev
from repro.transport.message import (
    BROKER_ADDRESS,
    SubmitAck,
    SubmitTasklet,
    SubmitWorkflow,
    TaskletComplete,
    WorkflowAck,
    WorkflowComplete,
    WorkflowUpdate,
    body_of,
)
from repro.tvm.compiler import compile_source

from tests.transport.test_messages import HOSTILE_MENU, hostile, read

SOURCE = "func main(x: int) -> int { return x + 1; }"
PROGRAM = compile_source(SOURCE)
#: A small id space, so resubmits, duplicates and late messages collide.
TASKLET_IDS = [f"tl-{n}" for n in range(6)]
WORKFLOW_IDS = [f"wf-{n}" for n in range(3)]
_RECORD = {"execution_id": "ex-1", "tasklet_id": "tl-0", "provider_id": "p1", "status": "success"}
#: What may sit in ``tasklet_complete.executions``: mostly records — one
#: that agreed (no value of its own), one outvoted, one failed.
RECORDS = [_RECORD, {**_RECORD, "value": packed(40)}, {**_RECORD, "status": "vm_error", "error": "boom"},
           {"execution_id": "ex-1"}, {**_RECORD, "status": "exploded"}, "x"]


def unpacked(blobs):
    """The values ``blobs`` pack, each all of its bytes (None stays None)
    — or None when one of them does not open: written out here, apart
    from ``serde.opened``, as the oracle the core is checked by."""
    values = []
    for blob in blobs:
        if blob is None:
            values.append(None)
            continue
        if type(blob) is not bytes:
            return None
        try:
            value, end = unpack_value(blob, 0)
        except (CodecError, RecursionError):
            return None
        if end != len(blob):
            return None
        values.append(value)
    return values


def tasklet(tasklet_id):
    return Tasklet(TaskletId(tasklet_id), PROGRAM, entry="main", args=[1])


def workflow(workflow_id):
    builder = WorkflowBuilder(workflow_id)
    builder.node(SOURCE, args=[1], node_id="only")
    return builder.build()


@dataclasses.dataclass
class Submission:
    """One waiter the core handed out, and what the model knows about it."""

    waiter: object
    submitted_at: float
    trace_id: str | None
    answers: list = dataclasses.field(default_factory=list)  # (method, args)
    #: How it ended: (error type or None, value or error text, time), once it has.
    ending: tuple | None = None


class ConsumerProtocol(RuleBasedStateMachine):
    TELEMETRY = True

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.telemetry = Telemetry() if self.TELEMETRY else None
        self.core = ConsumerCore(NodeId("c1"), self.clock, telemetry=self.telemetry)
        # -- the model ------------------------------------------------------
        self.submissions = []  # every Submission ever, in order
        self.tasklets = {}  # id -> its pending Submission
        self.workflows = {}
        self.stats = ConsumerStats()
        self.disconnects = 0  # fail_all_pending calls that found something
        self.armed = None  # (pick, value, inside) for the next delivery's hostile step
        self.unreadable = 0

    # -- plumbing -----------------------------------------------------------

    def _deliver(self, body):
        """Hand the core ``body`` — or, when armed, what the hostile step
        made of it; returns the body as read, None for an unreadable one."""
        envelope = body.envelope(BROKER_ADDRESS, self.core.node_id)
        armed, self.armed = self.armed, None
        if armed is not None:
            hostile(envelope, *armed)
        body = read(envelope)
        self.unreadable += body is None
        assert self.core.handle(envelope) == []
        return body

    @rule(
        pick=st.integers(min_value=0, max_value=63),
        value=st.sampled_from(HOSTILE_MENU),
        inside=st.booleans(),
    )
    def arm_hostile_step(self, pick, value, inside):
        """``inside``: the field is one of an execution record the message
        carries, not of the message — which then reads, or is unreadable."""
        self.armed = (pick, value, inside)

    def _watch(self, waiter, envelope):
        """Count what the core itself tells ``waiter`` (the waiters are
        write-once, so a second answer would otherwise go unseen)."""
        trace = envelope.trace
        assert (trace is not None) == self.TELEMETRY
        submission = Submission(
            waiter, self.clock.now(), trace["trace_id"] if trace else None
        )
        for method in ("resolve", "fail"):
            original = getattr(waiter, method)

            def counted(*args, _original=original, _method=method):
                submission.answers.append((_method, args))
                return _original(*args)

            setattr(waiter, method, counted)
        self.submissions.append(submission)
        return submission

    def _registered(self, futures, envelopes, ids):
        assert [future.tasklet_id for future in futures] == ids
        assert len(envelopes) == len(ids)
        for tasklet_id, future, envelope in zip(ids, futures, envelopes):
            body = body_of(envelope)
            assert isinstance(body, SubmitTasklet)
            assert body.tasklet["tasklet_id"] == tasklet_id
            assert (envelope.src, envelope.dst) == (self.core.node_id, BROKER_ADDRESS)
            self.tasklets[tasklet_id] = self._watch(future, envelope)
        self.stats.submitted += len(ids)

    def _end_tasklet(self, tasklet_id, error_type, payload):
        submission = self.tasklets.pop(tasklet_id)
        submission.ending = (error_type, payload, self.clock.now())
        if error_type is None:
            self.stats.completed += 1
        else:
            self.stats.failed += 1

    def _end_workflow(self, workflow_id, error_type, payload):
        submission = self.workflows.pop(workflow_id)
        submission.ending = (error_type, payload, self.clock.now())
        if error_type is None:
            self.stats.workflows_completed += 1
        else:
            self.stats.workflows_failed += 1

    # -- the application: tasklets -------------------------------------------

    @rule(tasklet_id=st.sampled_from(TASKLET_IDS))
    def submit(self, tasklet_id):
        """A fresh id, an answered id again, or one that is still pending."""
        if tasklet_id in self.tasklets:
            with pytest.raises(DuplicateSubmission, match=tasklet_id):
                self.core.submit(tasklet(tasklet_id))
            return
        future, envelopes = self.core.submit(tasklet(tasklet_id))
        self._registered([future], envelopes, [tasklet_id])

    @rule(ids=st.lists(st.sampled_from(TASKLET_IDS), max_size=4))
    def submit_batch(self, ids):
        """All of it or none: refused for a pending id or an internal duplicate."""
        batch = [tasklet(tasklet_id) for tasklet_id in ids]
        if len(set(ids)) < len(ids) or set(ids) & set(self.tasklets):
            with pytest.raises(DuplicateSubmission):
                self.core.submit_tasklets(batch)
            return
        self._registered(*self.core.submit_tasklets(batch), ids)

    # -- the broker: tasklets ------------------------------------------------

    @rule(tasklet_id=st.sampled_from(TASKLET_IDS + ["tl-unknown"]), accepted=st.booleans())
    def submit_ack(self, tasklet_id, accepted):
        ack = self._deliver(SubmitAck(tasklet_id=tasklet_id, accepted=accepted, reason="full"))
        if ack is not None and not ack.accepted and ack.tasklet_id in self.tasklets:
            error = f"rejected by broker: {ack.reason}"
            self._end_tasklet(ack.tasklet_id, ExecutionFailed, error)
            self.stats.rejected += 1

    @rule(
        tasklet_id=st.sampled_from(TASKLET_IDS + ["tl-unknown"]),
        ok=st.booleans(),
        executions=st.lists(st.sampled_from(RECORDS), max_size=2),
    )
    def tasklet_complete(self, tasklet_id, ok, executions):
        """For a pending id; else a duplicate, late or unknown completion —
        with execution records a broker relays, not all of them well-formed."""
        body = TaskletComplete(
            tasklet_id=tasklet_id,
            ok=ok,
            value=packed(41) if ok else None,
            error=None if ok else "all 3 executions failed",
            attempts=3,
            executions=executions,
        )
        body = self._deliver(body)
        if body is not None and body.tasklet_id in self.tasklets:
            carried = [body.value] + [r["value"] for r in body.executions if "value" in r]
            values = unpacked(carried)
            if values is None:  # a value that does not open: a typed failure, not a wait
                self._end_tasklet(body.tasklet_id, CodecError, "")
            elif body.ok:
                self._end_tasklet(body.tasklet_id, None, values[0])
            else:
                self._end_tasklet(body.tasklet_id, ExecutionFailed, body.error)

    # -- workflows -----------------------------------------------------------

    @rule(workflow_id=st.sampled_from(WORKFLOW_IDS))
    def submit_workflow(self, workflow_id):
        if workflow_id in self.workflows:
            with pytest.raises(WorkflowSpecError, match="already in flight"):
                self.core.submit_workflow(workflow(workflow_id))
            return
        handle, (envelope,) = self.core.submit_workflow(workflow(workflow_id))
        assert handle.workflow_id == workflow_id
        assert isinstance(body_of(envelope), SubmitWorkflow)
        self.workflows[workflow_id] = self._watch(handle, envelope)
        self.stats.workflows_submitted += 1

    @rule(workflow_id=st.sampled_from(WORKFLOW_IDS + ["wf-unknown"]), accepted=st.booleans())
    def workflow_ack(self, workflow_id, accepted):
        ack = self._deliver(WorkflowAck(workflow_id=workflow_id, accepted=accepted, reason="dup"))
        if ack is not None and not ack.accepted and ack.workflow_id in self.workflows:
            error = f"rejected by broker: {ack.reason}"
            self._end_workflow(ack.workflow_id, WorkflowSpecError, error)

    @rule(workflow_id=st.sampled_from(WORKFLOW_IDS + ["wf-unknown"]))
    def workflow_update(self, workflow_id):
        update = self._deliver(
            WorkflowUpdate(workflow_id=workflow_id, node_id="only", state="running")
        )
        if update is not None and update.workflow_id in self.workflows:
            handle = self.workflows[update.workflow_id].waiter
            assert handle.node_states[update.node_id] == update.state

    @rule(workflow_id=st.sampled_from(WORKFLOW_IDS + ["wf-unknown"]), ok=st.booleans())
    def workflow_complete(self, workflow_id, ok):
        body = WorkflowComplete(
            workflow_id=workflow_id,
            ok=ok,
            outputs={"only": packed(2)} if ok else {},
            error=None if ok else "node only failed",
            failed_node="" if ok else "only",
            nodes_total=1,
        )
        body = self._deliver(body)
        if body is not None and body.workflow_id in self.workflows:
            handle = self.workflows[body.workflow_id].waiter
            values = unpacked(list(body.outputs.values()))
            if body.ok and values is None:
                self._end_workflow(body.workflow_id, CodecError, "")
            elif body.ok:
                self._end_workflow(body.workflow_id, None, dict(zip(body.outputs, values)))
                assert all(handle.node_states[node] == "done" for node in body.outputs)
            else:
                self._end_workflow(body.workflow_id, WorkflowFailed, body.error)
                assert not body.failed_node or handle.node_states[body.failed_node] == "failed"
            assert handle.nodes_total == body.nodes_total

    # -- the link, the clock -------------------------------------------------

    @rule()
    def fail_all_pending(self):
        tasklets, workflows = sorted(self.tasklets), sorted(self.workflows)
        assert self.core.fail_all_pending("link down") == len(tasklets)
        for tasklet_id in tasklets:
            self._end_tasklet(tasklet_id, BrokerUnreachable, "link down")
        for workflow_id in workflows:
            self._end_workflow(workflow_id, BrokerUnreachable, "link down")
        self.disconnects += bool(tasklets or workflows)

    @rule(seconds=st.floats(min_value=0.0, max_value=5.0))
    def advance(self, seconds):
        self.clock.advance(seconds)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def each_waiter_answered_exactly_when_its_id_ended(self):
        for submission in self.submissions:
            if submission.ending is None:
                assert submission.answers == [] and not submission.waiter.done
                continue
            assert len(submission.answers) == 1, submission.answers
            assert submission.waiter.done
            error_type, payload, ended_at = submission.ending
            if error_type is None:
                assert submission.waiter.result(0) == payload
            else:
                with pytest.raises(error_type, match=payload):
                    submission.waiter.result(0)
            if hasattr(submission.waiter, "wait"):  # a TaskletFuture: the record
                outcome = submission.waiter.wait(0)
                assert outcome.ok == (error_type is None)
                assert outcome.submitted_at == submission.submitted_at
                assert outcome.completed_at == ended_at

    @invariant()
    def counters_balance(self):
        stats = self.core.stats
        assert stats == self.stats
        assert self.core.pending == len(self.tasklets) + len(self.workflows)
        assert stats.submitted == stats.completed + stats.failed + len(self.tasklets)
        assert stats.rejected <= stats.failed
        assert stats.workflows_submitted == (
            stats.workflows_completed + stats.workflows_failed + len(self.workflows)
        )

    @invariant()
    def nothing_outlives_its_submission(self):
        tables = {
            name: value
            for name, value in vars(self.core).items()
            if isinstance(value, (dict, list, set))
        }
        assert tables  # the core does keep its pending tables on itself
        kept = sum(len(table) for table in tables.values())
        assert kept == self.core.pending, tables

    @invariant()
    @precondition(lambda self: self.TELEMETRY)
    def telemetry_agrees(self):
        ended = [s for s in self.submissions if s.ending is not None]
        spans = self.telemetry.spans.spans()
        assert sorted(span.trace_id for span in spans) == sorted(
            submission.trace_id for submission in ended
        )
        for span in spans:
            assert span.name in ("tasklet", "workflow") and span.parent_id is None
        registry = self.telemetry.registry
        stats = self.stats
        submitted = registry.get("repro_consumer_tasklets_submitted_total")
        completed = registry.get("repro_consumer_tasklets_completed_total")
        failures = registry.get("repro_consumer_failures_total")
        latency = registry.get("repro_consumer_latency_seconds")
        assert submitted.labels().value == stats.submitted
        assert completed.labels(outcome="ok").value == stats.completed
        assert completed.labels(outcome="failed").value == stats.failed
        assert failures.labels(kind="rejected").value == stats.rejected
        assert latency.labels().count == stats.completed + stats.failed
        disconnects = [
            event
            for event in self.telemetry.events.events()
            if event.kind == ev.DISCONNECT
        ]
        assert len(disconnects) == self.disconnects
        unreadable = self.telemetry.events.events(kind=ev.MESSAGE_UNREADABLE)
        assert len(unreadable) == self.unreadable


class ConsumerProtocolUntraced(ConsumerProtocol):
    TELEMETRY = False


# derandomize: the same examples on every run, so tier-1 is reproducible.
_SETTINGS = settings(
    max_examples=120, stateful_step_count=40, deadline=None, derandomize=True
)
ConsumerProtocol.TestCase.settings = _SETTINGS
ConsumerProtocolUntraced.TestCase.settings = _SETTINGS
TestConsumerProtocol = ConsumerProtocol.TestCase
TestConsumerProtocolUntraced = ConsumerProtocolUntraced.TestCase
