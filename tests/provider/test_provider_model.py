"""A stateful model of the provider protocol: ``ProviderCore`` on its own.

No sockets, no threads, a ``VirtualClock``.  Hypothesis interleaves
everything a driver and a broker can do to the core — assign, cancel
(in-flight, finished and unknown ids), begin a run, finish it (ok or VM
error), refuse accepted work, re-register (a link redial), every kind of
``register_ack``, drain, stop, start — where any broker message may first
have one field replaced by something else the codecs carry (the *hostile*
step; for an assignment that includes its ``program`` bytes, their stamp
and its packed ``args``) — and after every step checks what
the TCP provider and the simulator both rely on:

* a message the boundary cannot read is answered with nothing and changes
  nothing (one ``message_unreadable`` event); one it can read is acted on
  as read, whatever it now says;

* an assignment whose ``program`` does not open, or is not what its stamp
  says, or whose ``args`` are bytes that open to no argument list, is
  accepted like any other (nothing is hashed or opened before the run),
  fails its run, and is answered with that one ``vm_error`` result — the
  provider's refusal — and nothing else;
* a success leaves as the packed bytes of its value;
* at most one ``execution_result`` or ``execution_rejected`` per execution
  id, and none for an execution cancelled before its report or accepted
  under an older epoch;
* nothing is accepted unless the core is ``running``;
* ``active`` is 1 exactly while the executor runs and 0 otherwise;
* ``inflight`` holds exactly the accepted-and-unfinished ids (no leak
  after a cancel of an unknown id, a rejection, or a stale-epoch drop);
* a drain waiter's predicate holds exactly when ``inflight`` is empty,
  and the condition is notified on the step that empties it.
"""

import threading

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.clock import VirtualClock
from repro.common.errors import CodecError, VMInvalidProgram
from repro.common.ids import NodeId
from repro.common.serde import packed, unpack_value
from repro.core.results import ExecutionStatus
from repro.obs import Telemetry
from repro.obs import events as ev
from repro.provider.core import ProviderCore
from repro.provider.executor import ExecutionOutcome, TaskletExecutor
from repro.transport.message import (
    BROKER_ADDRESS,
    REASON_UNKNOWN_PROVIDER,
    AssignExecution,
    CancelExecution,
    ExecutionRejected,
    ExecutionResult,
    RegisterAck,
    RegisterProvider,
    body_of,
)
from repro.tvm.bytecode import ProgramTable
from repro.tvm.compiler import compile_source

from tests.transport.test_messages import HOSTILE_MENU, hostile, read

PROGRAM = compile_source("func main() -> int { return 7; }")
OUTCOMES = {
    True: ExecutionOutcome(ExecutionStatus.SUCCESS, value=7, instructions=11),
    False: ExecutionOutcome(ExecutionStatus.VM_ERROR, error="DivisionByZero: boom"),
}


class _CountingCondition(threading.Condition):
    """The core's lock, counting ``notify_all`` (what wakes a drain waiter)."""

    notified = 0

    def notify_all(self) -> None:
        self.notified += 1
        super().notify_all()


class ProviderProtocol(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.telemetry = Telemetry()
        self.core = ProviderCore(NodeId("p1"), self.clock, telemetry=self.telemetry)
        self.core.lock = _CountingCondition()
        self.core.executor.execute = self._execute
        # -- the model ------------------------------------------------------
        self.state = ProviderCore.STOPPED
        self.epoch = 0
        self.accepted = {}  # execution id -> Work, until finished
        self.outcomes = {}  # execution id -> outcome of a run not yet reported
        self.cancelled = set()  # cancelled while in flight
        self.finished = []  # ids no longer in flight
        self.said = {}  # execution id -> bodies sent about it, ever
        self.reports = {True: 0, False: 0}
        self.next_outcome = True
        self.counter = 0
        self.waiting = False  # a drain waiter would be blocked right now
        self.notified = 0
        self.armed = None  # (pick, value, inside) for the next delivery's hostile step
        self.unreadable = 0

    # -- plumbing -----------------------------------------------------------

    def _execute(self, request):
        assert self.core.active == 1  # bracketed around the executor only
        try:
            ProgramTable().open(request.program, request.program_fingerprint)
        except VMInvalidProgram:
            # The hostile step reached the program or its stamp: what the
            # real executor makes of it is what gets reported.
            outcome = TaskletExecutor().execute(request)
            assert outcome.status is ExecutionStatus.VM_ERROR
            assert outcome.error.startswith("VMInvalidProgram: "), outcome.error
            return outcome
        try:
            args, end = unpack_value(request.args, 0)
        except (CodecError, RecursionError):
            args, end = None, -1
        if type(args) is not list or end != len(request.args):
            # ... or the arguments: bytes (else the message was unreadable)
            # that pack no list.  Refused, typed, by the real executor.
            outcome = TaskletExecutor().execute(request)
            assert outcome.status is ExecutionStatus.VM_ERROR
            assert outcome.error.startswith("VMTypeError: arguments do "), outcome.error
            return outcome
        return OUTCOMES[self.next_outcome]

    def _deliver(self, body):
        """Hand the core ``body`` — or, when armed, what the hostile step
        made of it.  Returns the body as read (None for an unreadable one,
        which must change nothing), the replies and the accepted work."""
        envelope = body.envelope(BROKER_ADDRESS, self.core.node_id)
        armed, self.armed = self.armed, None
        if armed is not None:
            hostile(envelope, *armed)
            original, body = body, read(envelope)
            if isinstance(body, AssignExecution) and (
                body.execution_id in self.said
                or body.execution_id in self.accepted
                or body.execution_id in self.finished
            ):
                # (A broker never reuses an execution id; nor may the step.)
                return self._deliver(original)
        before = (self.core.registered, dict(self.core.inflight))
        replies, work = self.core.handle(envelope)
        if body is None:
            self.unreadable += 1
            assert (replies, work) == ([], None)
            assert (self.core.registered, self.core.inflight) == before
        return body, [body_of(reply) for reply in replies], work

    @rule(
        pick=st.integers(min_value=0, max_value=63),
        value=st.sampled_from(HOSTILE_MENU),
        inside=st.booleans(),
    )
    def arm_hostile_step(self, pick, value, inside):
        self.armed = (pick, value, inside)

    def _record(self, envelope):
        body = body_of(envelope)
        assert isinstance(body, (ExecutionResult, ExecutionRejected))
        self.said.setdefault(body.execution_id, []).append(body)
        return body

    def _done(self, execution_id):
        del self.accepted[execution_id]
        self.outcomes.pop(execution_id, None)
        self.finished.append(execution_id)

    # -- broker -> provider -----------------------------------------------------

    @rule(refused_by_driver=st.booleans())
    def assign(self, refused_by_driver):
        self.counter += 1
        execution_id = f"ex-{self.counter}"
        request = AssignExecution(
            execution_id=execution_id,
            tasklet_id=f"tl-{self.counter}",
            consumer_id="c1",
            program=PROGRAM.packed(),
            program_fingerprint=PROGRAM.fingerprint(),
            entry="main",
            args=packed([]),
            seed=0,
            fuel=1000,
        )
        request, replies, work = self._deliver(request)
        if request is None:
            return
        execution_id = request.execution_id
        if self.state != ProviderCore.RUNNING:
            assert work is None
            (rejection,) = replies
            assert isinstance(rejection, ExecutionRejected)
            assert rejection.reason == "provider draining"
            assert rejection.execution_id == execution_id
            self.said[execution_id] = [rejection]
            return
        assert replies == [] and work.epoch == self.epoch and work.request == request
        self.accepted[execution_id] = work
        if refused_by_driver:  # its queue is full / its pool is shut
            rejection = self._record(self.core.reject(work, "provider queue full"))
            assert rejection.reason == "provider queue full"
            self._done(execution_id)

    @rule(data=st.data())
    def cancel(self, data):
        known = sorted(self.accepted) + self.finished[-3:] + ["ex-unknown"]
        execution_id = data.draw(st.sampled_from(known))
        cancel, *sent = self._deliver(CancelExecution(execution_id=execution_id))
        assert sent == [[], None]
        if cancel is not None and cancel.execution_id in self.accepted:
            self.cancelled.add(cancel.execution_id)

    @rule(kind=st.sampled_from(["accepted", "unknown", "refused"]))
    def register_ack(self, kind):
        reason = {"unknown": REASON_UNKNOWN_PROVIDER, "refused": "bad score"}.get(kind, "")
        ack, replies, work = self._deliver(
            RegisterAck(accepted=kind == "accepted", reason=reason)
        )
        assert work is None
        if ack is None:
            return
        if not ack.accepted and ack.reason == REASON_UNKNOWN_PROVIDER:
            (registration,) = replies  # the broker lost us: ask back in, new epoch
            assert isinstance(registration, RegisterProvider)
            self.epoch += 1
        else:
            assert replies == []
        assert self.core.registered == ack.accepted

    # -- the driver ---------------------------------------------------------

    @rule()
    def reregister(self):
        """A link redial: every registration voids what was accepted before."""
        assert isinstance(body_of(self.core.registration()), RegisterProvider)
        self.epoch += 1
        assert not self.core.registered

    @precondition(lambda self: set(self.accepted) - set(self.outcomes))
    @rule(data=st.data(), ok=st.booleans())
    def begin_run(self, data, ok):
        execution_id = data.draw(
            st.sampled_from(sorted(set(self.accepted) - set(self.outcomes)))
        )
        self.next_outcome = ok
        outcome = self.core.run(self.accepted[execution_id])
        if execution_id in self.cancelled:
            assert outcome is None  # never started, already purged
            self._done(execution_id)
        else:
            assert outcome is OUTCOMES[ok] or outcome.error.startswith(
                ("VMInvalidProgram: ", "VMTypeError: arguments do ")
            )
            self.outcomes[execution_id] = outcome

    @precondition(lambda self: self.outcomes)
    @rule(data=st.data(), seconds=st.floats(min_value=0.0, max_value=2.0))
    def finish_run(self, data, seconds):
        execution_id = data.draw(st.sampled_from(sorted(self.outcomes)))
        work, outcome = self.accepted[execution_id], self.outcomes[execution_id]
        started = self.clock.now()
        self.clock.advance(seconds)
        result = self.core.report(work, outcome, started, self.clock.now())
        self.reports[outcome.ok] += 1
        wanted = execution_id not in self.cancelled and work.epoch == self.epoch
        if wanted:
            body = self._record(result)
            assert isinstance(body, ExecutionResult)
            assert body.status == outcome.status.value
            assert body.value == (packed(7) if outcome.ok else None)
            assert (body.started_at, body.finished_at) == (started, self.clock.now())
        else:
            assert result is None  # dropped, not sent
        self.core.finish(work)
        self._done(execution_id)

    @rule()
    def start(self):
        self.core.start()
        self.state = ProviderCore.RUNNING

    @rule()
    def drain(self):
        self.core.drain()
        if self.state == ProviderCore.RUNNING:
            self.state = ProviderCore.DRAINING

    @rule()
    def stop(self):
        self.core.stop()
        self.state = ProviderCore.STOPPED

    # -- invariants -----------------------------------------------------------

    @invariant()
    def bookkeeping_matches(self):
        core = self.core
        assert (core.state, core.epoch) == (self.state, self.epoch)
        assert core.active == 0
        assert core.inflight == {
            execution_id: execution_id in self.cancelled
            for execution_id in self.accepted
        }

    @invariant()
    def at_most_one_answer_per_execution(self):
        for execution_id, bodies in self.said.items():
            assert len(bodies) == 1, (execution_id, bodies)

    @invariant()
    def drain_waiter_released_exactly_when_empty(self):
        core = self.core
        with core.lock:
            drained = core.lock.wait_for(lambda: not core.inflight, 0)
        assert drained == (not self.accepted)
        draining = self.state == ProviderCore.DRAINING
        if self.waiting and draining and drained:
            assert core.lock.notified > self.notified  # woken on this step
        self.waiting = draining and not drained
        self.notified = core.lock.notified

    def teardown(self):
        registry = self.telemetry.registry
        executions = registry.get("repro_provider_executions_total")
        for ok, status in ((True, "success"), (False, "vm_error")):
            assert executions.labels(status=status).value == self.reports[ok]
        faults = [
            event
            for event in self.telemetry.events.events()
            if event.kind == ev.EXECUTION_FAULT
        ]
        assert len(faults) == self.reports[False]
        unreadable = self.telemetry.events.events(kind=ev.MESSAGE_UNREADABLE)
        assert len(unreadable) == self.unreadable


ProviderProtocol.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestProviderProtocol = ProviderProtocol.TestCase
