"""Protocol fuzzing: the broker survives any message sequence.

Hypothesis drives the broker with random protocol
messages in arbitrary orders — registrations and re-registrations,
duplicate results, results for unknown executions, ``success`` results
whose value no provider packs, heartbeats from strangers, malformed
tasklets, unregisters, workflow submissions,
duplicate and conflicting resubmits, and crash-and-replay (a fresh
``BrokerCore`` rebuilt on the same ``WorkJournal``) — any of which may
first have one field replaced by something else the codecs carry (the
*hostile* step: ``None``, a string, a float, a bool, an int, a list, a
dict, bytes that pack no program and no Tasklet value) — a field of the
message, or one *inside* the records it carries: the tasklet (its
``program`` bytes, their stamp, its packed ``args``), its ``qoc``; the workflow, a node, a packed program of its table
(or the key that stamps it), a placeholder.  After every step
the broker's lifecycle invariants must hold; it must never raise:

* an unreadable message sends nothing and changes nothing but
  ``messages_unreadable``;
* a readable message whose record its owner's reader refuses — the
  tasklet at admission, the workflow with its programs, either with a
  program that does not open or is not what its stamp says — is answered
  with that one refusal (``submit_ack`` / ``workflow_ack``, not accepted) and
  leaves no table entry, no journal line, no counter but ``*_submitted``;
* a ``success`` for a live execution whose value is not the packed bytes
  of a Tasklet value fails that execution and is graded against its
  provider: no success is counted, and what follows is what follows any
  failed execution;

* at most one terminal ``TaskletComplete`` / ``WorkflowComplete`` per
  admitted id (answers to a resubmit repeat the first outcome), and after
  the pool is made healthy and every execution answered, exactly one —
  a workflow that finished *during* journal recovery, when nobody was
  listening, hands its outcome to the first resubmit instead;
* slot conservation: each provider record's ``outstanding`` equals the
  live outstanding executions placed on it — exactly, also across a
  re-registration that voids several executions at once;
* the counters equal a recount: ``registry.free_capacity`` is the free
  slots of the alive providers, ``backlog.replicas`` is the sum of
  ``pending_replicas``, and the backlog queues exactly the live tasklets
  that have replicas pending, each once;
* nothing is wedged: every live tasklet has an outstanding execution or
  queued replicas — something a result, a timeout or a drain will move;
* every ``workflows.nodes`` key is a live tasklet; the execution index holds
  exactly the live outstanding executions, under the provider each was
  assigned to; the cost ledger conserves.
"""

import dataclasses
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.journal import WorkJournal
from repro.common.clock import VirtualClock
from repro.common.errors import TaskletError
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import packed
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.dag.patterns import DAG_KERNEL, chain
from repro.dag.spec import WorkflowBuilder, WorkflowSpec, from_node, gather
from repro.obs import Telemetry
from repro.transport.message import (
    ExecutionRejected,
    ExecutionResult,
    Heartbeat,
    RegisterProvider,
    SubmitTasklet,
    SubmitWorkflow,
    Unregister,
)
from repro.tvm.bytecode import ProgramTable
from repro.tvm.compiler import compile_source

from tests.transport.test_messages import HOSTILE_BLOBS, HOSTILE_MENU, hostile, read

PROGRAM = compile_source("func main(x: int) -> int { return x; }")
PROVIDERS = ["p0", "p1", "p2"]
#: What a byzantine provider can put in a ``success``: both codecs carry
#: these, and none is the packed form of a Tasklet value — a value that
#: was never packed, and bytes that are wrong each in another way.
BYZANTINE_VALUES = [{"a": 1}, [1, {"b": 2}], [None], "7", *HOSTILE_BLOBS]
CONSUMERS = ["c0", "c1"]


def _diamond():
    builder = WorkflowBuilder("diamond")
    builder.node(DAG_KERNEL, args=[[1], 5, 1], node_id="src")
    builder.node(DAG_KERNEL, args=[gather(["src"]), 5, 2], node_id="left")
    builder.node(DAG_KERNEL, args=[[from_node("src")], 5, 3], node_id="right")
    builder.node(
        DAG_KERNEL, args=[gather(["left", "right"]), 5, 4], node_id="sink"
    )
    return builder.build()


#: Wire dicts; the fuzz stamps a workflow id on a copy per submission.
WORKFLOWS = [chain(3, work=5, max_attempts=2).to_dict(), _diamond().to_dict()]


def _actions():
    register = st.builds(
        lambda p, cap: ("register", RegisterProvider(
            provider_id=p, device_class="d", capacity=cap,
            benchmark_score=1e6,
        ), p),
        st.sampled_from(PROVIDERS),
        st.integers(min_value=1, max_value=3),
    )
    unregister = st.builds(
        lambda p: ("msg", Unregister(provider_id=p), p),
        st.sampled_from(PROVIDERS),
    )
    heartbeat = st.builds(
        lambda p, free: ("msg", Heartbeat(provider_id=p, free_slots=free), p),
        st.sampled_from(PROVIDERS + ["stranger"]),
        st.integers(min_value=0, max_value=3),
    )
    submit = st.builds(
        lambda c, n, r: ("submit", (c, n, r), c),
        st.sampled_from(CONSUMERS),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    bad_submit = st.builds(
        lambda c: ("msg", SubmitTasklet(tasklet={"tasklet_id": "junk"}), c),
        st.sampled_from(CONSUMERS),
    )
    resubmit = st.builds(
        lambda index, conflicting: ("resubmit", (index, conflicting), ""),
        st.integers(min_value=0, max_value=8),
        st.booleans(),
    )
    workflow = st.builds(
        lambda c, shape, n: ("workflow", (c, shape, n), c),
        st.sampled_from(CONSUMERS),
        st.integers(min_value=0, max_value=len(WORKFLOWS) - 1),
        st.integers(min_value=0, max_value=2),
    )
    result = st.builds(
        lambda p, ex, ok, value: ("result", (p, ex, ok, value), p),
        st.sampled_from(PROVIDERS),
        st.integers(min_value=0, max_value=8),
        st.booleans(),
        st.integers(min_value=-3, max_value=3) | st.sampled_from(BYZANTINE_VALUES),
    )
    reject = st.builds(
        lambda p, ex: ("reject", (p, ex), p),
        st.sampled_from(PROVIDERS),
        st.integers(min_value=0, max_value=8),
    )
    tick = st.builds(lambda dt: ("tick", dt, ""), st.floats(min_value=0, max_value=5))
    crash = st.just(("crash", None, ""))
    action = st.one_of(
        register, unregister, heartbeat, submit, bad_submit, resubmit,
        workflow, result, reject, tick, crash,
    )
    # One action in four is hostile: the message it delivers first has its
    # ``pick``-th field — or the ``pick``-th field inside the records it
    # carries — replaced by ``value``.
    hostile_step = st.tuples(
        st.integers(min_value=0, max_value=63), st.sampled_from(HOSTILE_MENU), st.booleans()
    )
    return st.tuples(action, st.one_of(st.none(), st.none(), st.none(), hostile_step))


def _owner_refuses(body) -> bool:
    """Whether the record ``body`` carries does not open — by the readers
    its owner uses; what is checked here is what the broker then *does*."""
    try:
        if isinstance(body, SubmitTasklet):
            Tasklet.from_dict(body.tasklet)
        elif isinstance(body, SubmitWorkflow):
            spec = WorkflowSpec.from_dict(body.workflow)
            spec.validate()
            spec.open_programs(ProgramTable())
    except TaskletError:
        return True
    return False


def _snapshot(broker: BrokerCore) -> tuple:
    """Everything an unreadable or refused message must leave as it was."""
    return (
        dataclasses.replace(
            broker.stats, messages_unreadable=0, tasklets_submitted=0, workflows_submitted=0
        ),
        Path(broker.journal.path).stat().st_size if broker.journal else 0,
        {key: (sorted(state.outstanding), state.pending_replicas, state.issued)
         for key, state in broker._tasklets.items()},
        sorted(broker.workflows.active),
        list(broker._completed),
        {record.provider_id: dataclasses.replace(record)
         for record in broker.registry._providers.values()},
        (broker.registry.free_capacity, broker.backlog.replicas, len(broker.executions)),
    )


def _invariants(broker: BrokerCore) -> None:
    placed = Counter()
    for state in broker._tasklets.values():
        assert not state.done  # done states are removed immediately
        assert state.issued <= state.budget
        assert state.pending_replicas >= 0
        assert state.outstanding or state.pending_replicas  # not wedged
        for outstanding in state.outstanding.values():
            placed[outstanding.provider_id] += 1
    # Slot conservation, per provider.
    for record in broker.registry._providers.values():
        assert record.capacity >= 1
        assert record.outstanding == placed[record.provider_id]
    # Every outstanding execution maps back to a live tasklet.
    executions = broker.executions
    for execution_id in executions:
        key = executions.tasklet_of(execution_id)
        assert execution_id in broker._tasklets[key].outstanding
    assert len(executions) == sum(placed.values())
    assert placed == Counter(
        {provider: len(ids) for provider, ids in executions._assigned.items()}
    )
    assert all(ids <= executions._tasklet.keys() for ids in executions._assigned.values())
    # (Every execution has a horizon here: the driver sets a timeout.)
    assert all(executions._by_horizon.values())  # no empty bucket is kept
    assert sorted(executions) == sorted(
        execution_id for due in executions._by_horizon.values() for execution_id in due
    )
    # The counters are what a recount would give.
    registry = broker.registry
    assert registry.free_capacity == sum(
        max(0, record.capacity + registry.pipeline_depth - record.outstanding)
        for record in registry._providers.values()
        if record.alive
    )
    backlog = broker.backlog
    assert backlog.replicas == sum(
        state.pending_replicas for state in broker._tasklets.values()
    )
    assert len(set(backlog)) == len(backlog)
    assert set(backlog) == backlog._queued == {
        state.key for state in broker._tasklets.values() if state.pending_replicas
    }
    for key in broker.workflows.nodes:
        assert key in broker._tasklets
    assert broker.ledger.conservation_holds
    stats = broker.stats
    if not (stats.workflows_submitted or stats.workflows_recovered):
        # Workflow nodes complete as tasklets nobody submitted.
        assert stats.tasklets_completed + stats.tasklets_failed <= (
            stats.tasklets_submitted + stats.tasklets_recovered
        )


class _Driver:
    """Feeds one broker and checks what it sends against a tiny model of
    what consumers may legitimately observe."""

    def __init__(self, journal: WorkJournal | None, telemetry: Telemetry | None):
        self.clock = VirtualClock()
        self.journal = journal
        self.telemetry = telemetry
        self.broker = self._build()
        #: Executions issued by the current broker incarnation.
        self.assigned_to: dict[str, str] = {}
        self.issue_order: list[str] = []
        self.tasklet_counter = 0
        self.submitted: list[tuple[str, dict]] = []
        self.workflows: list[tuple[str, dict]] = []
        self.admitted: dict[str, set] = {"tasklet": set(), "workflow": set()}
        #: First terminal outcome seen per (kind, consumer, id).
        self.terminal: dict[tuple[str, str, str], tuple] = {}
        #: ``(pick, value)`` when the current action's delivery is hostile.
        self.armed: tuple | None = None

    def _build(self) -> BrokerCore:
        return BrokerCore(
            clock=self.clock,
            config=BrokerConfig(execution_timeout=2.0),
            telemetry=self.telemetry,
            journal=self.journal,
        )

    def crash(self) -> None:
        """Lose all in-memory broker state; recover from the journal."""
        if self.journal is None:
            return
        self.broker = self._build()
        # The previous incarnation's executions died with it (a real
        # provider drops their results on re-registration).
        self.assigned_to.clear()
        self.issue_order.clear()
        _invariants(self.broker)

    def deliver(self, body, src: str, resubmit_of=None) -> None:
        envelope = body.envelope(NodeId(src), self.broker.node_id)
        armed, self.armed = self.armed, None
        if armed is not None:
            hostile(envelope, *armed)
        body = read(envelope)
        if body is None:
            before, unreadable = _snapshot(self.broker), self.broker.stats.messages_unreadable
            assert self.broker.handle(envelope) == []
            assert _snapshot(self.broker) == before
            assert self.broker.stats.messages_unreadable == unreadable + 1
            return
        if _owner_refuses(body):
            before = _snapshot(self.broker)
            (refusal,) = self.broker.handle(envelope)  # nothing but the refusal
            assert refusal.type in ("submit_ack", "workflow_ack")
            assert refusal.payload["accepted"] is False and refusal.payload["reason"]
            assert str(refusal.dst) == src
            assert _snapshot(self.broker) == before
            return
        self._observe(self.broker.handle(envelope), resubmit_of)

    def tick(self, dt: float) -> None:
        self.clock.advance(dt)
        self._observe(self.broker.tick(), None)

    def _observe(self, outbound, resubmit_of) -> None:
        for envelope in outbound:
            payload, dst = envelope.payload, str(envelope.dst)
            if envelope.type == "assign_execution":
                self.assigned_to[payload["execution_id"]] = dst
                self.issue_order.append(payload["execution_id"])
            elif envelope.type == "submit_ack" and payload["accepted"]:
                self.admitted["tasklet"].add((dst, payload["tasklet_id"]))
            elif envelope.type == "workflow_ack" and payload["accepted"]:
                self.admitted["workflow"].add((dst, payload["workflow_id"]))
            elif envelope.type == "tasklet_complete":
                self._terminal(
                    ("tasklet", dst, payload["tasklet_id"]),
                    (payload["ok"], payload["value"]),
                    resubmit_of,
                )
            elif envelope.type == "workflow_complete":
                self._terminal(
                    ("workflow", dst, payload["workflow_id"]),
                    (payload["ok"], payload["outputs"]),
                    resubmit_of,
                )
        _invariants(self.broker)

    def _terminal(self, key, outcome, resubmit_of) -> None:
        first = self.terminal.setdefault(key, outcome)
        if first is not outcome:
            # A second terminal message is only ever the answer to a
            # resubmit of that very id, and repeats the first outcome.
            assert resubmit_of == key
            assert first == outcome

    def submit_tasklet(self, consumer: str, tasklet_dict: dict) -> None:
        self.deliver(
            SubmitTasklet(tasklet=tasklet_dict),
            consumer,
            resubmit_of=("tasklet", consumer, tasklet_dict["tasklet_id"]),
        )

    def submit_workflow(self, consumer: str, spec_dict: dict) -> None:
        self.deliver(
            SubmitWorkflow(workflow=spec_dict),
            consumer,
            resubmit_of=("workflow", consumer, spec_dict["workflow_id"]),
        )

    def execution_for(self, index: int, fallback_provider: str):
        """An issued execution and the provider it was assigned to."""
        if not self.issue_order:
            return f"ex-unknown-{index}", fallback_provider
        execution_id = self.issue_order[index % len(self.issue_order)]
        return execution_id, self.assigned_to[execution_id]

    def result(self, execution_id, provider, ok, value) -> None:
        """A provider's answer: an int ``value`` packed as providers pack,
        a byzantine one as it is."""
        honest = type(value) is int
        body = ExecutionResult(
            execution_id=execution_id,
            tasklet_id="tl-any",
            provider_id=provider,
            status="success" if ok else "vm_error",
            value=packed(value, fold_nan=True) if honest else value,
            error=None if ok else "boom",
            instructions=10,
            started_at=self.clock.now(),
            finished_at=self.clock.now(),
        )
        record = self.broker.registry.get(NodeId(provider))
        lied = ok and not honest and self.armed is None and record is not None
        if lied and self.broker.executions.tasklet_of(execution_id):
            failed, stats = record.failed, dataclasses.replace(self.broker.stats)
            self.deliver(body, provider)
            assert record.failed == failed + 1
            assert self.broker.stats.executions_succeeded == stats.executions_succeeded
            assert self.broker.stats.executions_failed == stats.executions_failed + 1
            return
        self.deliver(body, provider)

    def settle(self) -> None:
        """Make the pool healthy, answer everything, check exactly-once."""
        self.armed = None
        for _ in range(200):
            if not (self.broker.pending_tasklets or self.broker.pending_workflows):
                break
            for provider in PROVIDERS:
                record = self.broker.registry.get(NodeId(provider))
                if record is None or not record.alive:
                    self.deliver(
                        RegisterProvider(
                            provider_id=provider, device_class="d",
                            capacity=3, benchmark_score=1e6,
                        ),
                        provider,
                    )
                else:
                    self.deliver(Heartbeat(provider_id=provider, free_slots=3), provider)
            for execution_id in list(self.broker.executions):
                self.result(execution_id, self.assigned_to[execution_id], True, 7)
            self.tick(0.1)
        assert self.broker.pending_tasklets == 0
        assert self.broker.pending_workflows == 0
        for consumer, tasklet_dict in self.submitted:
            key = ("tasklet", consumer, tasklet_dict["tasklet_id"])
            if key[1:] in self.admitted["tasklet"] and key not in self.terminal:
                self.submit_tasklet(consumer, tasklet_dict)
                assert key in self.terminal
        for consumer, spec_dict in self.workflows:
            key = ("workflow", consumer, spec_dict["workflow_id"])
            if key[1:] in self.admitted["workflow"] and key not in self.terminal:
                self.submit_workflow(consumer, spec_dict)
                assert key in self.terminal
        for kind, members in self.admitted.items():
            for consumer, item_id in members:
                assert (kind, consumer, item_id) in self.terminal


@settings(max_examples=120, deadline=None)
@given(st.lists(_actions(), max_size=60), st.booleans(), st.booleans())
def test_broker_survives_arbitrary_message_sequences(
    actions, with_journal, with_telemetry
):
    with tempfile.TemporaryDirectory() as scratch:
        journal = (
            WorkJournal(str(Path(scratch) / "journal.jsonl"))
            if with_journal
            else None
        )
        try:
            _run(actions, journal, Telemetry() if with_telemetry else None)
        finally:
            if journal is not None:
                journal.close()


def _run(actions, journal, telemetry) -> None:
    driver = _Driver(journal, telemetry)
    for (kind, payload, src), driver.armed in actions:
        if kind == "tick":
            driver.tick(payload)
        elif kind == "crash":
            driver.crash()
        elif kind == "submit":
            consumer, suffix, redundancy = payload
            driver.tasklet_counter += 1
            tasklet = Tasklet(
                tasklet_id=TaskletId(f"tl-{suffix}-{driver.tasklet_counter}"),
                program=PROGRAM,
                entry="main",
                # Few distinct computations, so later submissions also
                # exercise the result cache.
                args=[suffix % 3],
                qoc=QoC(redundancy=redundancy, max_attempts=2),
            )
            driver.submitted.append((consumer, tasklet.to_dict()))
            driver.submit_tasklet(consumer, tasklet.to_dict())
        elif kind == "resubmit":
            index, conflicting = payload
            sent = driver.submitted + driver.workflows
            if not sent:
                continue
            consumer, wire = sent[index % len(sent)]
            if "workflow_id" in wire:
                if conflicting:
                    is_chain = wire["nodes"] == WORKFLOWS[0]["nodes"]
                    other = WORKFLOWS[1 if is_chain else 0]
                    wire = dict(other, workflow_id=wire["workflow_id"])
                driver.submit_workflow(consumer, wire)
            else:
                if conflicting:
                    wire = dict(wire, args=packed([99]))
                driver.submit_tasklet(consumer, wire)
        elif kind == "workflow":
            consumer, shape, suffix = payload
            spec_dict = dict(WORKFLOWS[shape], workflow_id=f"wf-{shape}-{suffix}")
            if (consumer, spec_dict) not in driver.workflows:
                driver.workflows.append((consumer, spec_dict))
            driver.submit_workflow(consumer, spec_dict)
        elif kind == "result":
            provider, index, ok, value = payload
            execution_id, assigned = driver.execution_for(index, provider)
            driver.result(execution_id, assigned, ok, value)
        elif kind == "reject":
            provider, index = payload
            execution_id, assigned = driver.execution_for(index, provider)
            driver.deliver(
                ExecutionRejected(
                    execution_id=execution_id,
                    tasklet_id="tl-any",
                    provider_id=assigned,
                ),
                assigned,
            )
        else:  # register / msg
            driver.deliver(payload, src)
    driver.settle()


def test_counters_survive_a_flapping_provider():
    """The fixed sequence the fuzz only finds by luck: every release that
    finds nothing to free, with the invariants checked after each step."""
    driver = _Driver(journal=None, telemetry=None)
    register = RegisterProvider(
        provider_id="p0", device_class="d", capacity=2, benchmark_score=1e6
    )

    def submit(count):
        for _ in range(count):
            driver.tasklet_counter += 1
            tasklet = Tasklet(
                tasklet_id=TaskletId(f"tl-flap-{driver.tasklet_counter}"),
                program=PROGRAM, entry="main", args=[driver.tasklet_counter],
                qoc=QoC(max_attempts=4),
            )
            driver.submitted.append(("c0", tasklet.to_dict()))
            driver.submit_tasklet("c0", tasklet.to_dict())

    driver.deliver(register, "p0")
    submit(4)  # two placed, two queued
    broker = driver.broker
    assert (broker.registry.free_capacity, broker.backlog.replicas) == (0, 2)
    first_incarnation = list(driver.issue_order)
    # Re-register with work outstanding: both executions are lost against
    # a fresh record (nothing to release there) and the slots refill.
    driver.deliver(register, "p0")
    assert broker.registry.get(NodeId("p0")).outstanding == 2
    assert (broker.registry.free_capacity, broker.backlog.replicas) == (0, 2)
    # A late result from the previous incarnation frees nothing.
    driver.result(first_incarnation[0], "p0", True, 7)
    assert broker.registry.get(NodeId("p0")).outstanding == 2
    # Silence: declared dead, its executions lost while no slot exists.
    driver.tick(10.0)
    assert broker.stats.providers_failed == 1
    assert (broker.registry.free_capacity, broker.backlog.replicas) == (0, 4)
    # The dead provider still answers; its record must not come back.
    driver.result(driver.issue_order[-1], "p0", True, 7)
    driver.deliver(Heartbeat(provider_id="p0", free_slots=2), "p0")
    assert broker.registry.free_capacity == 0
    driver.deliver(register, "p0")
    assert (broker.registry.free_capacity, broker.backlog.replicas) == (0, 2)
    driver.settle()


# -- the hostile step, aimed: the programs a submission carries -------------------

_OTHER = compile_source("func main(x: int) -> int { return x + 1; }")


@pytest.mark.parametrize("with_journal", [False, True], ids=["no-journal", "journal"])
@pytest.mark.parametrize(
    "value",
    HOSTILE_MENU + [b"", PROGRAM.packed()[:-1], PROGRAM.packed() + b"\0", _OTHER.packed()],
    ids=lambda value: repr(value)[:24],
)
def test_a_program_that_is_not_what_it_should_be_is_refused_and_leaves_nothing(value, with_journal, tmp_path):
    """What the fuzz's hostile step reaches by chance, reached on purpose:
    a tasklet's ``program``, a workflow's ``programs`` value — replaced by
    every menu value, an empty, a truncated and an over-long blob, and a
    well-formed program that is not the one stamped — and a stamp (a
    tasklet's, a node's) replaced alike.  ``deliver`` holds each to
    "refused: that one refusal, by id, and no table entry, no journal
    line" — or, for what the message boundary cannot read, to nothing."""
    journal = WorkJournal(str(tmp_path / "journal.jsonl")) if with_journal else None
    driver = _Driver(journal, None)
    driver.deliver(RegisterProvider("p0", "d", 2, 1e6), "p0")
    tasklet = Tasklet(TaskletId("tl-1"), PROGRAM, "main", [1]).to_dict()
    workflow = dict(WORKFLOWS[0], workflow_id="wf-1")
    (stamp,) = workflow["programs"]
    unopened = lambda: driver.broker.programs.opened == {}
    driver.submit_tasklet("c0", {**tasklet, "program": value})
    assert driver.broker.stats.messages_unreadable == 0 and unopened()
    driver.submit_workflow("c0", {**workflow, "programs": {stamp: value}})
    assert driver.broker.stats.messages_unreadable == 0 and unopened()
    if type(value) is not bytes:  # (bytes are no stamp at all: refused by type)
        value = repr(value)
    driver.submit_tasklet("c0", {**tasklet, "program_fingerprint": value})
    nodes = [{**node, "program_fingerprint": value} for node in workflow["nodes"]]
    driver.submit_workflow("c0", {**workflow, "nodes": nodes})
    assert driver.admitted == {"tasklet": set(), "workflow": set()}
    assert driver.broker.stats.executions_issued == 0
    if journal is not None:
        journal.close()
        assert (tmp_path / "journal.jsonl").read_text() == ""
