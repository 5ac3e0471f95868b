"""Code crosses the cluster as bytes.

A consumer core, a broker core and a provider's executor, joined by the
real codec (every envelope is encoded and decoded on its way, as between
processes) and nothing else.  The tests count who reads a program's
instructions (``bytecode._read_code``, by code object: the record grammar
holds the function, not the module's name for it) and who opens a program
at all, per node — after the first tasklet of a program: nobody.
"""

import contextlib
import sys
from collections import Counter

import pytest

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.federation import FederationConfig
from repro.broker.journal import WorkJournal, _read_line
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import packed
from repro.consumer.core import ConsumerCore
from repro.core.kernels import PRIME_COUNT
from repro.core.tasklet import Tasklet
from repro.dag.patterns import reference_values, stencil
from repro.provider.executor import TaskletExecutor
from repro.transport.codec import decode_body, encode_envelope
from repro.transport.message import (
    ExecutionResult,
    ForwardTasklet,
    RegisterProvider,
    SubmitTasklet,
    SubmitWorkflow,
    body_of,
)
from repro.tvm import bytecode
from repro.tvm.bytecode import PROGRAM_CACHE_SIZE, CompiledProgram
from repro.tvm.compiler import compile_source

PROGRAM = compile_source(PRIME_COUNT)
CODE_READS = bytecode._read_code.__code__
PROGRAM_OPENS = CompiledProgram.from_dict.__func__.__code__


class Cluster:
    """One consumer, one broker, one provider; ``reads`` / ``opens`` count
    ``_read_code`` / ``CompiledProgram.from_dict`` calls by the node that
    was running when they were made."""

    def __init__(self, journal=None, federation=None):
        self.clock = VirtualClock()
        self.consumer = ConsumerCore(NodeId("c1"), self.clock)
        self.broker = BrokerCore(
            self.clock, config=BrokerConfig(execution_timeout=None), journal=journal,
            federation=federation,
        )
        self.executor = TaskletExecutor()
        self.reads, self.opens = Counter(), Counter()
        self._node = None
        self.assigned = []  # (the submit's program object, the assignment's) per execution
        self.deliver(
            RegisterProvider("p1", "desktop", 4, 1e6).envelope(NodeId("p1"), self.broker.node_id)
        )

    @contextlib.contextmanager
    def on(self, node):
        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is CODE_READS:
                self.reads[self._node] += 1
            elif event == "call" and frame.f_code is PROGRAM_OPENS:
                self.opens[self._node] += 1

        self._node = node
        sys.setprofile(profiler)
        try:
            yield
        finally:
            sys.setprofile(None)

    def _wire(self, envelope, sender):
        """What the receiver's decoder makes of what ``sender`` encodes."""
        with self.on(sender):
            frame = encode_envelope(envelope)
        with self.on(str(envelope.dst)):
            return decode_body(frame[4:])

    def deliver(self, envelope):
        """Carry ``envelope`` — and everything sent in answer — to where it
        is going; a provider runs what it is assigned."""
        queue = [(envelope, str(envelope.src))]
        while queue:
            envelope, sender = queue.pop(0)
            arrived = self._wire(envelope, sender)
            receiver = str(arrived.dst)
            with self.on(receiver):
                if receiver == "broker":
                    out = self.broker.handle(arrived)
                    submitted = arrived.payload.get("tasklet", {}).get("program")
                    for sent in out:
                        if sent.type == "assign_execution" and submitted is not None:
                            self.assigned.append((submitted, sent.payload["program"]))
                elif receiver == "c1":
                    out = self.consumer.handle(arrived)
                elif arrived.type == "assign_execution":
                    request = body_of(arrived)
                    outcome = self.executor.execute(request)
                    value = packed(outcome.value, fold_nan=True) if outcome.ok else None
                    result = ExecutionResult(
                        request.execution_id, request.tasklet_id, receiver,
                        outcome.status.value, value, outcome.error, outcome.instructions,
                    )
                    out = [result.envelope(NodeId(receiver), self.broker.node_id)]
                else:
                    out = []
            queue.extend((sent, receiver) for sent in out)

    def submit(self, *args_lists, program=PROGRAM):
        tasklets = [
            Tasklet(TaskletId(f"tl-{self.consumer.stats.submitted + n}"), program, "main", args)
            for n, args in enumerate(args_lists)
        ]
        with self.on("c1"):
            futures, envelopes = self.consumer.submit_tasklets(tasklets)
        for envelope in envelopes:
            self.deliver(envelope)
        return [future.result(0) for future in futures]


def test_after_its_first_tasklet_nobody_reads_a_programs_code_again(tmp_path):
    cluster = Cluster(journal=WorkJournal(str(tmp_path / "journal.jsonl")))
    assert cluster.submit([10]) == [4]
    # The first tasklet: the broker opens the program (it needs entry and
    # arity), the provider opens, verifies and translates it; the consumer
    # compiled it and packs it without reading anything.
    functions = len(PROGRAM.functions)
    assert cluster.reads == {"broker": functions, "p1": functions}
    assert cluster.opens == {"broker": 1, "p1": 1}
    cluster.reads.clear(), cluster.opens.clear()
    assert cluster.submit(*([n] for n in range(20, 40))) == [
        sum(all(n % d for d in range(2, n)) for n in range(2, limit)) for limit in range(20, 40)
    ]
    assert cluster.reads == {} and cluster.opens == {}
    assert (cluster.executor.cache_misses, cluster.executor.cache_hits) == (1, 20)
    # The assignment carries the bytes the submit delivered — that object.
    assert len(cluster.assigned) == 21
    assert all(sent is submitted and type(sent) is bytes for submitted, sent in cluster.assigned)
    # ... as does the journal: each admitted line reads back to those bytes.
    cluster.broker.journal.close()
    lines = [_read_line(text) for text in (tmp_path / "journal.jsonl").read_text().splitlines()]
    admitted = [line.tasklet["program"] for line in lines if line.WHAT == "admitted"]
    assert len(lines) == 42 and admitted == [PROGRAM.packed()] * 21


def test_a_64_node_workflow_opens_its_program_once_per_node():
    cluster = Cluster()
    spec = stencil(8, 8, work=3)
    assert len(spec.nodes) == 64 and len(spec.programs) == 1
    with cluster.on("c1"):
        handle, envelopes = cluster.consumer.submit_workflow(spec)
    for envelope in envelopes:
        cluster.deliver(envelope)
    expected = reference_values(spec)
    assert handle.result(0) == {node_id: expected[node_id] for node_id in spec.sinks()}
    assert cluster.opens == {"broker": 1, "p1": 1}
    assert (cluster.executor.cache_misses, cluster.executor.cache_hits) == (1, 63)
    cluster.opens.clear()
    spec.workflow_id = "again"
    with cluster.on("c1"):
        again, envelopes = cluster.consumer.submit_workflow(spec)
    for envelope in envelopes:
        cluster.deliver(envelope)
    assert again.result(0) and cluster.opens == {}  # (all 64 answered from the result cache, too)


def test_one_assignment_object_per_workflow_program():
    broker = Cluster().broker
    spec = stencil(4, 2, work=1)
    document = spec.to_dict()
    out = broker.handle(SubmitWorkflow(workflow=document).envelope(NodeId("c1"), broker.node_id))
    (blob,) = document["programs"].values()
    assigned = [sent.payload["program"] for sent in out if sent.type == "assign_execution"]
    assert len(assigned) == 4 and all(program is blob for program in assigned)


# -- a stamp that is not the hash of the bytes it travels with --------------------

X = compile_source("func main(x: int) -> int { return 111; }")
Y = compile_source("func main(x: int) -> int { return 222; }")


def _forged() -> dict:
    """A tasklet carrying Y, stamped as X."""
    return {**Tasklet(TaskletId("tl-forged"), Y, "main", [1]).to_dict(), "program_fingerprint": X.fingerprint()}


MISMATCH = f"program fingerprint mismatch: claimed {X.fingerprint()}, actual {Y.fingerprint()}"


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_mis_stamped_submit_is_refused_once_by_id_and_nothing_runs(tmp_path, warm):
    """Fails on the parent, where it was accepted — and then answered with
    X's result (111, for a tasklet whose code returns 222) by a provider
    that had X warm, ``VM_ERROR`` by a cold one."""
    cluster = Cluster(journal=WorkJournal(str(tmp_path / "journal.jsonl")))
    if warm:
        assert cluster.submit([1], program=X) == [111]
    journalled = (tmp_path / "journal.jsonl").read_text()
    issued, table = cluster.broker.stats.executions_issued, dict(cluster.broker.programs.opened)
    out = cluster.broker.handle(SubmitTasklet(tasklet=_forged()).envelope(NodeId("c1"), cluster.broker.node_id))
    (ack,) = [body_of(envelope) for envelope in out]
    assert (ack.tasklet_id, ack.accepted) == ("tl-forged", False)
    assert ack.reason == f"malformed tasklet: {MISMATCH}"
    assert cluster.broker.pending_tasklets == 0 and cluster.broker.programs.opened == table
    assert cluster.broker.stats.executions_issued == issued
    assert (tmp_path / "journal.jsonl").read_text() == journalled
    cluster.broker.journal.close()


def test_a_mis_stamped_forward_is_refused_in_the_forward_ack():
    federation = FederationConfig(peers=["b2"])
    cluster = Cluster(federation=federation)
    forward = ForwardTasklet(origin_broker="b2", consumer_id="c9", tasklet=_forged())
    out = cluster.broker.handle(forward.envelope(NodeId("b2"), cluster.broker.node_id))
    (ack,) = [body_of(envelope) for envelope in out]
    assert (ack.TYPE, ack.tasklet_id, ack.consumer_id, ack.accepted) == ("forward_ack", "tl-forged", "c9", False)
    assert ack.reason == f"malformed tasklet: {MISMATCH}"
    assert cluster.broker.pending_tasklets == 0 and cluster.broker.stats.executions_issued == 0


def test_a_mis_keyed_workflow_program_is_refused_in_the_workflow_ack(tmp_path):
    cluster = Cluster(journal=WorkJournal(str(tmp_path / "journal.jsonl")))
    document = stencil(2, 2, work=1).to_dict()
    (stamp,) = document["programs"]
    document["programs"][stamp] = Y.packed()
    out = cluster.broker.handle(SubmitWorkflow(workflow=document).envelope(NodeId("c1"), cluster.broker.node_id))
    (ack,) = [body_of(envelope) for envelope in out]
    assert (ack.TYPE, ack.accepted) == ("workflow_ack", False)
    assert ack.reason == (
        f"invalid workflow: program {stamp!r}: "
        f"program fingerprint mismatch: claimed {stamp}, actual {Y.fingerprint()}"
    )
    assert cluster.broker.pending_workflows == cluster.broker.pending_tasklets == 0
    assert cluster.broker.programs.opened == {}
    assert (tmp_path / "journal.jsonl").read_text() == ""
    cluster.broker.journal.close()


def test_the_brokers_table_stays_bounded_and_so_does_a_providers_cache():
    cluster = Cluster()
    for index in range(10 * PROGRAM_CACHE_SIZE):
        program = compile_source(f"func main(x: int) -> int {{ return x + {index}; }}")
        assert cluster.submit([1], program=program) == [1 + index]
        assert len(cluster.broker.programs.opened) <= PROGRAM_CACHE_SIZE
        assert len(cluster.executor._cache) <= PROGRAM_CACHE_SIZE
    assert len(cluster.broker.programs.opened) == len(cluster.executor._cache) == PROGRAM_CACHE_SIZE
    assert cluster.executor.cache_misses == 10 * PROGRAM_CACHE_SIZE
