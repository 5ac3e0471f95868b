"""Typed messages: registry completeness, envelope round-trips."""

import pytest

from repro.common.errors import TransportError
from repro.common.ids import NodeId
from repro.common.serde import loads
from repro.transport.codec import CODEC_JSON, EnvelopeDecoder, pack_frame
from repro.transport.message import (
    MESSAGE_TYPES,
    AssignExecution,
    BROKER_ADDRESS,
    CancelExecution,
    Envelope,
    ExecutionRejected,
    ExecutionResult,
    ForwardAck,
    ForwardComplete,
    ForwardTasklet,
    GossipDigest,
    Heartbeat,
    HeartbeatAck,
    Hello,
    HelloAck,
    PeerHello,
    RegisterAck,
    RegisterProvider,
    SubmitAck,
    SubmitTasklet,
    SubmitWorkflow,
    TaskletComplete,
    Unregister,
    WorkflowAck,
    WorkflowComplete,
    WorkflowUpdate,
    body_of,
)

SAMPLE_BODIES = [
    Hello(node_id="p1", codecs=["bin2", "json"], role="provider"),
    HelloAck(codec="bin2", codecs=["bin2", "json"]),
    RegisterProvider(
        provider_id="p1", device_class="laptop", capacity=2, benchmark_score=1e6
    ),
    RegisterAck(accepted=True),
    RegisterAck(accepted=False, reason="bad capacity"),
    Unregister(provider_id="p1"),
    Heartbeat(provider_id="p1", free_slots=1, queue_length=3),
    HeartbeatAck(provider_id="p1", echo_sent_at=12.5),
    SubmitTasklet(tasklet={"tasklet_id": "tl-1", "entry": "main"}),
    SubmitAck(tasklet_id="tl-1", accepted=True),
    AssignExecution(
        execution_id="ex-1",
        tasklet_id="tl-1",
        consumer_id="c1",
        program={"version": 1},
        entry="main",
        args=[1, [2.5, "x"]],
        seed=7,
        fuel=1000,
        program_fingerprint="abc123",
    ),
    ExecutionResult(
        execution_id="ex-1",
        tasklet_id="tl-1",
        provider_id="p1",
        status="success",
        value=[1, 2],
        instructions=500,
        started_at=1.0,
        finished_at=2.0,
    ),
    ExecutionRejected(
        execution_id="ex-1", tasklet_id="tl-1", provider_id="p1", reason="full"
    ),
    CancelExecution(execution_id="ex-1"),
    TaskletComplete(tasklet_id="tl-1", ok=True, value=3, attempts=1),
    PeerHello(broker_id="broker-a", epoch="abc123", reply_expected=True),
    GossipDigest(
        broker_id="broker-a",
        epoch="abc123",
        sent_at=5.0,
        providers_total=3,
        providers_alive=2,
        free_slots=4,
        pending_tasklets=1,
        backlog_replicas=0,
        grades={"healthy": 2, "degraded": 1},
    ),
    ForwardTasklet(
        origin_broker="broker-a",
        consumer_id="c1",
        tasklet={"tasklet_id": "tl-1", "entry": "main"},
    ),
    ForwardAck(
        tasklet_id="tl-1", consumer_id="c1", accepted=True, broker_id="broker-b"
    ),
    ForwardComplete(
        tasklet_id="tl-1",
        consumer_id="c1",
        broker_id="broker-b",
        ok=True,
        value=42,
        attempts=1,
        cost=0.5,
        executions=[{"execution_id": "ex-1"}],
        executed_by="broker-b",
    ),
    SubmitWorkflow(
        workflow={
            "workflow_id": "wf-1",
            "nodes": [{"node_id": "a", "program_fingerprint": "abc123"}],
            "programs": {"abc123": {"version": 1}},
        }
    ),
    WorkflowAck(workflow_id="wf-1", accepted=True),
    WorkflowAck(workflow_id="wf-1", accepted=False, reason="duplicate"),
    WorkflowUpdate(
        workflow_id="wf-1", node_id="a", state="running", attempts=1
    ),
    WorkflowComplete(
        workflow_id="wf-1",
        ok=True,
        outputs={"b": 9},
        nodes_total=2,
        nodes_memoized=1,
    ),
    WorkflowComplete(
        workflow_id="wf-2",
        ok=False,
        error="node a exhausted retries",
        failed_node="a",
        dependents=["b", "c"],
        nodes_total=3,
    ),
]


def test_every_registered_type_is_covered_by_samples():
    sampled = {type(body).TYPE for body in SAMPLE_BODIES}
    assert sampled == set(MESSAGE_TYPES)


@pytest.mark.parametrize("body", SAMPLE_BODIES, ids=lambda b: b.TYPE)
def test_envelope_wire_roundtrip(body):
    envelope = body.envelope(src=NodeId("n1"), dst=BROKER_ADDRESS)
    wire = pack_frame(envelope.to_dict())
    ((restored, codec, size),) = EnvelopeDecoder().feed(wire)
    assert (codec, size) == (CODEC_JSON, len(wire))
    assert restored.type == envelope.type
    assert restored.src == "n1"
    assert restored.dst == BROKER_ADDRESS
    assert body_of(restored) == body


def test_envelope_sequence_numbers_increase():
    first = Heartbeat(provider_id="p", free_slots=0).envelope(
        NodeId("p"), BROKER_ADDRESS
    )
    second = Heartbeat(provider_id="p", free_slots=0).envelope(
        NodeId("p"), BROKER_ADDRESS
    )
    assert second.seq > first.seq


def test_unknown_message_type_rejected():
    envelope = Envelope(type="nonsense", src=NodeId("a"), dst=NodeId("b"), payload={})
    with pytest.raises(TransportError):
        body_of(envelope)


def test_malformed_payload_rejected():
    envelope = Envelope(
        type="heartbeat", src=NodeId("a"), dst=NodeId("b"), payload={"wrong": 1}
    )
    with pytest.raises(TransportError):
        body_of(envelope)


def test_malformed_envelope_dict_rejected():
    with pytest.raises(TransportError):
        Envelope.from_dict({"type": "x"})


def test_wire_payload_is_plain_json():
    body = ExecutionResult(
        execution_id="e",
        tasklet_id="t",
        provider_id="p",
        status="success",
        value=1.5,
    )
    envelope = body.envelope(NodeId("p"), BROKER_ADDRESS)
    decoded = loads(pack_frame(envelope.to_dict())[4:])
    assert decoded["payload"]["value"] == 1.5
