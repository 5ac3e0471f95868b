"""Typed messages: registry completeness, envelope round-trips."""

import copy
import dataclasses
import re
import sys
import types
import typing
from pathlib import Path

import pytest

from repro.common.errors import TransportError
from repro.common.ids import NodeId
from repro.common.serde import packed
from repro.core.results import ExecutionRecord, ExecutionStatus
from repro.transport.codec import EnvelopeDecoder, decode_body, encode_envelope
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
    body_of,
)

SAMPLE_BODIES = [
    RegisterProvider(
        provider_id="p1", device_class="laptop", capacity=2, benchmark_score=1e6
    ),
    RegisterAck(accepted=True),
    RegisterAck(accepted=False, reason="bad capacity"),
    Unregister(provider_id="p1"),
    Heartbeat(provider_id="p1", free_slots=1, queue_length=3),
    HeartbeatAck(provider_id="p1", echo_sent_at=12.5),
    SubmitTasklet(tasklet={"tasklet_id": "tl-1", "program": b"\x08\x00", "entry": "main"}),
    SubmitAck(tasklet_id="tl-1", accepted=True),
    AssignExecution(
        execution_id="ex-1",
        tasklet_id="tl-1",
        consumer_id="c1",
        program=b"\x08\x00",  # (packed; a provider would open — and refuse — it)
        entry="main",
        args=packed([1, [2.5, "x"]]),
        seed=7,
        fuel=1000,
        program_fingerprint="abc123",
    ),
    ExecutionResult(
        execution_id="ex-1",
        tasklet_id="tl-1",
        provider_id="p1",
        status="success",
        value=packed([1, 2]),
        instructions=500,
        started_at=1.0,
        finished_at=2.0,
    ),
    ExecutionRejected(
        execution_id="ex-1", tasklet_id="tl-1", provider_id="p1", reason="full"
    ),
    CancelExecution(execution_id="ex-1"),
    TaskletComplete(tasklet_id="tl-1", ok=True, value=packed(3), attempts=1),
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
        tasklet={"tasklet_id": "tl-1", "program": b"\x08\x00", "entry": "main"},
    ),
    ForwardAck(
        tasklet_id="tl-1", consumer_id="c1", accepted=True, broker_id="broker-b"
    ),
    ForwardComplete(
        tasklet_id="tl-1",
        consumer_id="c1",
        broker_id="broker-b",
        ok=True,
        value=packed(42),
        attempts=1,
        cost=0.5,
        executions=[
            ExecutionRecord.from_dict(
                {
                    "execution_id": "ex-1",
                    "tasklet_id": "tl-1",
                    "provider_id": "p1",
                    "status": "success",
                    "instructions": 500,
                    "started_at": 1.0,
                    "finished_at": 2.0,
                }
            )
        ],
        executed_by="broker-b",
    ),
    SubmitWorkflow(
        workflow={
            "workflow_id": "wf-1",
            "nodes": [{"node_id": "a", "program_fingerprint": "abc123"}],
            "programs": {"abc123": b"\x08\x00"},
        }
    ),
    WorkflowAck(workflow_id="wf-1", accepted=True),
    WorkflowAck(workflow_id="wf-1", accepted=False, reason="duplicate"),
    WorkflowComplete(
        workflow_id="wf-1",
        ok=True,
        outputs={"b": packed(9)},
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
    wire = encode_envelope(envelope)
    ((restored, size),) = EnvelopeDecoder().feed(wire)
    assert size == len(wire)
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


# -- the wire boundary: a body is read completely, or not at all ----------------

_SMALL = packed([1, "a"])
#: Bytes that are no packed Tasklet value (arguments, a result), each for
#: another reason — what whoever uses such bytes must refuse, typed.
HOSTILE_BLOBS = [
    b"",
    *(_SMALL[:cut] for cut in range(1, len(_SMALL))),  # truncated at every prefix
    _SMALL + b"\x00",  # one trailing byte
    packed([{"a": 1}]),  # a dict tag inside
    packed([b"x"]),  # a bytes tag inside
    b"\x07\x01\x09i\xff\xff\x03",  # an array count past the end of the buffer
    b"\x07\x01\x09z\x01\x00",  # an unknown array format
    b"\x07\x01\x05\x02\xff\xfe",  # invalid UTF-8
    b"\x07\x01" * 100_000 + b"\x03\x00",  # 100k-deep nesting
    packed([None]),  # None as an argument
]
#: What a hostile or merely different build can put where a field should
#: be; the codec carries every one of these.  ``b"\x00"`` is what a packed
#: program or argument list is — bytes — and packs neither (``None``).
HOSTILE_MENU = [None, "x", 1.5, True, 7, [], {}, b"\x00", *HOSTILE_BLOBS]


def _records_inside(payload: dict) -> list[dict]:
    """Every dict nested anywhere inside ``payload``: the records it
    carries (a tasklet, its qoc; a workflow, a node, its table of packed
    programs; an execution record) and the placeholders inside arguments."""
    found, stack = [], list(payload.values())
    while stack:
        item = stack.pop()
        if type(item) is dict:
            found.append(item)
            stack.extend(item.values())
        elif type(item) is list:
            stack.extend(item)
    return found


def hostile(envelope, pick: int, value, inside: bool = False) -> None:
    """The stateful suites' hostile step: one payload field of ``envelope``
    — the ``pick``-th, by name — is replaced by ``value``.  With ``inside``
    the field is one level (or more) down: the ``pick``-th field of the
    records the payload carries, when it carries any."""
    payload = envelope.payload
    if inside:
        # (What a sender nests it shares with its own tables: copy first.)
        envelope.payload = payload = copy.deepcopy(payload)
        sites = [
            (nested, name) for nested in _records_inside(payload) for name in sorted(nested)
        ]
        if sites:
            nested, name = sites[pick % len(sites)]
            nested[name] = value
            return
    names = sorted(payload)
    payload[names[pick % len(names)]] = value


def read(envelope):
    """The body the boundary reads from ``envelope``, None for an unreadable
    one: what the stateful suites' models expect a core to act on."""
    try:
        return body_of(envelope)
    except TransportError:
        return None


_STATUSES = {"success", "vm_error", "provider_lost", "timeout", "rejected"}


def _holds(value, annotation) -> bool:
    """Whether ``value`` has the declared type — written out here, apart
    from the registry's compiled table, as the oracle it is checked by."""
    if annotation is typing.Any:
        return True
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        return any(_holds(value, part) for part in typing.get_args(annotation))
    expected = typing.get_origin(annotation) or annotation
    if expected is float:
        return type(value) in (float, int)
    return type(value) is expected


def _hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _well_formed(body) -> bool:
    hints = _hints(type(body))
    if not all(_holds(getattr(body, name), hint) for name, hint in hints.items()):
        return False
    if isinstance(body, ExecutionResult):
        return body.status in _STATUSES
    if isinstance(body, (TaskletComplete, ForwardComplete)):
        return all(
            type(record) is ExecutionRecord
            and _well_formed(ExecutionResult(**record.to_dict()))
            for record in body.executions
        )
    return True


def _envelope_of(body, **replaced):
    envelope = body.envelope(NodeId("n1"), BROKER_ADDRESS)
    envelope.payload.update(replaced)
    return envelope


@pytest.mark.parametrize("body", SAMPLE_BODIES, ids=lambda b: b.TYPE)
def test_body_of_yields_a_typed_body_or_transport_error(body):
    """Every field × the hostile menu: nothing but ``TransportError`` ever
    escapes ``body_of``, what it does return has every field of its
    declared type, and a value of the declared type is never refused."""
    hints = _hints(type(body))
    assert _well_formed(body)  # the samples themselves are the positive cases
    for name, hint in hints.items():
        for value in HOSTILE_MENU:
            envelope = _envelope_of(body, **{name: value})
            acceptable = _holds(value, hint)
            got = read(envelope)  # (any other exception fails the test)
            refused = got is None
            if not refused:
                assert _well_formed(got), (name, value)
                assert getattr(got, name) == value
                assert type(getattr(got, name)) is type(value)
            if name not in ("status", "executions", "tasklet", "workflow"):
                # (Those four answer to further rules: closed sets, record
                # shapes, and a submission that must name itself.)
                assert refused == (not acceptable), (name, value)
            elif not acceptable:
                assert refused, (name, value)


@pytest.mark.parametrize("body", SAMPLE_BODIES, ids=lambda b: b.TYPE)
def test_extra_keys_are_dropped_and_absent_optional_fields_default(body):
    required = {
        f.name
        for f in dataclasses.fields(body)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    envelope = _envelope_of(body, from_the_future={"nested": [1]})
    assert body_of(envelope) == body
    bare = body.envelope(NodeId("n1"), BROKER_ADDRESS)
    bare.payload = {k: v for k, v in bare.payload.items() if k in required}
    got = body_of(bare)
    assert all(getattr(got, name) == getattr(body, name) for name in required)
    assert got == type(body)(**bare.payload)  # the dataclass's own defaults
    for name in required:
        missing = dict(bare.payload)
        del missing[name]
        bare.payload = missing
        with pytest.raises(TransportError, match=name):
            body_of(bare)
        bare.payload = {**missing, name: getattr(body, name)}


_RECORD = {
    "execution_id": "ex-1",
    "tasklet_id": "tl-1",
    "provider_id": "p1",
    "status": "vm_error",
}


@pytest.mark.parametrize(
    "record, reason",
    [
        ("x", "holds a str"),
        ({"execution_id": "ex-1"}, "tasklet_id is missing"),
        ({**_RECORD, "tasklet_id": 7}, "tasklet_id is a int"),
        ({**_RECORD, "status": "exploded"}, "status is not one of"),
        ({**_RECORD, "started_at": "yesterday"}, "started_at is a str"),
    ],
)
def test_an_execution_record_is_checked_by_shape_not_by_container(record, reason):
    body = TaskletComplete(
        tasklet_id="tl-1", ok=False, error="e", executions=[ExecutionRecord.from_dict(_RECORD)]
    )
    assert body_of(_envelope_of(body)) == body  # the optional fields may be absent
    with pytest.raises(TransportError, match=reason):
        body_of(_envelope_of(body, executions=[_RECORD, record]))


def _item(n: int, status: str, error: str | None = None, **value) -> dict:
    """An execution item with its keys in the order a record writes them."""
    return {"execution_id": f"ex-{n}", "tasklet_id": "tl-1", "provider_id": f"p{n}",
            "status": status, **value, "error": error,
            "instructions": 40 + n, "started_at": 1.0, "finished_at": 2.5}


#: The three shapes of an execution item: a success that agreed with the
#: verdict (no ``value`` key: it is the completion's), an outvoted success
#: (its own bytes) and a failure (``"value": null``).
_ITEMS = [_item(1, "success"), _item(2, "success", value=packed(7)),
          _item(3, "vm_error", "boom", value=None)]


@pytest.mark.parametrize(
    "body",
    [
        TaskletComplete("tl-1", ok=True, value=packed(8), attempts=3),
        ForwardComplete("tl-1", "c1", "b2", ok=True, value=packed(8), attempts=3, executed_by="b2"),
    ],
    ids=lambda body: body.TYPE,
)
def test_execution_items_cross_in_their_three_shapes_byte_for_byte(body):
    """frame → body → frame is the identity: each item is read into a typed
    record once, and the record writes what it was read from."""
    envelope = body.envelope(NodeId("b1"), NodeId("c1"))
    envelope.payload["executions"] = copy.deepcopy(_ITEMS)
    frame = encode_envelope(envelope)
    decoded = decode_body(frame[4:])
    agreed, outvoted, failed = body_of(decoded).executions
    assert all(type(record) is ExecutionRecord for record in (agreed, outvoted, failed))
    assert (agreed.value, outvoted.value, failed.value) == (None, packed(7), None)
    assert (agreed.status, failed.status, failed.error) == (
        ExecutionStatus.SUCCESS, ExecutionStatus.VM_ERROR, "boom"
    )
    assert encode_envelope(decoded) == frame
    assert decoded.payload["executions"] == _ITEMS


def test_body_of_calls_nothing_in_dataclasses_or_typing():
    """The cost guard: what reading a class needs was compiled when it was
    registered, so a message pays for no introspection."""
    introspection = {dataclasses.__file__, typing.__file__}
    offenders = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in introspection:
            offenders.append(frame.f_code.co_qualname)
        elif event == "c_call" and getattr(arg, "__module__", None) in ("dataclasses", "typing"):
            offenders.append(arg.__qualname__)

    envelopes = [_envelope_of(body) for body in SAMPLE_BODIES]
    sys.setprofile(profiler)
    try:
        for envelope in envelopes:
            body_of(envelope)
    finally:
        sys.setprofile(None)
    assert offenders == []
    # The profiler does see such a call when there is one.
    sys.setprofile(profiler)
    try:
        dataclasses.fields(Heartbeat)
    finally:
        sys.setprofile(None)
    assert offenders[0] == "fields"


# -- docs/PROTOCOL.md "Message table" is the registry, written out ------------


def _documented_messages():
    text = (Path(__file__).parents[2] / "docs" / "PROTOCOL.md").read_text()
    section = text.split("### Message table", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            name, tag, _direction, form, fields = cells
            rows[name.strip("`")] = (
                int(tag),
                form,
                re.findall(r"`(\w+)`: ", fields),
            )
    return rows


def test_protocol_message_table_lists_exactly_the_registry():
    documented = _documented_messages()
    assert set(documented) == set(MESSAGE_TYPES)
    for name, cls in MESSAGE_TYPES.items():
        tag, form, fields = documented[name]
        assert tag == cls.TAG, name
        assert form == ("packed" if cls.PACKED else "keyed"), name
        assert fields == [f.name for f in dataclasses.fields(cls)], name
