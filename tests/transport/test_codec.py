"""Wire codec: every message type round-trips both codecs bit-identically.

Property-style sweep: the shared ``SAMPLE_BODIES`` corpus (which the
registry-completeness test forces to cover every registered message
type) is pushed through json and bin2, with trace contexts, unicode,
large payloads, and unknown-field tolerance on top.
"""

import pytest

from repro.common.errors import CodecError, TransportError
from repro.common.ids import NodeId
from repro.common.serde import pack_value, unpack_str, unpack_value, unpack_varint
from repro.transport.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    FIELD_TABLES,
    MAGIC_BINARY,
    SUPPORTED_CODECS,
    WIRE_TAGS,
    EnvelopeDecoder,
    choose_codec,
    decode_chunk,
    encode_batch,
    encode_envelope,
    iter_frames,
    pack_frame,
)
from repro.transport.message import (
    MESSAGE_TYPES,
    Envelope,
    Heartbeat,
    SubmitTasklet,
    body_of,
)

from .test_messages import SAMPLE_BODIES

BOTH = (CODEC_JSON, CODEC_BINARY)
# The binary cases keep the test ids they had under the codec's first
# contract name, so the suite's history stays comparable across the rename.
BOTH_CASES = (pytest.param(CODEC_JSON, id="json"), pytest.param(CODEC_BINARY, id="bin1"))


def roundtrip(envelope, codec):
    frames = EnvelopeDecoder().feed(encode_envelope(envelope, codec))
    assert len(frames) == 1
    decoded, seen_codec, size = frames[0]
    assert seen_codec == codec
    assert size > 0
    return decoded


@pytest.mark.parametrize("codec", BOTH_CASES)
@pytest.mark.parametrize("body", SAMPLE_BODIES, ids=lambda b: b.TYPE)
def test_every_message_type_roundtrips(body, codec):
    envelope = body.envelope(src=NodeId("n1"), dst=NodeId("broker"))
    decoded = roundtrip(envelope, codec)
    assert decoded.to_dict() == envelope.to_dict()
    assert body_of(decoded) == body


@pytest.mark.parametrize("codec", BOTH_CASES)
def test_trace_context_rides_both_codecs(codec):
    envelope = Heartbeat(provider_id="p1", free_slots=1).envelope(
        NodeId("p1"), NodeId("broker")
    )
    envelope.trace = {"trace_id": "t" * 16, "span_id": "s" * 8}
    decoded = roundtrip(envelope, codec)
    assert decoded.trace == envelope.trace


@pytest.mark.parametrize("codec", BOTH_CASES)
def test_unicode_and_awkward_values_roundtrip(codec):
    payload_args = [
        "héllo wörld \N{SNOWMAN}",
        "‮gnirts lortnoc‬",
        {"ключ": ["значение", -(2**70), 2**70, 0.1, True, None]},
        b"\x00\xff binary blob \x7b\xb1",
    ]
    body = SubmitTasklet(
        tasklet={"tasklet_id": "tl-ü", "entry": "main", "args": payload_args}
    )
    envelope = body.envelope(NodeId("c-é"), NodeId("broker"))
    decoded = roundtrip(envelope, codec)
    assert decoded.to_dict() == envelope.to_dict()


@pytest.mark.parametrize("codec", BOTH_CASES)
def test_large_payload_roundtrips(codec):
    big = {"blob": "x" * 1_000_000, "rows": [[float(i), i] for i in range(5000)]}
    body = SubmitTasklet(tasklet={"tasklet_id": "tl-big", "program": big})
    envelope = body.envelope(NodeId("c1"), NodeId("broker"))
    decoded = roundtrip(envelope, codec)
    assert decoded.payload == envelope.payload


def test_unknown_fields_are_tolerated_by_bodies():
    # A newer peer may ship extra payload keys; body_of must not choke.
    envelope = Envelope(
        type="heartbeat",
        src=NodeId("p1"),
        dst=NodeId("broker"),
        payload={
            "provider_id": "p1",
            "free_slots": 1,
            "queue_length": 0,
            "sent_at": 0.0,
            "from_the_future": {"nested": True},
        },
    )
    for codec in BOTH:
        decoded = roundtrip(envelope, codec)
        body = body_of(decoded)
        assert body.provider_id == "p1"
        assert not hasattr(body, "from_the_future")


def test_wire_tags_cover_every_registered_type_uniquely():
    assert set(WIRE_TAGS) == set(MESSAGE_TYPES)
    assert len(set(WIRE_TAGS.values())) == len(WIRE_TAGS)
    assert 0 not in WIRE_TAGS.values()  # 0 is the generic-name escape


def test_unregistered_type_uses_generic_tag():
    envelope = Envelope(
        type="experimental_v99",
        src=NodeId("a"),
        dst=NodeId("b"),
        payload={"k": 1},
    )
    decoded = roundtrip(envelope, CODEC_BINARY)
    assert decoded.type == "experimental_v99"
    assert decoded.payload == {"k": 1}


def test_field_tables_pin_dataclass_field_order():
    import dataclasses

    for type_name, table in FIELD_TABLES.items():
        declared = tuple(f.name for f in dataclasses.fields(MESSAGE_TYPES[type_name]))
        assert table == declared, f"{type_name} wire order drifted"


def _binary_flags(frame: bytes) -> int:
    """Parse a binary frame down to its flags byte (header layout test)."""
    body = frame[4:]  # strip the length prefix
    assert body[0] == MAGIC_BINARY
    pos = 1
    tag = body[pos]
    pos += 1
    if tag == 0:
        _, pos = unpack_str(body, pos)
    _, pos = unpack_str(body, pos)  # src
    _, pos = unpack_str(body, pos)  # dst
    _, pos = unpack_varint(body, pos)  # seq
    return body[pos]


@pytest.mark.parametrize(
    "body",
    [b for b in SAMPLE_BODIES if b.TYPE in FIELD_TABLES],
    ids=lambda b: b.TYPE,
)
def test_trace_context_survives_field_packing(body):
    # Regression: the forward/workflow types joined the field-packed set;
    # a TraceContext riding any hot message must survive bin2 unchanged,
    # and the body must actually take the field-packed path (flag 0x02).
    envelope = body.envelope(src=NodeId("n1"), dst=NodeId("broker"))
    envelope.trace = {"trace_id": "tr-abc-1", "span_id": "sp-abc-9"}
    frame = encode_envelope(envelope, CODEC_BINARY)
    flags = _binary_flags(frame)
    assert flags & 0x01, f"{body.TYPE}: trace flag not set"
    assert flags & 0x02, f"{body.TYPE}: body not field-packed"
    decoded = roundtrip(envelope, CODEC_BINARY)
    assert decoded.trace == envelope.trace
    assert decoded.payload == envelope.payload
    assert body_of(decoded) == body


def test_forward_and_workflow_types_are_field_packed():
    for name in (
        "submit_workflow",
        "workflow_ack",
        "workflow_update",
        "workflow_complete",
        "forward_tasklet",
        "forward_ack",
        "forward_complete",
    ):
        assert name in FIELD_TABLES, f"{name} lost its field table"


def test_binary_is_smaller_than_json_for_hot_messages():
    envelope = Heartbeat(provider_id="prov-1", free_slots=3, sent_at=12.5).envelope(
        NodeId("prov-1"), NodeId("broker")
    )
    assert len(encode_envelope(envelope, CODEC_BINARY)) < len(
        encode_envelope(envelope, CODEC_JSON)
    )


def test_mixed_codec_stream_decodes_in_order():
    decoder = EnvelopeDecoder()
    envelopes = [
        Heartbeat(provider_id=f"p{i}", free_slots=i).envelope(
            NodeId(f"p{i}"), NodeId("broker")
        )
        for i in range(6)
    ]
    wire = b"".join(
        encode_envelope(envelope, BOTH[i % 2])
        for i, envelope in enumerate(envelopes)
    )
    # Feed byte-by-byte: reassembly must not care about chunk boundaries.
    frames = []
    for i in range(len(wire)):
        frames.extend(decoder.feed(wire[i : i + 1]))
    assert [e.payload["provider_id"] for e, _c, _s in frames] == [
        f"p{i}" for i in range(6)
    ]
    assert [c for _e, c, _s in frames] == [BOTH[i % 2] for i in range(6)]


def test_batch_encoding_applies_stamps_at_encode_time():
    stamped = []
    envelope = Heartbeat(provider_id="p1", free_slots=0, sent_at=0.0).envelope(
        NodeId("p1"), NodeId("broker")
    )

    def stamp(env):
        env.payload["sent_at"] = 99.5
        stamped.append(env)

    data = encode_batch([(envelope, stamp)], CODEC_BINARY)
    assert stamped == [envelope]
    (decoded,) = list(iter_frames(data))
    assert decoded.payload["sent_at"] == 99.5


def test_garbage_and_oversized_frames_raise_typed_errors():
    with pytest.raises(CodecError):
        EnvelopeDecoder().feed(b"\x00\x00\x00\x03" + bytes((MAGIC_BINARY, 0xFE, 0xFE)))
    with pytest.raises(TransportError):
        EnvelopeDecoder().feed(b"\x7f\xff\xff\xff")  # 2GiB length claim
    with pytest.raises(TransportError):
        EnvelopeDecoder().feed(b"\x00\x00\x00\x05hello")


def test_value_packing_rejects_reserved_and_non_str_keys():
    with pytest.raises(CodecError):
        pack_value({"__x__": 1}, bytearray())
    with pytest.raises(CodecError):
        pack_value({1: "x"}, bytearray())
    with pytest.raises(CodecError):
        pack_value(object(), bytearray())


def test_value_packing_handles_extreme_ints():
    for n in (0, -1, 1, 2**63, -(2**63), 2**200, -(2**200)):
        out = bytearray()
        pack_value(n, out)
        value, pos = unpack_value(bytes(out), 0)
        assert value == n and pos == len(out)


def test_choose_codec_prefers_binary_falls_back_to_json():
    assert SUPPORTED_CODECS == ("bin2", "json")
    assert choose_codec(["bin2", "json"]) == "bin2"
    assert choose_codec(["json"]) == "json"
    assert choose_codec([]) == "json"
    assert choose_codec(["bin99"]) == "json"
    # The replaced contract is not spoken: its peers share only JSON.
    assert choose_codec(["bin1", "json"]) == "json"
    assert choose_codec(["bin1"]) == "json"
    assert choose_codec(SUPPORTED_CODECS) == "bin2"


# -- the bin2 contract, as literals ---------------------------------------------
# The tag and field tables are computed from the message dataclasses, so
# nothing in ``src/`` would notice a renumbered tag or a reordered field —
# a peer of another build would.  These are the tables ``bin2`` was minted
# with; a change here is a new codec name, never an edit.

GOLDEN_WIRE_TAGS = {
    "register_provider": 1,
    "register_ack": 2,
    "unregister": 3,
    "heartbeat": 4,
    "heartbeat_ack": 5,
    "assign_execution": 6,
    "execution_result": 7,
    "execution_rejected": 8,
    "cancel_execution": 9,
    "submit_tasklet": 10,
    "submit_ack": 11,
    "tasklet_complete": 12,
    "submit_workflow": 13,
    "workflow_ack": 14,
    "workflow_update": 15,
    "workflow_complete": 16,
    "peer_hello": 17,
    "gossip_digest": 18,
    "forward_tasklet": 19,
    "forward_ack": 20,
    "forward_complete": 21,
    "hello": 22,
    "hello_ack": 23,
}

GOLDEN_FIELD_TABLES = {
    "heartbeat": ("provider_id", "free_slots", "queue_length", "sent_at"),
    "heartbeat_ack": ("provider_id", "echo_sent_at"),
    "assign_execution": (
        "execution_id", "tasklet_id", "consumer_id", "program", "entry", "args",
        "seed", "fuel", "program_fingerprint",
    ),
    "execution_result": (
        "execution_id", "tasklet_id", "provider_id", "status", "value", "error",
        "instructions", "started_at", "finished_at",
    ),
    "execution_rejected": ("execution_id", "tasklet_id", "provider_id", "reason"),
    "cancel_execution": ("execution_id",),
    "submit_tasklet": ("tasklet",),
    "submit_ack": ("tasklet_id", "accepted", "reason"),
    "tasklet_complete": (
        "tasklet_id", "ok", "value", "error", "attempts", "cost", "executions",
    ),
    "submit_workflow": ("workflow",),
    "workflow_ack": ("workflow_id", "accepted", "reason"),
    "workflow_update": ("workflow_id", "node_id", "state", "attempts", "error"),
    "workflow_complete": (
        "workflow_id", "ok", "outputs", "error", "failed_node", "dependents",
        "nodes_total", "nodes_memoized",
    ),
    "forward_tasklet": ("origin_broker", "consumer_id", "tasklet", "hops"),
    "forward_ack": ("tasklet_id", "consumer_id", "accepted", "broker_id", "reason"),
    "forward_complete": (
        "tasklet_id", "consumer_id", "broker_id", "ok", "value", "error",
        "attempts", "cost", "executions", "executed_by",
    ),
}


def test_wire_tables_are_the_ones_bin2_was_minted_with():
    assert (SUPPORTED_CODECS, CODEC_BINARY, MAGIC_BINARY) == (("bin2", "json"), "bin2", 0xB2)
    assert WIRE_TAGS == GOLDEN_WIRE_TAGS
    assert FIELD_TABLES == GOLDEN_FIELD_TABLES
    assert len(GOLDEN_WIRE_TAGS) == 23 and len(GOLDEN_FIELD_TABLES) == 16


@pytest.mark.parametrize("field", ["seq", "trace", "src", "dst", "type", "payload"])
def test_json_envelope_header_is_typed_or_refused(field):
    """The framing every link starts on: a header field of the wrong type
    is undecodable bytes — ``decode_chunk`` says ``None`` (drop the link),
    it never raises and never hands on an envelope nobody can route."""
    header = {"type": "heartbeat", "src": "p1", "dst": "broker", "seq": 1,
              "payload": {"provider_id": "p1", "free_slots": 1}}
    (good,) = decode_chunk(EnvelopeDecoder(), pack_frame(header), None)
    assert (good.type, good.src, good.seq, good.trace) == ("heartbeat", "p1", 1, None)
    traced = dict(header, trace={"trace_id": "t", "span_id": "s"})
    (good,) = decode_chunk(EnvelopeDecoder(), pack_frame(traced), None)
    assert good.trace == traced["trace"]
    for value in ("x", [1], 1.5, True, None, 7, {}):
        if isinstance(value, type(traced[field])) and type(value) is not bool:
            continue  # of the field's own type
        if field in ("seq", "trace") and value is None:
            continue  # null is absent: both are optional
        frame = pack_frame(dict(header, **{field: value}))
        assert decode_chunk(EnvelopeDecoder(), frame, None) is None, (field, value)
    del traced[field]
    if field not in ("seq", "trace"):
        assert decode_chunk(EnvelopeDecoder(), pack_frame(traced), None) is None
