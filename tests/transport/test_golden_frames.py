"""The wire, byte for byte: frames an earlier build encoded.

``golden_frames.bin2`` is a stream of ``bin2`` frames written by the
encoder that preceded the single-pass one (never regenerate it): one per
registered message type (``SAMPLE_BODIES``), and every envelope that
carries a tasklet of the end-to-end benchmark's five kernels — with and
without a trace context — among them a 1,024-int array, non-ASCII strings
and ints of 2**63 and beyond.  ``golden_frames.json`` holds, per frame, its
name and the envelope it decoded to, in the journal's JSON-safe form.

Each frame must decode to that envelope and re-encode to itself, and no
strict prefix of its body — nor the body with one byte more — may decode
to anything: a short or long body is a ``CodecError``, never an
``IndexError`` or a ``UnicodeDecodeError``.  The exception is the frames
of a retired message type (``workflow_update``, tag 15): the pair still
holds them, and this build must refuse each one, as it does any unknown
tag.

:func:`write_golden_frames` is how the pair was made, kept to document it.
"""

import json
import struct
from pathlib import Path

import pytest

from repro.common.errors import CodecError
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import decode_value, encode_value, packed, unpack_str, unpack_varint
from repro.core.kernels import PRIME_COUNT
from repro.core.tasklet import Tasklet
from repro.dag.patterns import stencil
from repro.transport.codec import EnvelopeDecoder, decode_body, encode_envelope
from repro.transport.message import Envelope
from repro.tvm.compiler import compile_source

HERE = Path(__file__).parent
FRAMES = HERE / "golden_frames.bin2"
ENVELOPES = HERE / "golden_frames.json"

FINE_KERNEL = "func main(x: int) -> int { return x + 1; }"
ECHO_KERNEL = "func main(a: array) -> array { return a; }"
TRACE = {"trace_id": "4bf92f3577b34da6", "span_id": "00f067aa0ba902b7"}


def _as_document(envelope: Envelope) -> dict:
    return encode_value(
        {
            "type": envelope.type,
            "src": str(envelope.src),
            "dst": str(envelope.dst),
            "seq": envelope.seq,
            "trace": envelope.trace,
            "payload": envelope.payload,
        }
    )


def _from_document(document: dict) -> Envelope:
    fields = decode_value(document)
    return Envelope(
        type=fields["type"],
        src=NodeId(fields["src"]),
        dst=NodeId(fields["dst"]),
        payload=fields["payload"],
        seq=fields["seq"],
        trace=fields["trace"],
    )


def golden_envelopes() -> list[tuple[str, Envelope]]:
    """What the golden stream holds, built by the cores of this build
    (which no longer send the stream's three ``workflow_update`` frames)."""
    from tests.integration.test_code_as_bytes import Cluster

    from .test_messages import SAMPLE_BODIES

    named = [
        (f"sample/{body.TYPE}#{n}", body.envelope(NodeId("n1"), NodeId("broker")))
        for n, body in enumerate(SAMPLE_BODIES)
    ]
    carried: list[Envelope] = []

    def firsts(run: str, envelopes: list[Envelope]) -> list[tuple[str, Envelope]]:
        by_type: dict[str, Envelope] = {}
        for envelope in envelopes:
            by_type.setdefault(envelope.type, envelope)
        return [(f"{run}/{kind}", envelope) for kind, envelope in by_type.items()]

    class Recording(Cluster):
        def _wire(self, envelope, sender):
            carried.append(envelope)
            return super()._wire(envelope, sender)

    cluster = Recording()
    runs = [
        ("fine", FINE_KERNEL, "tl-fine", [41]),
        ("fine_unicode", FINE_KERNEL, "tl-ünïcødé-☃", [2**40]),
        ("coarse", PRIME_COUNT, "tl-coarse", [60]),
        ("payload", ECHO_KERNEL, "tl-payload", [[7, *range(70_001, 71_024)]]),
        ("wide_ints", ECHO_KERNEL, "tl-wide", [[2**63, 2**64 - 1, 0, 1]]),
        ("huge_ints", ECHO_KERNEL, "tl-huge", [[2**63, -(2**63) - 1, 2**70, 5]]),
    ]
    for name, source, tasklet_id, args in runs:
        first = len(carried)
        tasklet = Tasklet(TaskletId(tasklet_id), compile_source(source), "main", args)
        futures, envelopes = cluster.consumer.submit_tasklets([tasklet])
        for envelope in envelopes:
            cluster.deliver(envelope)
        assert futures[0].result(0) is not None
        named += firsts(name, carried[first:])
    first = len(carried)
    handle, envelopes = cluster.consumer.submit_workflow(stencil(2, 2, work=3, salt=9))
    for envelope in envelopes:
        cluster.deliver(envelope)
    assert handle.result(0)
    named += firsts("stencil", carried[first:])
    traced = []
    for name, envelope in named:
        if not name.startswith("sample/"):
            copy = Envelope(
                envelope.type, envelope.src, envelope.dst, envelope.payload, envelope.seq,
                dict(TRACE),
            )
            traced.append((name + "+trace", copy))
    awkward = Envelope(
        type="experimental_v99",  # no tag: the generic escape, a keyed payload
        src=NodeId("c-é"),
        dst=NodeId("broker"),
        payload={
            "ключ": ["значение", -(2**70), 2**70, 2**63, -(2**63), 0.1, -0.0, True, None],
            "bytes": b"\x00\xff blob",
            "nested": {"a": [[1, 2, 3, 4], [1.5] * 4, []], "": {}},
            "☃" * 200: "x" * 300,
            "floats": [float("inf"), float("-inf"), 5e-324],
        },
        seq=2**64 + 7,
        trace=dict(TRACE),
    )
    return named + traced + [("awkward/experimental_v99", awkward)]


def write_golden_frames(directory: Path = HERE) -> None:
    """Write the pair from :func:`golden_envelopes`, with this build's
    encoder.  (The checked-in pair came from the encoder before the
    single-pass one; it is the contract, not a cache.)"""
    named = golden_envelopes()
    frames = [encode_envelope(envelope) for _name, envelope in named]
    (directory / FRAMES.name).write_bytes(b"".join(frames))
    documents = [
        {"name": name, "envelope": _as_document(decode_body(frame[4:]))}
        for (name, _envelope), frame in zip(named, frames)
    ]
    lines = ",\n".join(json.dumps(document, ensure_ascii=False) for document in documents)
    (directory / ENVELOPES.name).write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def _golden() -> list[tuple[str, bytes, Envelope]]:
    stream = FRAMES.read_bytes()
    frames, pos = [], 0
    while pos < len(stream):
        (length,) = struct.unpack_from(">I", stream, pos)
        frames.append(stream[pos : pos + 4 + length])
        pos += 4 + length
    documents = json.loads(ENVELOPES.read_text(encoding="utf-8"))
    assert len(frames) == len(documents)
    return [
        (document["name"], frame, _from_document(document["envelope"]))
        for document, frame in zip(documents, frames)
    ]


#: (Empty only while the pair is being written; the coverage test fails then.)
GOLDEN = _golden() if FRAMES.exists() else []
#: Message types the pair holds that this build no longer has.
RETIRED = {"workflow_update"}  # tag 15
LIVE = [golden for golden in GOLDEN if golden[2].type not in RETIRED]
GONE = [golden for golden in GOLDEN if golden[2].type in RETIRED]


def test_the_golden_stream_covers_every_type_and_every_kernel():
    from repro.transport.message import MESSAGE_TYPES

    names = [name for name, _frame, _envelope in GOLDEN]
    assert {envelope.type for _n, _f, envelope in GOLDEN} >= set(MESSAGE_TYPES)
    for kernel in ("fine", "coarse", "payload", "stencil"):
        for kind in ("assign_execution", "execution_result"):
            assert f"{kernel}/{kind}" in names and f"{kernel}/{kind}+trace" in names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, frame, envelope", LIVE, ids=[g[0] for g in LIVE])
def test_a_golden_frame_decodes_to_its_envelope_and_reencodes_to_itself(
    name, frame, envelope
):
    decoded = decode_body(frame[4:])
    assert decoded == envelope
    assert encode_envelope(decoded) == frame
    assert encode_envelope(envelope) == frame
    assert EnvelopeDecoder().feed(frame) == [(envelope, len(frame))]


@pytest.mark.parametrize("name, frame, envelope", LIVE, ids=[g[0] for g in LIVE])
def test_a_short_or_long_golden_body_is_a_codec_error(name, frame, envelope):
    body = frame[4:]
    for cut in range(len(body)):
        with pytest.raises(CodecError):
            decode_body(body[:cut])
    for extra in (b"\x00", b"\xff"):
        with pytest.raises(CodecError):
            decode_body(body + extra)


def test_a_frame_of_a_retired_type_is_refused():
    """Tag 15 (``workflow_update``) is retired and never reused: its golden
    frames are unknown tags now, refused whole by the body decoder and by
    the stream decoder a link reads with."""
    assert [name for name, _frame, _envelope in GONE] == [
        "sample/workflow_update#21",
        "stencil/workflow_update",
        "stencil/workflow_update+trace",
    ]
    for _name, frame, _envelope in GONE:
        with pytest.raises(CodecError) as refused:
            decode_body(frame[4:])
        assert str(refused.value) == "unknown message tag 0x0f"
        with pytest.raises(CodecError, match="unknown message tag 0x0f"):
            EnvelopeDecoder().feed(frame)


def _flags_at(body: bytes) -> int:
    """Where a frame body's flags byte is: after magic, tag, src, dst, seq."""
    assert body[1] != 0  # a tagged type: no type name follows the tag
    _src, pos = unpack_str(body, 2)
    _dst, pos = unpack_str(body, pos)
    return unpack_varint(body, pos)[1]


@pytest.mark.parametrize("name", ["sample/cancel_execution#11", "coarse/assign_execution+trace"])
def test_a_frame_with_an_undefined_flag_bit_is_refused(name):
    """Only bit0 (trace) and bit1 (field-packed) mean anything; a frame
    with any other bit set is refused whole, not read as if it were clear."""
    (frame,) = [frame for golden, frame, _envelope in LIVE if golden == name]
    body = frame[4:]
    at = _flags_at(body)
    assert body[at] in (0x02, 0x03)
    for bit in range(2, 8):
        flags = body[at] | 1 << bit
        broken = body[:at] + bytes([flags]) + body[at + 1 :]
        with pytest.raises(CodecError, match=f"undefined flag bits set: 0x{flags:02x}"):
            decode_body(broken)
        with pytest.raises(CodecError, match="undefined flag bits"):
            EnvelopeDecoder().feed(frame[:4] + broken)


def test_a_golden_stream_fed_in_odd_chunks_decodes_in_order():
    stream = b"".join(frame for _name, frame, _envelope in LIVE)
    decoder, decoded = EnvelopeDecoder(), []
    for start in range(0, len(stream), 977):
        decoded.extend(envelope for envelope, _size in decoder.feed(stream[start : start + 977]))
    assert decoded == [envelope for _name, _frame, envelope in LIVE]
    assert decoder.pending_bytes == 0


def test_values_inside_the_bytes_are_the_values_packed():
    by_name = {name: envelope for name, _frame, envelope in GOLDEN}
    value = by_name["payload/execution_result"].payload["value"]
    assert value == packed([7, *range(70_001, 71_024)], fold_nan=True)


def test_a_fine_tasklets_four_envelopes_cost_at_most_51_value_calls():
    """The counting test of the single-pass codec: encoding and decoding
    the four envelopes of one ``x + 1`` tasklet — submit, assignment,
    result, completion — calls a function that packs or unpacks a value
    (or a run of them) at most 51 times, counted by code object once the
    dict-key cache is warm.  The encoder before it made 102 such calls
    (``pack_value`` / ``unpack_value`` once per value, scalars included);
    now a scalar costs no call, a list or a dict one."""
    import sys

    from repro.common import serde

    watched = {
        function.__code__
        for function in (
            serde.pack_value, serde.unpack_value, serde.pack_items, serde.unpack_items,
            serde._pack_seq, serde._unpack_seq, serde._pack_other, serde._pack_array,
            serde._unpack_array,
        )
    }
    by_name = {name: envelope for name, _frame, envelope in GOLDEN}
    four = [
        by_name[f"fine/{kind}"]
        for kind in ("submit_tasklet", "assign_execution", "execution_result", "tasklet_complete")
    ]

    def round_trip():
        for envelope in four:
            assert decode_body(encode_envelope(envelope)[4:]) == envelope

    round_trip()  # (the key cache fills once per key and process)
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        calls += event == "call" and frame.f_code in watched

    sys.setprofile(profiler)
    try:
        round_trip()
    finally:
        sys.setprofile(None)
    assert 0 < calls <= 51
