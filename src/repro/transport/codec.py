"""Wire codecs: negotiated binary framing next to the JSON debug fallback.

Every frame on a TCP link is ``4-byte big-endian length || body``.  The
first body byte makes each frame self-describing:

* ``0x7B`` (``{``) — the UTF-8 JSON encoding of ``Envelope.to_dict()``;
  every peer can read and write it, which makes it the negotiation-free
  fallback.
* ``0xB2`` — the compact binary codec defined here (``bin2``): a one-byte
  message-type tag, varint/struct-packed envelope header, and — for the
  hot message types — *field-packed* bodies that drop the JSON key
  strings entirely (field order is the dataclass field order; see
  :data:`FIELD_TABLES`).

Because decoding is self-describing, a receiver never needs negotiation:
:class:`EnvelopeDecoder` handles both codecs on one stream, frame by
frame.  Negotiation (the ``hello``/``register`` handshake, see
``docs/PROTOCOL.md`` "Wire format") only gates what a sender may *emit*:
binary is sent exclusively to peers that advertised it.

Both codecs carry the values of :mod:`repro.common.serde` — one closed
set, a JSON and a binary form of it — so any payload that round-trips one
codec round-trips the other bit-identically: the property the codec test
suite enforces for every registered message type.  This module owns what
goes around the values: frames and envelopes.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Iterator

from ..common.errors import CodecError, TransportError
from ..common.ids import NodeId
from ..common.serde import (
    dumps,
    loads,
    pack_str,
    pack_value,
    pack_varint,
    unpack_str,
    unpack_value,
    unpack_varint,
)
from .message import MESSAGE_TYPES, Envelope, body_of

#: Codec names as they appear in hello handshakes and metric labels.  The
#: binary name is a *contract* name: ``bin2`` replaced its predecessor
#: when the value grammar gained the packed array, so a peer offering
#: only the older name shares just JSON with this build and is never sent
#: a tag it cannot decode.
CODEC_JSON = "json"
CODEC_BINARY = "bin2"

#: Codecs this build can decode, in sender-preference order.
SUPPORTED_CODECS: tuple[str, ...] = (CODEC_BINARY, CODEC_JSON)

#: First body byte of a binary frame.  JSON bodies always start with
#: ``{`` (0x7B), so the two encodings can never be confused.
MAGIC_BINARY = 0xB2

#: Frames larger than this are rejected to bound memory under a corrupt or
#: malicious length prefix. 64 MiB comfortably fits any bytecode program.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: The ``bin2`` tables, computed from the message registry — a type's tag,
#: and whether and in which order its fields are packed, are declared
#: once, on its dataclass.  Tag 0 is the generic escape: the type name
#: travels as a string (forward compatibility for types this build has
#: no tag for).  A field-packed body omits its keys and ships its values
#: in dataclass field order, which is therefore part of the ``bin2`` wire
#: contract — changing it means minting ``bin3``; every other payload
#: ships as a packed dict.
WIRE_TAGS: dict[str, int] = {name: cls.TAG for name, cls in MESSAGE_TYPES.items()}
_TAG_TO_TYPE = {tag: name for name, tag in WIRE_TAGS.items()}
FIELD_TABLES: dict[str, tuple[str, ...]] = {
    name: tuple(field.name for field in dataclasses.fields(cls))
    for name, cls in MESSAGE_TYPES.items()
    if cls.PACKED
}

_FLAG_TRACE = 0x01
_FLAG_FIELD_PACKED = 0x02


def choose_codec(offered) -> str:
    """Pick the preferred mutually-supported codec; JSON if none match."""
    for codec in SUPPORTED_CODECS:
        if codec in offered:
            return codec
    return CODEC_JSON


def accept_codec(connection, envelope: Envelope, offered) -> None:
    """Apply a ``hello_ack``: switch ``connection``'s send direction to the
    peer's pick, provided we offered it and can encode it (anything else
    — including an undecodable ack — leaves the link on its current codec).
    """
    try:
        ack = body_of(envelope)
    except TransportError:
        return
    if ack.codec in offered and ack.codec in SUPPORTED_CODECS:
        connection.send_codec = ack.codec


# ---------------------------------------------------------------------------
# Envelope encoding
# ---------------------------------------------------------------------------


def pack_frame(payload: dict[str, Any]) -> bytes:
    """Serialise ``payload`` as JSON and prepend the 4-byte length header."""
    body = dumps(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large: {len(body)} bytes")
    return _HEADER.pack(len(body)) + body


def encode_envelope(envelope: Envelope, codec: str = CODEC_JSON) -> bytes:
    """Serialise one envelope to a complete length-prefixed frame."""
    if codec == CODEC_JSON:
        return pack_frame(envelope.to_dict())
    if codec != CODEC_BINARY:
        raise CodecError(f"unknown codec {codec!r}")
    body = bytearray((MAGIC_BINARY,))
    tag = WIRE_TAGS.get(envelope.type, 0)
    body.append(tag)
    if tag == 0:
        pack_str(envelope.type, body)
    # NodeId subclasses str, so src/dst pack without a copy.
    pack_str(envelope.src, body)
    pack_str(envelope.dst, body)
    pack_varint(envelope.seq, body)
    fields = FIELD_TABLES.get(envelope.type)
    payload = envelope.payload
    # Field-pack only when the payload carries exactly the pinned field
    # set; anything else (hand-built payloads, future extra keys) falls
    # back to the keyed dict form so nothing is silently dropped.
    packed = fields is not None and len(payload) == len(fields) and all(
        name in payload for name in fields
    )
    flags = 0
    if envelope.trace is not None:
        flags |= _FLAG_TRACE
    if packed:
        flags |= _FLAG_FIELD_PACKED
    body.append(flags)
    if envelope.trace is not None:
        pack_value(envelope.trace, body)
    if packed:
        for name in fields:  # type: ignore[union-attr]
            pack_value(payload[name], body)
    else:
        pack_value(payload, body)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large: {len(body)} bytes")
    return _HEADER.pack(len(body)) + bytes(body)


def decode_binary_body(body: bytes) -> Envelope:
    """Decode one binary frame body (starting at the magic byte)."""
    if not body or body[0] != MAGIC_BINARY:
        raise CodecError("not a binary frame")
    pos = 1
    if pos >= len(body):
        raise CodecError("truncated binary envelope")
    tag = body[pos]
    pos += 1
    if tag == 0:
        type_name, pos = unpack_str(body, pos)
    else:
        type_name = _TAG_TO_TYPE.get(tag)
        if type_name is None:
            raise CodecError(f"unknown message tag 0x{tag:02x}")
    src, pos = unpack_str(body, pos)
    dst, pos = unpack_str(body, pos)
    seq, pos = unpack_varint(body, pos)
    if pos >= len(body):
        raise CodecError("truncated binary envelope")
    flags = body[pos]
    pos += 1
    trace = None
    if flags & _FLAG_TRACE:
        trace, pos = unpack_value(body, pos)
        if not isinstance(trace, dict):
            raise CodecError("trace must be a dict")
    if flags & _FLAG_FIELD_PACKED:
        fields = FIELD_TABLES.get(type_name)
        if fields is None:
            raise CodecError(f"no field table for {type_name!r}")
        payload = {}
        for name in fields:
            payload[name], pos = unpack_value(body, pos)
    else:
        payload, pos = unpack_value(body, pos)
        if not isinstance(payload, dict):
            raise CodecError("payload must be a dict")
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes in frame")
    return Envelope(
        type=type_name,
        src=NodeId(src),
        dst=NodeId(dst),
        payload=payload,
        seq=seq,
        trace=trace,
    )


def decode_body(body: bytes) -> tuple[Envelope, str]:
    """Decode one frame body of either codec; returns the codec seen."""
    if body[:1] == bytes((MAGIC_BINARY,)):
        return decode_binary_body(body), CODEC_BINARY
    return Envelope.from_dict(loads(body)), CODEC_JSON


class EnvelopeDecoder:
    """Incremental dual-codec frame decoder for one byte stream.

    Feed arbitrary chunks with :meth:`feed`; complete envelopes come back
    in order as ``(envelope, codec, frame_bytes)`` so the transport can
    attribute byte/message counters per codec.  Raises
    :class:`~repro.common.errors.TransportError` (or its
    :class:`~repro.common.errors.CodecError` subclass) on garbage — the
    caller treats the connection as broken, exactly like the JSON-only
    reader did.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> list[tuple[Envelope, str, int]]:
        self._buffer.extend(chunk)
        frames: list[tuple[Envelope, str, int]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_BYTES:
                raise CodecError(f"incoming frame too large: {length} bytes")
            total = _HEADER.size + length
            if len(self._buffer) < total:
                return frames
            body = bytes(self._buffer[_HEADER.size:total])
            del self._buffer[:total]
            envelope, codec = decode_body(body)
            frames.append((envelope, codec, total))

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def iter_frames(data: bytes) -> Iterator[Envelope]:
    """Decode a complete byte string of frames (tests and tools)."""
    decoder = EnvelopeDecoder()
    for envelope, _codec, _size in decoder.feed(data):
        yield envelope
    if decoder.pending_bytes:
        raise TransportError(f"{decoder.pending_bytes} trailing bytes")


#: Type of the optional per-envelope flush hook: called with the
#: envelope immediately before encoding, at actual flush time.  Used to
#: stamp ``Heartbeat.sent_at`` so write coalescing cannot skew RTTs.
Stamp = Callable[[Envelope], None]


def encode_batch(
    batch: list[tuple[Envelope, Stamp | None]], codec: str
) -> bytes:
    """Encode a coalesced write: many envelopes, one byte string."""
    chunks: list[bytes] = []
    for envelope, stamp in batch:
        if stamp is not None:
            stamp(envelope)
        chunks.append(encode_envelope(envelope, codec))
    return b"".join(chunks)


def count_sent(metrics, codec: str, size: int, envelopes: int) -> None:
    """Account one socket write on the optional ``TransportMetrics``."""
    if metrics is not None:
        metrics.bytes.labels(direction="out", codec=codec).inc(size)
        metrics.messages.labels(direction="out", codec=codec).inc(envelopes)
        metrics.flushes.inc()


def decode_chunk(
    decoder: EnvelopeDecoder, chunk: bytes, metrics
) -> list[Envelope] | None:
    """Envelopes completed by one received chunk, accounted per codec.

    ``None`` means the bytes were undecodable: such a peer is
    indistinguishable from a broken one, so the caller drops the link —
    one bad peer must never take down the node.
    """
    try:
        frames = decoder.feed(chunk)
    except TransportError:
        return None
    if metrics is not None:
        for _envelope, codec, size in frames:
            metrics.bytes.labels(direction="in", codec=codec).inc(size)
            metrics.messages.labels(direction="in", codec=codec).inc()
    return [envelope for envelope, _codec, _size in frames]
