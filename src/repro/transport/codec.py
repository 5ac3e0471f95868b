"""The wire codec, ``bin2``: frames and envelopes around serde values.

Every frame on a TCP link is ``4-byte big-endian length || body``, and
every body starts with the magic byte ``0xB2``: a one-byte message-type
tag, a varint/struct-packed envelope header, and — for the hot message
types — a *field-packed* body that ships bare values in dataclass field
order (see :data:`FIELD_TABLES`).  The values inside are
:mod:`repro.common.serde`'s binary form.

There is one codec and nothing to negotiate: a node sends ``bin2`` from
its first frame.  The magic byte is the contract (docs/PROTOCOL.md,
"Version"): a changed tag, field order or value grammar mints a new
magic and a new name, and a frame whose first body byte is anything
else — a JSON ``{``, an older contract — is refused, which ends that link.
"""

from __future__ import annotations

import dataclasses
import struct
from operator import itemgetter
from typing import Sequence

from ..common.errors import CodecError, TransportError
from ..common.serde import (
    pack_items,
    pack_str,
    pack_value,
    pack_varint,
    unpack_items,
    unpack_str,
    unpack_value,
    unpack_varint,
)
from .message import MESSAGE_TYPES, Envelope

#: The codec's name, as the ``codec`` label of the transport counters
#: carries it.  It is a *contract* name: ``bin2`` replaced its
#: predecessor when the value grammar gained the packed array.
CODEC_BINARY = "bin2"

#: First body byte of every frame; any other first byte is refused.
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

_FLAG_TRACE, _FLAG_FIELD_PACKED = 0x01, 0x02  # every other flag bit is zero

#: Per type: the frame's magic and tag — and for a field-packed type, its
#: field set (a payload qualifies when its keys are exactly these) and a
#: reader of the values in wire order (one field: the payload's only value).
_ENCODERS = {name: (bytes((MAGIC_BINARY, tag)), None, None) for name, tag in WIRE_TAGS.items()}
for _name, _fields in FIELD_TABLES.items():
    _values = itemgetter(*_fields) if len(_fields) > 1 else dict.values
    _ENCODERS[_name] = (_ENCODERS[_name][0], frozenset(_fields), _values)
_GENERIC = bytes((MAGIC_BINARY, 0))

#: Node ids — every envelope's ``src`` and ``dst`` — packed (length and
#: UTF-8).  A hostile peer may name any, so the cache stops at 4,096.
_NAME_HEADS: dict[str, bytes] = {}


def _name_head(name: str) -> bytes:
    head = bytearray()
    pack_str(name, head)
    if len(_NAME_HEADS) < 4096:
        _NAME_HEADS[name] = bytes(head)
    return bytes(head)


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialise one envelope to a complete length-prefixed frame."""
    return encode_batch((envelope,), CODEC_BINARY)


def decode_body(body: bytes) -> Envelope:
    """Decode one frame body (starting at the magic byte)."""
    if not body:
        raise CodecError("empty frame")
    if body[0] != MAGIC_BINARY:
        raise CodecError(f"not a bin2 frame: first body byte 0x{body[0]:02x}")
    if len(body) < 2:
        raise CodecError("truncated binary envelope")
    tag = body[1]
    if tag == 0:
        type_name, pos = unpack_str(body, 2)
    else:
        type_name, pos = _TAG_TO_TYPE.get(tag), 2
        if type_name is None:
            raise CodecError(f"unknown message tag 0x{tag:02x}")
    src, pos = unpack_str(body, pos)
    dst, pos = unpack_str(body, pos)
    seq, pos = unpack_varint(body, pos)
    if pos >= len(body):
        raise CodecError("truncated binary envelope")
    flags, pos = body[pos], pos + 1
    if flags & ~(_FLAG_TRACE | _FLAG_FIELD_PACKED):
        raise CodecError(f"undefined flag bits set: 0x{flags:02x}")
    trace = None
    if flags & _FLAG_TRACE:
        trace, pos = unpack_value(body, pos)
        if not isinstance(trace, dict):
            raise CodecError("trace must be a dict")
    fields = None
    if flags & _FLAG_FIELD_PACKED:
        fields = FIELD_TABLES.get(type_name)
        if fields is None:
            raise CodecError(f"no field table for {type_name!r}")
        payload, pos = unpack_items(body, pos, len(fields))
    else:
        payload, pos = unpack_value(body, pos)
        if not isinstance(payload, dict):
            raise CodecError("payload must be a dict")
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes in frame")
    if fields is not None:  # straight into the body: one that does not read keeps a payload
        try:
            read = MESSAGE_TYPES[type_name].from_values(payload)
            return Envelope(type_name, src, dst, None, seq, trace, read, True)
        except TransportError:
            payload = dict(zip(fields, payload))
    return Envelope(type_name, src, dst, payload, seq, trace)


class EnvelopeDecoder:
    """Incremental frame decoder for one byte stream.

    Feed arbitrary chunks with :meth:`feed`; complete envelopes come back
    in order as ``(envelope, frame_bytes)`` so the transport can count
    bytes.  Raises :class:`~repro.common.errors.CodecError` on garbage —
    the caller refuses the link.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> list[tuple[Envelope, int]]:
        buffer = self._buffer
        buffer += chunk
        frames: list[tuple[Envelope, int]] = []
        pos, size = 0, len(buffer)
        while size - pos >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer, pos)
            if length > MAX_FRAME_BYTES:
                raise CodecError(f"incoming frame too large: {length} bytes")
            end = pos + _HEADER.size + length
            if end > size:
                break
            frames.append((decode_body(bytes(buffer[pos + _HEADER.size : end])), end - pos))
            pos = end
        del buffer[:pos]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def encode_batch(batch: Sequence[Envelope], codec: str) -> bytes:
    """Encode a coalesced write: many envelopes, one byte string.

    ``codec`` must be :data:`CODEC_BINARY`; the parameter stays for the
    benchmark tracing shim, which wraps this function by its signature.
    """
    if codec != CODEC_BINARY:
        raise CodecError(f"unknown codec {codec!r}")
    out = bytearray()
    for envelope in batch:
        start = len(out)
        out += b"\0\0\0\0"  # (the body's length, once it is known)
        kind = envelope.type
        head, fields, values_of = _ENCODERS.get(kind) or (_GENERIC, None, None)
        out += head
        if head is _GENERIC:
            pack_str(kind, out)
        out += _NAME_HEADS.get(envelope.src) or _name_head(envelope.src)
        out += _NAME_HEADS.get(envelope.dst) or _name_head(envelope.dst)
        pack_varint(envelope.seq, out)
        body, trace = envelope.body, envelope.trace
        # A body packs its own fields; a payload only with exactly the pinned field set, else
        # (hand-edited, future extra keys) it takes the keyed form: nothing is silently dropped.
        payload = envelope.payload if body is None else vars(body)
        packed = fields is not None and (body is not None or payload.keys() == fields)
        out.append((trace is not None) * _FLAG_TRACE | packed * _FLAG_FIELD_PACKED)
        if trace is not None:
            pack_value(trace, out)
        if envelope.prepacked is not None:  # (only ever a field-packed body's)
            out += envelope.prepacked
        elif packed:
            pack_items(values_of(payload), out)
        else:
            pack_value(payload, out)
        size = len(out) - start - _HEADER.size
        if size > MAX_FRAME_BYTES:
            raise CodecError(f"frame too large: {size} bytes")
        _HEADER.pack_into(out, start, size)
    return bytes(out)


def decode_chunk(decoder: EnvelopeDecoder, chunk: bytes, metrics) -> list[Envelope]:
    """Envelopes completed by one received chunk, accounted on ``metrics``.
    Raises :class:`~repro.common.errors.CodecError` on undecodable bytes: such
    a peer is indistinguishable from a broken one, so the caller refuses the
    link — one bad peer must never take down the node."""
    frames = decoder.feed(chunk)
    if metrics is not None and frames:
        metrics.bytes.labels(direction="in", codec=CODEC_BINARY).inc(
            sum(size for _envelope, size in frames)
        )
        metrics.messages.labels(direction="in", codec=CODEC_BINARY).inc(len(frames))
    return [envelope for envelope, _size in frames]
