"""Wire serialisation: JSON payloads in length-prefixed binary frames.

The Tasklet system exchanges small control messages (register, assign,
result...) whose payloads are JSON-friendly by construction: every message
dataclass implements ``to_dict``/``from_dict``.  This module provides the
two lower layers those dataclasses sit on:

* *value encoding* — a restricted, self-describing encoding of Python
  values (ints, floats, bools, strings, ``None``, lists, string-keyed
  dicts, and ``bytes`` via base64) that survives a JSON round trip without
  type loss (e.g. distinguishes ``1`` from ``1.0`` and bytes from str);
* *framing* — ``pack_frame`` prefixes a serialised payload with its 4-byte
  big-endian length; the stream is cut back into messages by the one
  incremental decoder, :class:`repro.transport.codec.EnvelopeDecoder`.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any

from .errors import CodecError

#: Frames larger than this are rejected to bound memory under a corrupt or
#: malicious length prefix. 64 MiB comfortably fits any bytecode program.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_value(value: Any) -> Any:
    """Convert ``value`` into a JSON-safe structure, tagging lossy cases.

    Floats that JSON would silently merge with ints are tagged as
    ``{"__f__": repr}`` only when needed (non-finite values); ``bytes``
    become ``{"__b__": base64}``.  Everything else must already be one of
    the supported types, otherwise :class:`CodecError` is raised — the wire
    format is deliberately closed, not extensible via pickle.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return {"__f__": repr(value)}
        return value
    if isinstance(value, bytes):
        return {"__b__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            if key.startswith("__") and key.endswith("__"):
                raise CodecError(f"reserved key name {key!r}")
            encoded[key] = encode_value(item)
        return encoded
    raise CodecError(f"unsupported value type {type(value).__name__}")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {"__b__"}:
            try:
                return base64.b64decode(value["__b__"])
            except Exception as exc:  # malformed base64
                raise CodecError(f"bad bytes payload: {exc}") from exc
        if set(value) == {"__f__"}:
            text = value["__f__"]
            if text == "nan":
                return float("nan")
            if text == "inf":
                return float("inf")
            if text == "-inf":
                return float("-inf")
            raise CodecError(f"bad float tag {text!r}")
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def dumps(payload: dict[str, Any]) -> bytes:
    """Serialise a message payload to UTF-8 JSON bytes."""
    try:
        return json.dumps(
            encode_value(payload), separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"cannot serialise payload: {exc}") from exc


def loads(data: bytes) -> dict[str, Any]:
    """Deserialise UTF-8 JSON bytes back into a payload dict."""
    try:
        decoded = decode_value(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"cannot parse payload: {exc}") from exc
    if not isinstance(decoded, dict):
        raise CodecError(f"payload must be an object, got {type(decoded).__name__}")
    return decoded


def pack_frame(payload: dict[str, Any]) -> bytes:
    """Serialise ``payload`` and prepend the 4-byte length header."""
    body = dumps(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large: {len(body)} bytes")
    return _HEADER.pack(len(body)) + body
