"""Value serialisation: one closed set of values, one wire form.

Everything the system ships — message payloads, Tasklet arguments and
results — is built from one closed set of Python values: ``None``, bools,
ints, floats, strings, ``bytes``, lists (tuples travel as lists) and
string-keyed dicts whose keys are not ``__reserved__``.  The set is closed
on purpose: the wire is not extensible via pickle.

* *binary* — :func:`pack_value` / :func:`unpack_value`, the wire form: a
  tag byte per value, varint lengths, and one bulk form — a list of plain
  ints (or of plain floats), unless it is very short, is one
  :mod:`struct` call, not a Python step per item.  Because the encoder is
  deterministic and keeps every type distinction (``1`` stays an int,
  ``1.0`` a float, ``True`` a bool), the packed bytes are also the
  *canonical* form of a value, and the only form a Tasklet's arguments
  and result have between the node that packs them and the node that
  uses them (:func:`packed` / :func:`opened`): every hop in between
  checks (:func:`check_packed`), hashes, compares, stores and forwards
  the bytes, and never builds the value (DESIGN.md, "Values").
* *JSON-safe* — :func:`encode_value` / :func:`decode_value` tag bytes and
  non-finite floats so a value fits in a JSON document: the journal's
  lines and the CLI's output, never a socket.

Frames and envelopes — what goes around a value on a socket — are
:mod:`repro.transport.codec`'s.
"""

from __future__ import annotations

import base64
import struct
from math import isnan
from typing import Any

from .errors import CodecError


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


# ---------------------------------------------------------------------------
# Binary form (tag byte + varint-framed payloads)
# ---------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_ARRAY = 0x09  # packed homogeneous numeric list

_FLOAT = struct.Struct(">d")
_NAN = float("nan")

#: The closed set of array item formats: :mod:`struct` codes, big-endian,
#: standard sizes.  The integer codes are in the order an encoder tries
#: them, narrowest first.
_INT_FORMATS = "bBhHiIqQ"
_ARRAY_ITEM_SIZE = {ord(code): struct.calcsize(">" + code) for code in _INT_FORMATS + "d"}
#: Shorter lists are written item by item: the bulk form's fixed cost (the
#: type-set pass, a struct format) only pays for itself from about four
#: items on, and the wire is full of shorter ones — a program's
#: ``[op, arg]`` pairs, argument lists — that a busy broker encodes.
_ARRAY_MIN_ITEMS = 4


def pack_varint(n: int, out: bytearray) -> None:
    if n < 0x80:  # the overwhelmingly common case: one byte
        out.append(n)
        return
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def unpack_varint(buf: bytes, pos: int) -> tuple[int, int]:
    try:
        byte = buf[pos]
    except IndexError:
        raise CodecError("truncated varint") from None
    pos += 1
    if not byte & 0x80:  # single-byte fast path
        return byte, pos
    result = byte & 0x7F
    shift = 7
    while True:
        if pos >= len(buf):
            raise CodecError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def pack_str(text: str, out: bytearray) -> None:
    data = text.encode("utf-8")
    pack_varint(len(data), out)
    out += data


def unpack_str(buf: bytes, pos: int) -> tuple[str, int]:
    length, pos = unpack_varint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise CodecError("truncated string")
    try:
        return buf[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"bad utf-8 on the wire: {exc}") from exc


def _pack_array(value: list | tuple, out: bytearray, fold_nan: bool) -> bool:
    """Append ``value`` in the packed form if it qualifies: at least
    ``_ARRAY_MIN_ITEMS`` elements, every one exactly ``int`` (a ``bool``
    or an ``IntEnum`` is not) and within 64 bits, or every one exactly
    ``float``.  A short, mixed or nested list does not — False, and the
    caller writes it item by item; the rows of a nested list decide for
    themselves.

    Nothing here is a Python step per element.  The first element says
    whether the type-set pass is worth making; an int list then takes the
    first format that packs it, so the result is the narrowest that holds
    its minimum and maximum, and a format too narrow fails at the first
    item it cannot hold — at worst one wasted pass per narrower format.
    """
    if len(value) < _ARRAY_MIN_ITEMS:
        return False
    kind = type(value[0])
    if kind is int:
        formats = _INT_FORMATS
    elif kind is float:
        formats = "d"
    else:
        return False
    if len(set(map(type, value))) != 1:
        return False
    if fold_nan and kind is float and any(map(isnan, value)):
        value = [_NAN if item != item else item for item in value]
    count = len(value)
    for code in formats:
        try:
            items = struct.pack(f">{count}{code}", *value)
        except struct.error:  # an item out of this format's range
            continue
        out.append(_T_ARRAY)
        out.append(ord(code))
        pack_varint(count, out)
        out += items
        return True
    return False  # an int beyond 64 bits


def pack_value(value: Any, out: bytearray, fold_nan: bool = False) -> None:
    """Append the binary encoding of ``value`` to ``out``.

    The accepted type set (and the reserved ``__x__`` dict-key rule) is
    identical to :func:`encode_value`, so a payload is binary-encodable
    exactly when it is JSON-encodable.  Floats travel bit-exact (NaN
    payloads, ``-0.0``); ``fold_nan`` writes every NaN as the one quiet
    NaN instead, which is what makes the bytes a canonical key — two
    hosts' NaNs differ in sign and payload, and are the same result.
    """
    # Hot path first: payload fields are mostly strings and small ints.
    if isinstance(value, str):
        out.append(_T_STR)
        data = value.encode("utf-8")
        pack_varint(len(data), out)
        out += data
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        # Zigzag maps signed to unsigned; the varint then handles
        # arbitrary-precision Python ints without a separate bigint tag.
        pack_varint(value << 1 if value >= 0 else ((-value) << 1) - 1, out)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _FLOAT.pack(_NAN if fold_nan and value != value else value)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        pack_varint(len(value), out)
        out += value
    elif isinstance(value, (list, tuple)):
        if not _pack_array(value, out, fold_nan):
            out.append(_T_LIST)
            pack_varint(len(value), out)
            for item in value:
                pack_value(item, out, fold_nan)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        pack_varint(len(value), out)
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            if key.startswith("__") and key.endswith("__"):
                raise CodecError(f"reserved key name {key!r}")
            pack_str(key, out)
            pack_value(item, out, fold_nan)
    else:
        raise CodecError(f"unsupported value type {type(value).__name__}")


def unpack_value(buf: bytes, pos: int) -> tuple[Any, int]:
    """Decode one value at ``pos``; returns ``(value, next_pos)``."""
    try:
        tag = buf[pos]
    except IndexError:
        raise CodecError("truncated value") from None
    pos += 1
    if tag == _T_STR:  # hot path: payload fields are mostly strings
        return unpack_str(buf, pos)
    if tag == _T_INT:
        zigzag, pos = unpack_varint(buf, pos)
        return (zigzag >> 1) if not zigzag & 1 else -((zigzag + 1) >> 1), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        end = pos + _FLOAT.size
        if end > len(buf):
            raise CodecError("truncated float")
        return _FLOAT.unpack_from(buf, pos)[0], end
    if tag == _T_BYTES:
        length, pos = unpack_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError("truncated bytes")
        return bytes(buf[pos:end]), end
    if tag == _T_ARRAY:
        if pos >= len(buf):
            raise CodecError("truncated array")
        code = buf[pos]
        size = _ARRAY_ITEM_SIZE.get(code)
        if size is None:
            raise CodecError(f"unknown array item format 0x{code:02x}")
        count, pos = unpack_varint(buf, pos + 1)
        end = pos + count * size
        # Checked before unpacking: the count is the peer's claim, and
        # only the bytes actually present may size an allocation.
        if end > len(buf):
            raise CodecError("truncated array")
        return list(struct.unpack_from(f">{count}{chr(code)}", buf, pos)), end
    if tag == _T_LIST:
        count, pos = unpack_varint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = unpack_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        count, pos = unpack_varint(buf, pos)
        result: dict[str, Any] = {}
        for _ in range(count):
            key, pos = unpack_str(buf, pos)
            result[key], pos = unpack_value(buf, pos)
        return result, pos
    raise CodecError(f"unknown value tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# A value as its bytes: what carries a Tasklet's arguments and result
# ---------------------------------------------------------------------------

#: Lists may nest this deep in a checked value; one that nests deeper is
#: refused (no Tasklet builds one, and whoever opens it recurses per level).
MAX_PACKED_DEPTH = 64


def packed(value: Any, fold_nan: bool = False) -> bytes:
    """``value`` as its packed bytes (:func:`pack_value`)."""
    out = bytearray()
    pack_value(value, out, fold_nan)
    return bytes(out)


def opened(blob: bytes) -> Any:
    """The value ``blob`` packs — all of it, and nothing after it — or
    :class:`CodecError`, whatever ``blob`` is."""
    if type(blob) is not bytes:
        raise CodecError(f"packed value is a {type(blob).__name__}")
    try:
        value, end = unpack_value(blob, 0)
    except RecursionError:
        raise CodecError("value nests too deeply") from None
    if end != len(blob):
        raise CodecError(f"{len(blob) - end} trailing bytes")
    return value


def check_packed(blob: bytes, whole_none: bool = False) -> int | None:
    """Check, without building it, that ``blob`` packs exactly one Tasklet
    value — a bool, int, float or string, or a list of them, nested at
    most :data:`MAX_PACKED_DEPTH` deep — with nothing after it; with
    ``whole_none`` the blob may also be ``None`` itself (a void result).
    Returns the item count of a top-level list (None for a scalar); raises
    :class:`CodecError` for anything else, non-bytes included.

    A packed array costs its header: its items are numbers whatever its
    bytes are.  Strings are decoded, which is their UTF-8 check; nothing
    is sized by a count the buffer does not back.
    """
    if type(blob) is not bytes:
        raise CodecError(f"packed value is a {type(blob).__name__}")
    if whole_none and blob == b"\x00":
        return None
    size, pos, top = len(blob), 0, None
    unread = [1]  # items still to read: of the blob, then per open list
    while unread:
        if not unread[-1]:
            unread.pop()
            continue
        unread[-1] -= 1
        level = len(unread)
        if pos >= size:
            raise CodecError("truncated value")
        tag = blob[pos]
        pos += 1
        count = None
        if tag == _T_INT:  # (its varint is skipped, not built)
            while pos < size and blob[pos] & 0x80:
                pos += 1
            pos += 1
        elif tag == _T_FLOAT:
            pos += _FLOAT.size
        elif tag == _T_STR:
            _, pos = unpack_str(blob, pos)
        elif tag == _T_ARRAY:
            if pos >= size:
                raise CodecError("truncated array")
            item_size = _ARRAY_ITEM_SIZE.get(blob[pos])
            if item_size is None:
                raise CodecError(f"unknown array item format 0x{blob[pos]:02x}")
            count, pos = unpack_varint(blob, pos + 1)
            pos += count * item_size
        elif tag == _T_LIST:
            if level > MAX_PACKED_DEPTH:
                raise CodecError("value nests too deeply")
            count, pos = unpack_varint(blob, pos)
            unread.append(count)
        elif tag != _T_TRUE and tag != _T_FALSE:
            raise CodecError(f"value tag 0x{tag:02x} is not a Tasklet value")
        if pos > size:
            raise CodecError("truncated value")
        if level == 1:
            top = count
    if pos != size:
        raise CodecError(f"{size - pos} trailing bytes")
    return top


def splice_list(parts: list[bytes], out: bytearray) -> None:
    """Append the list whose items are the packed ``parts``: byte for byte
    what :func:`pack_value` writes for the list of the opened parts, none
    of which is opened — unless they are numbers that take the array form
    together, which only their values can say."""
    if len(parts) >= _ARRAY_MIN_ITEMS:
        tags = {part[:1] for part in parts}
        if len(tags) == 1 and tags <= {bytes((_T_INT,)), bytes((_T_FLOAT,))}:
            pack_value([unpack_value(part, 0)[0] for part in parts], out)
            return
    out.append(_T_LIST)
    pack_varint(len(parts), out)
    for part in parts:
        out += part
