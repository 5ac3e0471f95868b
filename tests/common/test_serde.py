"""Wire codec: value round-trips, type preservation, framing."""

import struct
import sys

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import CodecError
from repro.common.ids import NodeId
from repro.common.serde import (
    MAX_PACKED_DEPTH,
    check_packed,
    decode_value,
    dumps,
    encode_value,
    loads,
    opened,
    pack_value,
    packed,
    splice_list,
    unpack_value,
)
from repro.transport.codec import (
    CODEC_BINARY,
    EnvelopeDecoder,
    decode_chunk,
    encode_envelope,
    pack_frame,
)
from repro.transport.message import Envelope, ExecutionResult
from repro.tvm.vm import is_tasklet_value

# JSON-safe Tasklet wire values: scalars, bytes, lists, str-keyed dicts.
wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(
        st.text(max_size=10).filter(
            lambda k: not (k.startswith("__") and k.endswith("__"))
        ),
        children,
        max_size=5,
    ),
    max_leaves=20,
)


@given(wire_values)
def test_value_roundtrip(value):
    assert decode_value(encode_value(value)) == value


def _not_reserved(key: str) -> bool:
    return not (key.startswith("__") and key.endswith("__"))


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8).filter(_not_reserved),
        wire_values,
        max_size=5,
    )
)
def test_payload_roundtrip_through_bytes(payload):
    assert loads(dumps(payload)) == payload


def test_int_float_distinction_survives():
    payload = {"i": 1, "f": 1.0}
    decoded = loads(dumps(payload))
    assert type(decoded["i"]) is int
    assert type(decoded["f"]) is float


def test_bool_int_distinction_survives():
    decoded = loads(dumps({"b": True, "i": 1}))
    assert decoded["b"] is True
    assert type(decoded["i"]) is int


def test_bytes_roundtrip():
    decoded = loads(dumps({"blob": b"\x00\xffbinary"}))
    assert decoded["blob"] == b"\x00\xffbinary"


def test_non_finite_floats_roundtrip():
    decoded = loads(dumps({"pinf": float("inf"), "ninf": float("-inf")}))
    assert decoded["pinf"] == float("inf")
    assert decoded["ninf"] == float("-inf")


def test_nan_roundtrips_as_nan():
    decoded = loads(dumps({"nan": float("nan")}))
    assert decoded["nan"] != decoded["nan"]


def test_unsupported_type_rejected():
    with pytest.raises(CodecError):
        dumps({"bad": object()})


def test_non_string_dict_key_rejected():
    with pytest.raises(CodecError):
        encode_value({1: "x"})


def test_reserved_key_rejected():
    with pytest.raises(CodecError):
        encode_value({"__b__": "x"})


def test_loads_rejects_non_object_payload():
    with pytest.raises(CodecError):
        loads(b"[1, 2]")


def test_loads_rejects_garbage():
    with pytest.raises(CodecError):
        loads(b"\xff\xfe not json")


def framed(payload):
    """``payload`` as the stream carries it: in an envelope, in a frame."""
    return pack_frame(Envelope("probe", "a", "b", payload, seq=0).to_dict())


def payloads_of(frames):
    return [envelope.payload for envelope, _codec, _size in frames]


class TestFraming:
    """``pack_frame`` writes what the one incremental decoder reads back
    (partial frames, an oversized length prefix and trailing bytes are
    ``tests/transport/test_codec.py``'s)."""

    def test_single_frame_roundtrip(self):
        decoder = EnvelopeDecoder()
        assert payloads_of(decoder.feed(framed({"a": 1}))) == [{"a": 1}]
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        data = framed({"n": 1}) + framed({"n": 2}) + framed({"n": 3})
        assert payloads_of(EnvelopeDecoder().feed(data)) == [
            {"n": 1}, {"n": 2}, {"n": 3}
        ]

    @given(
        st.lists(
            st.dictionaries(
                st.text(min_size=1, max_size=4).filter(
                    lambda k: not (k.startswith("__") and k.endswith("__"))
                ),
                st.integers(),
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_arbitrary_chunking_preserves_frames(self, payloads, chunk_size):
        stream = b"".join(framed(payload) for payload in payloads)
        decoder = EnvelopeDecoder()
        received = []
        for start in range(0, len(stream), chunk_size):
            received.extend(decoder.feed(stream[start : start + chunk_size]))
        assert payloads_of(received) == payloads
        assert decoder.pending_bytes == 0


# ---------------------------------------------------------------------------
# The binary form, and its bulk case: a list of plain numbers
# ---------------------------------------------------------------------------

#: Every boundary at which an int list changes item width or leaves the
#: packed form altogether.
EDGES = [
    sign * (2**bits + delta)
    for bits in (7, 8, 15, 16, 31, 32, 63, 64)
    for delta in (-1, 0, 1)
    for sign in (1, -1)
]
ints = st.sampled_from(EDGES) | st.integers(-(2**70), 2**70) | st.integers(-300, 300)
floats = st.floats() | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")])
scalars = ints | floats | st.booleans() | st.text(max_size=5)
rows = (
    st.lists(ints, max_size=12)  # packed, at whatever width min/max ask for
    | st.lists(floats, max_size=12)
    | st.lists(ints | st.booleans(), max_size=6)  # a bool makes it per-item
    | st.lists(scalars, max_size=6)
)
tasklet_values = st.recursive(
    scalars | rows,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)


def exactly(value):
    """``value`` with every type spelt out, so ``==`` is exact: ``1``,
    ``1.0`` and ``True`` differ, ``-0.0`` is not ``0.0``, NaN equals NaN,
    and a tuple is the list it travels as."""
    if isinstance(value, (list, tuple)):
        return [exactly(item) for item in value]
    if isinstance(value, float):
        return ("float", "nan" if value != value else struct.pack(">d", value))
    return (type(value).__name__, value)


unpacked = opened  # (all of the bytes, or CodecError)


@given(tasklet_values)
def test_binary_roundtrip_is_type_exact_and_agrees_with_json(value):
    decoded = unpacked(packed(value))
    assert exactly(decoded) == exactly(value)
    assert exactly(decoded) == exactly(loads(dumps({"v": value}))["v"])


@given(tasklet_values)
def test_equal_values_encode_to_identical_bytes(value):
    clone = unpacked(packed(value))  # equal, and built by other code
    assert packed(clone) == packed(value) == packed(value)


@pytest.mark.parametrize(
    "array, code, item_bytes",
    [
        ([0, 127, -128], "b", 1),
        ([0, 255], "B", 1),
        ([-129, 0], "h", 2),
        ([0, 65_535], "H", 2),
        ([-(2**31), 2**31 - 1], "i", 4),
        ([0, 2**32 - 1], "I", 4),
        ([-1, 2**32], "q", 8),
        ([-(2**63), 2**63 - 1], "q", 8),
        ([0, 2**64 - 1], "Q", 8),
        ([0.5, -0.0], "d", 8),
    ],
)
def test_arrays_take_the_narrowest_format_that_holds_them(array, code, item_bytes):
    array = [array[0]] * 3 + array  # the extremes last: every narrower format is tried
    data = packed(array)
    assert data[:3] == bytes((0x09, ord(code), len(array)))
    assert len(data) == 3 + item_bytes * len(array)
    assert exactly(unpacked(data)) == exactly(array)


@pytest.mark.parametrize(
    "value",
    [[], [7], [1, 2, 3], [1.5, 2.5, 3.5], [1, 2, 3, True], [True] * 5, [1, 2, 3, 4.0],
     ["a", "b", "c", "d"], [1, 2, 3, 2**64], [-1, 0, 1, 2**63], [0, 0, 0, -(2**63) - 1],
     [[1, 2], [3, 4], [5, 6], [7, 8]], [None] * 4, (1, 2, 3, "x")],
    ids=repr,
)
def test_every_other_list_takes_the_per_item_form(value):
    data = packed(value)
    assert data[0] == 0x07 and data[1] == len(value)
    assert exactly(unpacked(data)) == exactly(value)


def test_rows_of_a_nested_list_decide_for_themselves():
    rows = [[1, 2, 3, 4], [1.5] * 4, [1, 2, 3, True], [5, 6]]
    data = packed(rows)
    assert data[:2] == b"\x07\x04"
    assert data[2:].startswith(b"\x09b\x04\x01\x02\x03\x04" b"\x09d\x04")
    assert data.endswith(b"\x07\x04\x03\x02\x03\x04\x03\x06\x01" b"\x07\x02\x03\x0a\x03\x0c")
    assert exactly(unpacked(data)) == exactly(rows)


def test_int_subclasses_never_enter_the_packed_form():
    import enum

    class Colour(enum.IntEnum):
        RED = 1

    assert packed([Colour.RED] * 4)[0] == 0x07
    assert packed([1, 2, 3, Colour.RED])[0] == 0x07
    assert exactly(unpacked(packed([Colour.RED] * 4))) == exactly([1] * 4)


def test_float_arrays_are_bit_exact_on_the_wire():
    payload_nan = struct.unpack(">d", bytes.fromhex("fff8000000000123"))[0]
    data = packed([payload_nan, -0.0, 5e-324, 1.0])
    assert data[:3] == b"\x09d\x04"
    assert data[3:-8] == bytes.fromhex("fff8000000000123" "8000000000000000" "0000000000000001")
    assert packed(payload_nan)[1:] == bytes.fromhex("fff8000000000123")


MALFORMED_ARRAYS = {
    "unknown format byte": b"\x09x\x01\x00",
    "no format byte": b"\x09",
    "no count": b"\x09q",
    "2**32 items in a 12-byte frame": b"\x09q\x80\x80\x80\x80\x10" + bytes(5),
    "2**70 items": b"\x09B" + b"\x80" * 10 + b"\x01",
    "truncated inside the items": packed([2**40] * 4)[:-3],
    "one byte short": packed([1.5] * 4)[:-1],
}


@pytest.mark.parametrize("data", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS.keys())
def test_malformed_arrays_are_codec_errors_before_anything_is_allocated(data):
    # CodecError, never struct.error / MemoryError / OverflowError: the
    # count is checked against the bytes present before it sizes anything.
    with pytest.raises(CodecError):
        unpack_value(data, 0)
    with pytest.raises(CodecError):
        unpack_value(b"\x07\x01" + data, 0)  # as a row of a per-item list


@given(st.lists(ints, min_size=1, max_size=8) | st.lists(floats, min_size=4, max_size=8), st.data())
def test_every_truncation_of_a_value_is_a_codec_error(array, data):
    whole = packed([array, "tail"])
    cut = data.draw(st.integers(0, len(whole) - 1))
    with pytest.raises(CodecError):
        unpack_value(whole[:cut], 0)


def test_a_malformed_array_in_a_frame_drops_the_link_not_the_node():
    envelope = ExecutionResult(
        execution_id="ex-1", tasklet_id="tl-1", provider_id="p1", status="success",
        value=list(range(1000, 1008)),
    ).envelope(NodeId("p1"), NodeId("broker"))
    frame = encode_envelope(envelope, CODEC_BINARY)
    header = b"\x09h\x08"
    assert frame.count(header) == 1
    assert decode_chunk(EnvelopeDecoder(), frame, None) == [envelope]
    for bad in (b"\x09z\x08", b"\x09h\x09", b"\x09h\xff\xff\xff\xff\x0f"):
        forged = frame.replace(header, bad)
        forged = struct.pack(">I", len(forged) - 4) + forged[4:]
        assert decode_chunk(EnvelopeDecoder(), forged, None) is None


def calls_made(function, *args) -> int:
    """Python-level plus C-level calls ``function(*args)`` makes."""
    count = 0

    def profiler(_frame, event, _arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return count


def test_an_int_array_costs_the_same_number_of_calls_at_any_length():
    """Every place a value is walked — encode, decode, the broker's check
    of the packed bytes, the Tasklet-value check — handles a list of plain ints in a number of
    Python and C calls that does not depend on its length.  (128 and
    8,192 items share a two-byte count varint, and both arrays need the
    same item width, so the counts are *equal*, not merely bounded.)"""

    def envelope_of(array):
        return ExecutionResult(
            execution_id="ex-1", tasklet_id="tl-1", provider_id="p1", status="success",
            value=array,
        ).envelope(NodeId("p1"), NodeId("broker"))

    def feed(frame):
        assert len(EnvelopeDecoder().feed(frame)) == 1

    counts = {}
    for n in (128, 8192):
        array = [(-1) ** i * i * 1009 for i in range(n)]
        frame = encode_envelope(envelope_of(array), CODEC_BINARY)
        counts[n] = {
            "pack_value": calls_made(packed, array),
            "unpack_value": calls_made(unpacked, packed(array)),
            "encode_envelope": calls_made(encode_envelope, envelope_of(array), CODEC_BINARY),
            "EnvelopeDecoder.feed": calls_made(feed, frame),
            "check_packed": calls_made(check_packed, packed([array])),
            "is_tasklet_value": calls_made(is_tasklet_value, array),
        }
    assert counts[128] == counts[8192]
    assert max(counts[8192].values()) < 200
    # The same probe does see a per-item walk: one bool ends the bulk form.
    assert calls_made(packed, [1] * 8191 + [True]) > 8192


# ---------------------------------------------------------------------------
# A value as its bytes: the check a broker makes, and the splice a DAG makes
# ---------------------------------------------------------------------------


def accepts(blob, whole_none=False):
    """``check_packed``'s verdict: ``(True, top-level count)`` or ``(False,
    reason)`` — anything it raises that is no CodecError fails the test."""
    try:
        return True, check_packed(blob, whole_none)
    except CodecError as refusal:
        return False, str(refusal)


def reference_accepts(blob) -> bool:
    """The check as a node that may build the value would make it."""
    try:
        value, end = unpack_value(blob, 0)
    except (CodecError, RecursionError):
        return False
    return end == len(blob) and is_tasklet_value(value)


def as_lists(value):
    return [as_lists(item) for item in value] if isinstance(value, (list, tuple)) else value


@given(tasklet_values, st.booleans())
def test_the_checker_accepts_what_pack_value_emits_for_a_tasklet_value(value, fold_nan):
    out = bytearray()
    pack_value(value, out, fold_nan)
    accepted, count = accepts(bytes(out))
    assert accepted, count
    assert count == (len(value) if isinstance(value, (list, tuple)) else None)
    assert is_tasklet_value(unpacked(bytes(out)))


@given(wire_values)
def test_the_checker_and_the_builder_agree_on_everything_pack_value_emits(value):
    """Over every *wire* value — ``None``, bytes and dicts included, at any
    depth — the bytes are accepted exactly when the value they open to is
    a Tasklet value; ``None`` as the whole of a result, and only there."""
    blob = packed(value)
    assert accepts(blob)[0] == reference_accepts(blob) == is_tasklet_value(as_lists(value))
    assert accepts(blob, whole_none=True)[0] == (value is None or is_tasklet_value(as_lists(value)))


@given(tasklet_values | wire_values, st.data())
def test_what_the_checker_accepts_always_opens_to_a_tasklet_value(value, data):
    """Checker ⊆ ``is_tasklet_value ∘ unpack``, over damaged blobs too: a
    byte changed, dropped or added anywhere, or bytes that never were a
    value — whatever is accepted opens, all of it, to a Tasklet value, and
    nothing but ``CodecError`` is ever raised."""
    blob = bytearray(packed(value))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, max(0, len(blob) - 1)))
        damage = data.draw(st.sampled_from(["set", "drop", "insert", "cut"]))
        if damage == "set" and blob:
            blob[at] = data.draw(st.integers(0, 255))
        elif damage == "drop" and blob:
            del blob[at]
        elif damage == "insert":
            blob.insert(at, data.draw(st.integers(0, 255)))
        else:
            del blob[at:]
    blob = bytes(blob)
    accepted, _ = accepts(blob)
    if accepted:
        assert reference_accepts(blob), blob
    noise = data.draw(st.binary(max_size=24))
    if accepts(noise)[0]:
        assert reference_accepts(noise), noise


@pytest.mark.parametrize(
    "blob, reason",
    [
        ([1], "packed value is a list"),
        (None, "packed value is a NoneType"),
        (b"", "truncated value"),
        (b"\x03", "truncated value"),
        (b"\x03\x80\x80", "truncated value"),
        (b"\x04\x00\x00", "truncated value"),
        (b"\x07\x02\x03\x02", "truncated value"),
        (b"\x07\x01\x03\x02\x00", "1 trailing bytes"),
        (b"\x03\x02\x03\x02", "2 trailing bytes"),
        (b"\x00", "value tag 0x00 is not a Tasklet value"),
        (b"\x07\x01\x00", "value tag 0x00 is not a Tasklet value"),
        (b"\x07\x01\x08\x00", "value tag 0x08 is not a Tasklet value"),
        (b"\x07\x01\x06\x01x", "value tag 0x06 is not a Tasklet value"),
        (b"\x0a", "value tag 0x0a is not a Tasklet value"),
        (b"\x09", "truncated array"),
        (b"\x09i\xff\xff\x03", "truncated value"),
        (b"\x09i\xff\xff\xff\xff\xff\xff\xff\xff\x7f", "truncated value"),
        (b"\x09z\x01\x00", "unknown array item format 0x7a"),
        (b"\x05\x02\xff\xfe", "bad utf-8 on the wire"),
        (b"\x05\x05ab", "truncated string"),
        (b"\x07\x01" * 100_000 + b"\x03\x00", "value nests too deeply"),
        (b"\x07\xff\xff\xff\xff\x0f", "truncated value"),
    ],
    ids=lambda case: repr(case)[:28],
)
def test_what_the_checker_refuses_and_in_which_words(blob, reason):
    accepted, said = accepts(blob)
    assert not accepted and said.startswith(reason), said
    assert accepts(blob, whole_none=True)[0] == (blob == b"\x00")


def test_the_checker_builds_nothing_and_costs_a_packed_array_its_header():
    """No list, no int, no float is made on the way, and an array of any
    length is a header: the count is its claim on the buffer, checked by
    arithmetic.  A string is decoded — that is its UTF-8 check."""
    array = [(-1) ** i * i * 1009 for i in range(8192)]
    blob = packed([array, [1.5] * 4096, "text", True, 2**80, [[1], ["x"]]])
    assert check_packed(blob) == 6
    short = packed([array[:128], [1.5] * 128, "text", True, 2**80, [[1], ["x"]]])
    assert calls_made(check_packed, blob) == calls_made(check_packed, short) < 50  # (two-byte counts both)
    made = []

    def profiler(_frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") in ("unpack_from", "from_bytes", "list"):
            made.append(arg.__name__)

    sys.setprofile(profiler)
    try:
        check_packed(blob)
    finally:
        sys.setprofile(None)
    assert made == []
    deep = packed([[[[[[[[1]]]]]]]])
    assert check_packed(deep) == 1
    nested = 1
    for _ in range(MAX_PACKED_DEPTH):
        nested = [nested]
    assert check_packed(packed(nested)) == 1  # exactly as deep as is allowed
    with pytest.raises(CodecError, match="nests too deeply"):
        check_packed(packed([nested]))


parts_of_a_list = st.lists(tasklet_values | st.none(), max_size=8) | st.lists(
    ints | st.just(2**70), min_size=3, max_size=6
) | st.lists(floats, min_size=3, max_size=6)


@given(parts_of_a_list, st.booleans())
def test_splicing_packed_parts_is_packing_the_list_of_them(items, fold_nan):
    """``splice_list`` writes, from the packed items alone, the bytes
    ``pack_value`` writes for the list — the array form included, which
    four or more same-typed numbers take (and ints past 64 bits do not)."""
    parts = []
    for item in items:
        out = bytearray()
        pack_value(item, out, fold_nan)
        parts.append(bytes(out))
    spliced = bytearray(b"before")
    splice_list(parts, spliced)
    assert bytes(spliced) == b"before" + packed([unpacked(part) for part in parts])
    assert exactly(unpacked(bytes(spliced[6:]))) == exactly([unpacked(part) for part in parts])


def test_a_gather_of_four_ints_takes_the_array_form_and_three_do_not():
    four, three = [packed(n) for n in (1, 2, 3, 400)], [packed(n) for n in (1, 2, 3)]
    out = bytearray()
    splice_list(four, out)
    assert bytes(out) == packed([1, 2, 3, 400]) and out[0] == 0x09
    out = bytearray()
    splice_list(three, out)
    assert bytes(out) == packed([1, 2, 3]) == b"\x07\x03" + b"".join(three)
    out = bytearray()
    splice_list([packed(1.5)] * 3 + [packed(2)], out)  # mixed: item by item
    assert bytes(out) == packed([1.5, 1.5, 1.5, 2]) and out[0] == 0x07


def test_opened_takes_all_of_the_bytes_or_raises_codec_error():
    assert opened(packed([1, [2.5, "x"]])) == [1, [2.5, "x"]] and opened(b"\x00") is None
    for bad, reason in [
        ([1], "packed value is a list"), (b"", "truncated value"),
        (packed(1) + b"\x00", "1 trailing bytes"),
        (b"\x07\x01" * 100_000 + b"\x03\x00", "value nests too deeply"),
    ]:
        with pytest.raises(CodecError, match=reason):
            opened(bad)
