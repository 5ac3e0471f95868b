"""Wire codec: value round-trips, type preservation, framing."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import CodecError
from repro.common.serde import (
    decode_value,
    dumps,
    encode_value,
    loads,
    pack_frame,
)
from repro.transport.codec import EnvelopeDecoder
from repro.transport.message import Envelope

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
