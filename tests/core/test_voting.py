"""Replica voting: majority formation, disagreement, vote-key semantics.

A result reaches the collector as the bytes its provider packed
(``packed(value, fold_nan=True)``), and those bytes are the vote key."""

import json
import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.common.ids import ExecutionId, NodeId, TaskletId
from repro.common.serde import opened, packed
from repro.core.results import ExecutionRecord, ExecutionStatus, VoteCollector

_counter = iter(range(10**9))

#: ``inf - inf`` as x86 (sign bit set) and as ARM produce it.
NAN_BITS = ("fff8000000000000", "7ff8000000000000")


def _vote_key(value) -> bytes:
    """A result as its provider sends it: what the collector groups by."""
    return packed(value, fold_nan=True)


def record(value=None, ok=True, provider="p1"):
    """One execution's record; a success carries its value packed."""
    return ExecutionRecord(
        execution_id=ExecutionId(f"ex-{next(_counter)}"),
        tasklet_id=TaskletId("tl-1"),
        provider_id=NodeId(provider),
        status=ExecutionStatus.SUCCESS if ok else ExecutionStatus.PROVIDER_LOST,
        value=_vote_key(value) if ok else None,
        error=None if ok else "lost",
    )


class TestVoteKey:
    def test_distinguishes_int_from_float(self):
        assert _vote_key(1) != _vote_key(1.0)

    def test_distinguishes_bool_from_int(self):
        assert _vote_key(True) != _vote_key(1)

    def test_distinguishes_none_from_zero(self):
        assert _vote_key(None) != _vote_key(0)

    def test_structural_equality_for_lists(self):
        assert _vote_key([1, [2.5, "x"]]) == _vote_key([1, [2.5, "x"]])
        assert _vote_key([1, 2]) != _vote_key([2, 1])

    def test_float_precision_preserved(self):
        assert _vote_key(0.1 + 0.2) != _vote_key(0.3)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
            | st.text(max_size=10),
            lambda children: st.lists(children, max_size=4),
            max_leaves=10,
        )
    )
    def test_key_is_deterministic(self, value):
        assert _vote_key(value) == _vote_key(value)

    @pytest.mark.parametrize("n", [1, 8])  # item by item, and bulk-packed
    def test_lists_of_each_numeric_type_are_three_groups(self, n):
        assert len({_vote_key([1] * n), _vote_key([1.0] * n), _vote_key([True] * n)}) == 3
        assert _vote_key([1] * n + [1]) != _vote_key([1] * n + [True])

    def test_every_nan_is_one_vote(self):
        x86, arm = (struct.unpack(">d", bytes.fromhex(bits))[0] for bits in NAN_BITS)
        assert struct.pack(">d", x86) != struct.pack(">d", arm)  # differ on the wire
        assert _vote_key(x86) == _vote_key(arm) == _vote_key(float("nan"))
        assert _vote_key([1.5, x86]) == _vote_key([1.5, arm])  # item by item
        assert _vote_key([1.5, 2.5, x86, 3.5]) == _vote_key([1.5, 2.5, arm, 3.5])  # packed
        assert _vote_key([[x86] * 4, "x"]) == _vote_key([[arm] * 4, "x"])
        assert _vote_key([x86] * 4) != _vote_key([float("inf")] * 4)
        # Two hosts' packers, one group — and an unfolded NaN would be another.
        collector = VoteCollector(redundancy=3)
        for host, nan in (("p1", x86), ("p2", arm)):
            collector.add(record([1.5, 2.5, nan, 3.5], provider=host))
        assert len(collector.winner()) == 2 and not collector.disagreement()
        assert packed([1.5, 2.5, x86, 3.5]) != packed([1.5, 2.5, arm, 3.5])

    def test_negative_zero_is_not_zero(self):
        assert _vote_key(-0.0) != _vote_key(0.0)
        assert _vote_key([1.0, -0.0]) != _vote_key([1.0, 0.0])
        assert _vote_key([1.0, 2.0, 3.0, -0.0]) != _vote_key([1.0, 2.0, 3.0, 0.0])

    def test_equal_arrays_from_two_providers_are_one_group(self):
        rng = random.Random(5)
        array = [rng.randrange(-(2**31), 2**31) for _ in range(1024)]
        collector = VoteCollector(redundancy=3)
        collector.add(record(array, provider="p1"))
        collector.add(record(list(array), provider="p2"))
        collector.add(record(array[:-1] + [array[-1] ^ 1], provider="p3"))
        assert [len(group) for group in collector.successes.values()] == [2, 1]
        assert {r.provider_id for r in collector.winner()} == {"p1", "p2"}
        assert isinstance(_vote_key(array), bytes) and len(_vote_key(array)) < 4200

    @given(st.data())
    def test_groups_exactly_as_the_per_element_key_did(self, data):
        """The packed bytes group results as the JSON-of-tagged-items key
        they replaced (kept here as the reference) — over an alphabet
        small enough that equal and nearly equal values do meet."""
        leaves = st.sampled_from(
            [0, 1, -1, 127, 128, 2**63, 2**64, True, False, 0.0, -0.0, 1.0, float("nan"),
             float("inf"), "", "1", None]
        )
        arrays = st.lists(st.sampled_from([0, 1, 128]), min_size=3, max_size=5) | st.lists(
            st.sampled_from([0.0, -0.0, float("nan")]), min_size=3, max_size=5
        )  # around the length at which a list becomes bulk-packed
        values = st.recursive(
            leaves | arrays, lambda children: st.lists(children, max_size=4), max_leaves=8
        )
        a, b = data.draw(values), data.draw(values)
        assert (_vote_key(a) == _vote_key(b)) == (_reference_key(a) == _reference_key(b))


def _reference_key(value):
    """The vote key as it once was: one Python step per element."""

    def tag(item):
        if isinstance(item, bool):
            return ["b", item]
        if isinstance(item, int):
            return ["i", item]
        if isinstance(item, float):
            return ["f", repr(item)]
        if isinstance(item, str):
            return ["s", item]
        if isinstance(item, list):
            return ["l", [tag(element) for element in item]]
        if item is None:
            return ["n"]
        raise TypeError(f"unexpected result type {type(item).__name__}")

    return json.dumps(tag(value), separators=(",", ":"))


class TestRequiredVotes:
    def test_default_majority(self):
        assert VoteCollector(1).required == 1
        assert VoteCollector(2).required == 2
        assert VoteCollector(3).required == 2
        assert VoteCollector(5).required == 3

    def test_explicit_required_overrides(self):
        assert VoteCollector(3, required=1).required == 1

    def test_invalid_redundancy_rejected(self):
        with pytest.raises(ValueError):
            VoteCollector(0)


class TestCollecting:
    def test_single_success_decides_r1(self):
        collector = VoteCollector(1)
        collector.add(record(42))
        assert collector.winner() is not None
        assert [opened(r.value) for r in collector.winner()] == [42]

    def test_r3_needs_two_agreeing(self):
        collector = VoteCollector(3)
        collector.add(record(42, provider="a"))
        assert collector.winner() is None
        collector.add(record(42, provider="b"))
        assert collector.winner() is not None
        assert len(collector.winner()) == 2

    def test_failures_never_vote(self):
        collector = VoteCollector(1)
        collector.add(record(ok=False))
        collector.add(record(ok=False))
        assert collector.winner() is None
        assert collector.winner() is None

    def test_disagreement_detected(self):
        collector = VoteCollector(3)
        collector.add(record(1, provider="a"))
        collector.add(record(2, provider="b"))
        assert collector.disagreement()
        assert collector.winner() is None

    def test_majority_wins_over_minority_corruption(self):
        collector = VoteCollector(3)
        collector.add(record(7, provider="a"))
        collector.add(record(999, provider="bad"))
        collector.add(record(7, provider="c"))
        assert collector.winner() is not None
        assert all(opened(r.value) == 7 for r in collector.winner())

    def test_equal_but_distinct_corruptions_never_decide(self):
        collector = VoteCollector(3)
        collector.add(record(100, provider="a"))
        collector.add(record(200, provider="b"))
        collector.add(record(300, provider="c"))
        assert collector.winner() is None
        assert collector.disagreement()

    def test_all_records_returns_everything(self):
        collector = VoteCollector(2)
        collector.add(record(1))
        collector.add(record(ok=False))
        assert len(collector.all_records) == 2

    def test_none_value_votes(self):
        # Void tasklets: replicas all return None and must agree.
        collector = VoteCollector(2)
        collector.add(record(None, provider="a"))
        collector.add(record(None, provider="b"))
        assert collector.winner() is not None

    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_winner_iff_some_group_reaches_required(self, redundancy, data):
        collector = VoteCollector(redundancy)
        values = data.draw(
            st.lists(st.integers(min_value=0, max_value=3), max_size=10)
        )
        for value in values:
            collector.add(record(value))
        counts = {v: values.count(v) for v in set(values)}
        expect_decided = any(
            count >= collector.required for count in counts.values()
        )
        assert (collector.winner() is not None) == expect_decided


class TestExecutionRecord:
    def test_duration_non_negative(self):
        r = record(1)
        r.started_at, r.finished_at = 5.0, 4.0  # clock skew on the wire
        assert r.duration == 0.0

    def test_wire_roundtrip(self):
        original = record([1, "x"], provider="p9")
        original.instructions = 123
        original.started_at = 1.5
        original.finished_at = 2.5
        clone = ExecutionRecord.from_dict(original.to_dict())
        assert clone == original
        assert clone.duration == 1.0

    def test_ok_property(self):
        assert record(1).ok
        assert not record(ok=False).ok
