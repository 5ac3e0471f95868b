"""Failure models: probabilities, determinism, corruption properties."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.provider.failure import (
    ExecutionFailureModel,
    FaultKind,
    corrupt_value,
)
from repro.tvm.vm import is_tasklet_value


def test_reliable_by_default():
    model = ExecutionFailureModel()
    assert model.drop_probability == model.corrupt_probability == 0.0
    assert all(model.draw() is FaultKind.NONE for _ in range(100))


def test_certain_drop():
    model = ExecutionFailureModel(drop_probability=1.0, rng=random.Random(0))
    assert all(model.draw() is FaultKind.DROP for _ in range(20))


def test_certain_corruption():
    model = ExecutionFailureModel(corrupt_probability=1.0, rng=random.Random(0))
    assert all(model.draw() is FaultKind.CORRUPT for _ in range(20))


def test_drop_wins_over_corrupt():
    model = ExecutionFailureModel(
        drop_probability=1.0, corrupt_probability=1.0, rng=random.Random(0)
    )
    assert model.draw() is FaultKind.DROP


def test_probability_validation():
    with pytest.raises(ValueError):
        ExecutionFailureModel(drop_probability=1.5)
    with pytest.raises(ValueError):
        ExecutionFailureModel(corrupt_probability=-0.1)


def test_empirical_rate_close_to_probability():
    model = ExecutionFailureModel(drop_probability=0.3, rng=random.Random(42))
    drops = sum(1 for _ in range(5000) if model.draw() is FaultKind.DROP)
    assert 0.25 < drops / 5000 < 0.35


def test_seeded_models_are_reproducible():
    a = ExecutionFailureModel(drop_probability=0.5, rng=random.Random(7))
    b = ExecutionFailureModel(drop_probability=0.5, rng=random.Random(7))
    assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]


corruptible = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.text(max_size=20),
    st.lists(st.integers(), max_size=5),
)


@given(corruptible)
def test_corruption_always_differs(value):
    corrupted = corrupt_value(value, random.Random(1))
    assert corrupted != value


@given(corruptible)
def test_corruption_stays_a_valid_tasklet_value(value):
    corrupted = corrupt_value(value, random.Random(2))
    assert is_tasklet_value(corrupted)


def test_independent_corruptions_disagree():
    # The property majority voting relies on: two byzantine providers do
    # not corrupt to the same value.
    first = corrupt_value(100, random.Random(1))
    second = corrupt_value(100, random.Random(2))
    assert first != second
