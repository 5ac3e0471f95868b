"""QoC goal algebra: validation, classification, wire format."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import QoCUnsatisfiable
from repro.core.qoc import MAX_REDUNDANCY, QoC


def test_default_is_best_effort():
    qoc = QoC()
    assert qoc.redundancy == 1
    assert qoc.max_attempts == 1


def test_any_goal_clears_best_effort():
    assert QoC(speed=True) != QoC()
    assert QoC(redundancy=2) != QoC()
    assert QoC(max_attempts=2) != QoC()
    assert QoC(deadline_s=1.0) != QoC()


class TestValidation:
    def test_contradictory_locality_rejected(self):
        with pytest.raises(QoCUnsatisfiable):
            QoC(local_only=True, remote_only=True)

    def test_local_redundancy_rejected(self):
        with pytest.raises(QoCUnsatisfiable):
            QoC(local_only=True, redundancy=2)

    def test_redundancy_bounds(self):
        with pytest.raises(QoCUnsatisfiable):
            QoC(redundancy=0)
        with pytest.raises(QoCUnsatisfiable):
            QoC(redundancy=MAX_REDUNDANCY + 1)
        QoC(redundancy=MAX_REDUNDANCY)  # boundary is legal

    def test_attempts_bounds(self):
        with pytest.raises(QoCUnsatisfiable):
            QoC(max_attempts=0)

    def test_deadline_must_be_positive(self):
        with pytest.raises(QoCUnsatisfiable):
            QoC(deadline_s=0.0)
        with pytest.raises(QoCUnsatisfiable):
            QoC(deadline_s=-1.0)

    def test_cost_ceiling_non_negative(self):
        with pytest.raises(QoCUnsatisfiable):
            QoC(cost_ceiling=-0.5)
        QoC(cost_ceiling=0.0)


class TestConstructors:
    def test_reliable(self):
        qoc = QoC.reliable(redundancy=3, max_attempts=4)
        assert qoc.redundancy == 3
        assert qoc.max_attempts == 4

    def test_fast(self):
        assert QoC.fast().speed

    def test_private(self):
        qoc = QoC.private()
        assert qoc.local_only
        assert not qoc.remote_only


qoc_instances = st.builds(
    QoC,
    redundancy=st.integers(min_value=1, max_value=MAX_REDUNDANCY),
    max_attempts=st.integers(min_value=1, max_value=10),
    speed=st.booleans(),
    remote_only=st.booleans(),
    deadline_s=st.none() | st.floats(min_value=0.1, max_value=100),
    cost_ceiling=st.none() | st.floats(min_value=0, max_value=100),
)


@given(qoc_instances)
def test_wire_roundtrip(qoc):
    assert QoC.from_dict(qoc.to_dict()) == qoc


def test_from_dict_defaults_missing_fields():
    assert QoC.from_dict({}) == QoC()


def test_immutability():
    qoc = QoC()
    with pytest.raises(AttributeError):
        qoc.redundancy = 5
