"""The Tasklet model: validation and wire format."""

import enum

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import TaskletError
from repro.common.ids import TaskletId
from repro.common.serde import opened
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.tvm.compiler import compile_source
from repro.tvm.vm import is_tasklet_value

PROGRAM = compile_source("func main(a: int, b: int) -> int { return a + b; }")


def make(**overrides):
    fields = {
        "tasklet_id": TaskletId("tl-1"),
        "program": PROGRAM,
        "entry": "main",
        "args": [1, 2],
    }
    fields.update(overrides)
    return Tasklet(**fields)


def test_valid_tasklet_constructs():
    tasklet = make()
    assert tasklet.qoc == QoC()
    assert tasklet.seed == 0


def test_unknown_entry_rejected():
    with pytest.raises(TaskletError) as info:
        make(entry="nosuch")
    assert "available: main" in str(info.value)


def test_wrong_arity_rejected():
    with pytest.raises(TaskletError):
        make(args=[1])


def test_invalid_argument_value_rejected():
    with pytest.raises(TaskletError):
        make(args=[1, {"not": "a tasklet value"}])


def test_nested_list_arguments_accepted():
    program = compile_source("func main(xs: array) -> int { return len(xs); }")
    tasklet = make(program=program, args=[[1, [2.5, "x"], True]])
    assert tasklet.args[0][1] == [2.5, "x"]


class Level(enum.IntEnum):
    LOW = 1


def _reference_is_tasklet_value(value):
    """The check as it was: ``isinstance``, one Python step per element."""
    if isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, list):
        return all(_reference_is_tasklet_value(item) for item in value)
    return False


@given(
    st.recursive(
        st.sampled_from([0, 2**70, 1.5, float("nan"), True, "s", Level.LOW, None, b"", (1,)])
        | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
        lambda children: st.lists(children, max_size=4),
        max_leaves=10,
    )
)
def test_value_check_agrees_with_the_per_element_form(value):
    """The type-set pass answers exactly as the element-by-element walk
    it replaced: scalar subclasses in, everything else out, at any depth."""
    assert is_tasklet_value(value) == _reference_is_tasklet_value(value)


def test_non_positive_fuel_rejected():
    with pytest.raises(TaskletError):
        make(fuel=0)


def test_wire_roundtrip():
    tasklet = make(qoc=QoC.reliable(redundancy=2), seed=99, fuel=1234)
    clone = Tasklet.from_dict(tasklet.to_dict())
    assert clone.tasklet_id == tasklet.tasklet_id
    assert clone.entry == tasklet.entry
    assert opened(clone.args) == tasklet.args  # (off the wire they stay packed)
    assert clone.to_dict()["args"] is clone.args
    assert clone.qoc == tasklet.qoc
    assert clone.seed == 99
    assert clone.fuel == 1234
    assert clone.program.fingerprint() == tasklet.program.fingerprint()


def test_to_dict_carries_program_fingerprint():
    data = make().to_dict()
    assert data["program_fingerprint"] == PROGRAM.fingerprint()


def test_from_dict_validates():
    data = make().to_dict()
    data["entry"] = "nosuch"
    with pytest.raises(TaskletError):
        Tasklet.from_dict(data)
