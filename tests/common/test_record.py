"""The record grammar: every declared record, every field, the hostile menu.

What a message carries (a Tasklet, its QoC, its program, a workflow, an
execution record) and what the journal holds (four line kinds, the
workflow outcome) are declared once, with ``@record``; one compiled reader
opens them all.  These tests hold the *registry* to that contract, so a
record added later is covered by being declared — and fails
``test_every_declared_record_has_a_sample`` until it has a sample here.
"""

import dataclasses
import enum
import re
import typing
from pathlib import Path

import pytest

from repro.broker.journal import (
    Admitted,
    CompletionRecord,
    WorkflowAdmitted,
    WorkflowCompleted,
    WorkflowOutcome,
)
from repro.common.errors import RecordError, TaskletError
from repro.common.ids import TaskletId
from repro.common.record import RECORD_TYPES, Record
from repro.core.qoc import QoC
from repro.core.results import ExecutionRecord, ExecutionStatus
from repro.core.tasklet import Tasklet
from repro.dag.spec import WorkflowBuilder, from_node
from repro.tvm.bytecode import CompiledProgram
from repro.tvm.compiler import compile_source

from tests.conftest import packed_document
from tests.transport.test_messages import HOSTILE_MENU, _holds

PROGRAM = compile_source(
    "func twice(x: int) -> int { return x * 2; } func main(x: int) -> int { return twice(x) + 1; }"
)
TASKLET = Tasklet(
    TaskletId("tl-1"), PROGRAM, "main", [3], qoc=QoC.reliable(2, 3), seed=7, fuel=999, job_id="j1"
)


def _workflow():
    build = WorkflowBuilder("wf-1")
    first = build.node(PROGRAM, args=[1], node_id="a")
    build.node(PROGRAM, args=[from_node(first)], node_id="b", max_attempts=2, after=[first])
    return build.build()


OUTCOME = WorkflowOutcome(
    "wf-1", False, "c1", {}, "node 'b' failed", "b", ["c"], nodes_total=3, nodes_memoized=1
)

#: One full wire dict per declared record — what ``to_dict`` writes.
SAMPLES = {
    "qoc": QoC(redundancy=3, max_attempts=2, speed=True, deadline_s=1.5).to_dict(),
    "function": PROGRAM.functions[0].to_dict(),
    "program": PROGRAM.to_dict(),
    "tasklet": TASKLET.to_dict(),
    "node": _workflow().nodes[1].to_dict(),
    "workflow": _workflow().to_dict(),
    "execution": ExecutionRecord(
        "ex-1", "tl-1", "p1", ExecutionStatus.VM_ERROR, None, "boom", 12, 1.0, 2.5
    ).to_dict(),
    "complete": CompletionRecord(
        "c1/tl-1", "tl-1", "c1", True, packed_document([1, 2]), None, 2, 0.5, "m1", 9.0, "b1"
    ).to_dict(),
    "wf_outcome": OUTCOME.to_dict(),
    "admitted": Admitted("c1/tl-1", "c1", 1.5, TASKLET.to_dict(), "b2", "c1/wf-1").to_dict(),
    "wf_admitted": WorkflowAdmitted("c1/wf-1", "c1", 2.0, _workflow().to_dict()).to_dict(),
    "wf_complete": WorkflowCompleted("c1/wf-1", 3.0, OUTCOME).to_dict(),
}


def _wire_fields(cls) -> dict:
    """Wire field name -> annotation, as the declaration gives them."""
    hints = typing.get_type_hints(cls)
    return {name: hints[name] for name, *_ in cls._FIELDS}


def _wire_holds(value, annotation) -> bool:
    """Whether ``value`` has the type the *wire form* of a field annotated
    ``annotation`` must have — written out apart from the compiled table,
    as the oracle it is checked by."""
    annotation = getattr(annotation, "__supertype__", annotation)
    if annotation == (list[typing.Any] | bytes):  # (a tasklet's args: they travel packed)
        return type(value) is bytes
    if typing.get_origin(annotation) is typing.Union or isinstance(annotation, type(int | None)):
        return any(_wire_holds(value, part) for part in typing.get_args(annotation))
    if annotation is CompiledProgram:  # (a tasklet's: it travels packed)
        return type(value) is bytes
    if isinstance(annotation, type) and issubclass(annotation, Record):
        return type(value) is dict
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        return type(value) is str
    return _holds(value, annotation)


def _open(cls, data):
    """``cls.from_dict(data)``, or the ``TaskletError`` it refused with
    (any other exception fails the calling test)."""
    try:
        return cls.from_dict(data)
    except TaskletError as exc:
        return exc


def test_every_declared_record_has_a_sample():
    assert set(SAMPLES) == set(RECORD_TYPES)
    assert all(cls.WHAT == name for name, cls in RECORD_TYPES.items())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_record_writes_what_it_read(name):
    cls, sample = RECORD_TYPES[name], SAMPLES[name]
    opened = cls.from_dict(sample)
    assert type(opened) is cls
    assert opened.to_dict() == sample
    assert cls.from_dict(opened.to_dict()) == opened
    # Keys the declaration does not list are dropped, not an error.
    assert cls.from_dict({**sample, "from_the_future": {"nested": [1]}}) == opened


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_every_field_reads_at_its_declared_type_or_raises_the_one_error(name):
    """Every field × the hostile menu: a value of another type than the
    declaration gives is refused with the record's one ``ERROR``; a value
    of the declared type reads (and is what the record then holds), or is
    refused by a further rule or by the record's own validation — always a
    ``TaskletError``, never a ``KeyError`` / ``TypeError`` / ``ValueError``
    / ``AttributeError``."""
    cls, sample = RECORD_TYPES[name], SAMPLES[name]
    for field, annotation in _wire_fields(cls).items():
        for value in HOSTILE_MENU:
            got = _open(cls, {**sample, field: value})
            if not _wire_holds(value, annotation):
                assert type(got) is cls.ERROR, (field, value, got)
                assert f"malformed {name}: {field} is a {type(value).__name__}" in str(got)
            elif isinstance(got, cls):
                kept = getattr(got, field)
                if not isinstance(kept, (Record, enum.Enum)) and kept != []:
                    assert kept == value and type(kept) is type(value), (field, value)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_missing_field_defaults_or_is_refused(name):
    cls, sample = RECORD_TYPES[name], SAMPLES[name]
    defaults = {
        f.name: f.default if f.default is not dataclasses.MISSING else f.default_factory()
        for f in dataclasses.fields(cls)
        if not (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
    }
    for field in _wire_fields(cls):
        got = _open(cls, {k: v for k, v in sample.items() if k != field})
        if field in defaults:
            if isinstance(got, cls):  # (else its own validation missed the value)
                assert getattr(got, field) == defaults[field], field
            else:
                assert type(got) is not cls.ERROR or "is missing" not in str(got)
        else:
            assert type(got) is cls.ERROR and f"{field} is missing" in str(got), field


@pytest.mark.parametrize("name", sorted(SAMPLES))
@pytest.mark.parametrize("value", [v for v in HOSTILE_MENU if v != {}] + [[{}]], ids=repr)
def test_what_is_not_an_object_is_not_a_record(name, value):
    with pytest.raises(RECORD_TYPES[name].ERROR):
        RECORD_TYPES[name].from_dict(value)


# -- one level down: what the nested readers refuse, by name --------------------


@pytest.mark.parametrize(
    "damage, reason",
    [
        ({"qoc": {"speed": "no"}}, "qoc holds a malformed qoc: speed is a str"),
        ({"qoc": {"redundancy": 2.9}}, "qoc holds a malformed qoc: redundancy is a float"),
        ({"fuel": True}, "fuel is a bool"),
        ({"seed": "7"}, "seed is a str"),
        ({"entry": None}, "entry is a NoneType"),
        ({"program_fingerprint": 7}, "program_fingerprint is a int"),
        (
            {"program": packed_document({"version": 1}), "program_fingerprint": ""},
            "malformed program: functions is missing",
        ),
        ({"program": {"version": 1}}, "program is a dict"),  # (as builds before the packed form sent it)
        ({"program": PROGRAM.packed() + b"\0"}, "program fingerprint mismatch: claimed .*, actual "),
        (
            {"program": PROGRAM.packed() + b"\0", "program_fingerprint": ""},
            "malformed program: 1 trailing bytes",
        ),
    ],
    ids=[
        "qoc.speed", "qoc.redundancy", "fuel", "seed", "entry", "fingerprint", "program",
        "program-unpacked", "program-mis-stamped", "program-trailing-byte",
    ],
)
def test_a_tasklet_is_read_strictly(damage, reason):
    """Each of these used to be coerced: ``"no"`` was ``True``, ``2.9``
    was ``2``, ``True`` one unit of fuel, ``"7"`` seven, ``None`` the
    entry ``"None"``."""
    with pytest.raises(RecordError, match=f"malformed tasklet: {reason}"):
        Tasklet.from_dict({**SAMPLES["tasklet"], **damage})


def test_an_instruction_pair_is_two_ints_and_a_known_opcode():
    function = SAMPLES["function"]
    for code in ([[1]], [[1, 2, 3]], ["ab"], [[True, 0]], [[1, None]], [[1.0, 0]], [[250, -1]]):
        got = _open(RECORD_TYPES["function"], {**function, "code": code})
        assert type(got) is RECORD_TYPES["function"].ERROR, code
        assert "malformed function: code holds" in str(got)


def test_a_stamped_fingerprint_survives_the_round_trip_unhashed():
    """The stamp is the sender's: a broker re-sends (forwards, journals)
    what it was sent — stamp and bytes, the very object — having checked
    the one against the other; no stamp stays no stamp, and a stamp that
    is not the hash of the bytes it travels with is refused."""
    wire = SAMPLES["tasklet"]
    opened = Tasklet.from_dict(wire)
    assert opened.program_fingerprint == PROGRAM.fingerprint()
    assert opened.to_dict() == wire and opened.to_dict()["program"] is wire["program"]
    unstamped = Tasklet.from_dict({**wire, "program_fingerprint": ""})
    assert unstamped.program_fingerprint == "" and unstamped.program == PROGRAM
    with pytest.raises(RecordError, match="claimed as-stamped, actual " + PROGRAM.fingerprint()):
        Tasklet.from_dict({**wire, "program_fingerprint": "as-stamped"})
    assert TASKLET.program_fingerprint == ""  # a local one is stamped when written
    assert TASKLET.to_dict()["program_fingerprint"] == PROGRAM.fingerprint()


# -- docs/PROTOCOL.md "Record table" is the registry, written out ---------------


def _documented_records():
    text = (Path(__file__).parents[2] / "docs" / "PROTOCOL.md").read_text()
    section = text.split("### Record table", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            name, fields, error, _opened = cells
            rows[name.strip("`")] = (
                re.findall(r"`(\w+)`: ", fields),
                re.findall(r"`(\w+)`: [^,]* = ", fields),
                error.strip("`"),
            )
    return rows


def test_protocol_record_table_lists_exactly_the_registry():
    documented = _documented_records()
    assert set(documented) == set(RECORD_TYPES)
    for name, cls in RECORD_TYPES.items():
        fields, optional, error = documented[name]
        assert fields == [field for field, *_ in cls._FIELDS], name
        assert optional == [field for field, required, *_ in cls._FIELDS if not required], name
        assert error == cls.ERROR.__name__, name
