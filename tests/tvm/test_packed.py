"""The packed form: the one shape a program travels and is journalled in.

``packed()`` is the ``serde.pack_value`` bytes of a program's document,
``fingerprint()`` the hash of those bytes, ``from_packed`` their one
reader — which takes all of a blob and nothing but a program, and says
``VMInvalidProgram`` (and nothing else) to everything besides.
"""

import hashlib
import re

import pytest

from repro.common.errors import VMInvalidProgram
from repro.core.kernels import ALL_KERNELS
from repro.dag.patterns import DAG_KERNEL
from repro.tvm.bytecode import (
    PROGRAM_CACHE_SIZE,
    CompiledProgram,
    ProgramTable,
    checked_stamp,
)
from repro.tvm.compiler import compile_source

from tests.conftest import packed_document
from tests.tvm.test_translate_differential import generated_bytecode_programs

SOURCES = {**ALL_KERNELS, "dag_kernel": DAG_KERNEL}
SMALL = compile_source("func main(x: int) -> int { return x + 1; }")


def _holds_the_contract(program: CompiledProgram) -> bytes:
    blob = program.packed()
    assert type(blob) is bytes and program.packed() is blob  # memoised
    assert program.fingerprint() == hashlib.sha256(blob).hexdigest()[:16]
    opened = CompiledProgram.from_packed(blob)
    assert opened == program and opened.source is None
    assert opened.packed() is blob and opened.fingerprint() == program.fingerprint()
    assert CompiledProgram.from_dict(program.to_dict()).packed() == blob
    return blob


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_a_kernel_packs_the_same_on_every_compilation_and_opens_to_itself(name):
    first, second = compile_source(SOURCES[name]), compile_source(SOURCES[name])
    assert first is not second
    assert _holds_the_contract(first) == _holds_the_contract(second)


def test_every_generated_bytecode_program_opens_to_itself():
    blobs = set()
    for program, _args, _fuel in generated_bytecode_programs():
        blobs.add(_holds_the_contract(program))
    again = {program.packed() for program, _args, _fuel in generated_bytecode_programs()}
    assert blobs == again and len(blobs) > 390  # deterministic, and all but a few distinct


def test_source_is_never_packed():
    program = compile_source("func main() -> int { return 1; }  // a comment")
    assert program.source and b"comment" not in program.packed()
    assert program.packed() == compile_source("func main() -> int { return 1; }").packed()


# -- hostile blobs --------------------------------------------------------------


def _refused(blob, stamp="") -> str:
    """What a table says to ``blob`` — ``VMInvalidProgram`` (any other
    exception fails the calling test), keeping nothing — which, of an
    unstamped one, is what ``from_packed`` says."""
    table = ProgramTable()
    with pytest.raises(VMInvalidProgram) as tabled:
        table.open(blob, stamp)
    assert table.opened == {}
    if not stamp:
        with pytest.raises(VMInvalidProgram, match=re.escape(str(tabled.value))):
            CompiledProgram.from_packed(blob)
    return str(tabled.value)


@pytest.mark.parametrize(
    "blob", [None, "x", 7, 1.5, [], {}, {"version": 1}, bytearray(b"\x00"), memoryview(b"\x00")],
    ids=lambda blob: type(blob).__name__,
)
def test_what_is_not_bytes_is_no_packed_program(blob):
    assert _refused(blob) == f"malformed program: is a {type(blob).__name__}"


def test_a_truncated_blob_is_refused_at_every_length():
    blob = SMALL.packed()
    for length in range(len(blob)):
        assert _refused(blob[:length]).startswith("malformed program: ")
    assert CompiledProgram.from_packed(blob) == SMALL


def test_a_trailing_byte_is_refused():
    assert _refused(SMALL.packed() + b"\x00") == "malformed program: 1 trailing bytes"
    assert _refused(SMALL.packed() * 2).endswith("trailing bytes")


@pytest.mark.parametrize(
    "value, problem",
    [
        (None, "is a NoneType"),
        ([1, 2, 3], "is a list"),
        ("program", "is a str"),
        ({"version": 1}, "functions is missing"),
        ({"version": 1, "functions": "x", "constants": []}, "functions is a str"),
        ({**SMALL.to_dict(), "constants": 7}, "constants is a int"),
    ],
    ids=["none", "list", "str", "empty", "functions", "constants"],
)
def test_a_packed_value_that_is_no_program_is_refused(value, problem):
    assert _refused(packed_document(value)) == f"malformed program: {problem}"


def test_an_unsupported_version_and_bad_code_are_refused_as_before():
    assert "unsupported bytecode version 2" in _refused(packed_document({**SMALL.to_dict(), "version": 2}))
    document = SMALL.to_dict()
    document["functions"][0]["code"][0] = [250, -1]
    assert "unknown opcode 250" in _refused(packed_document(document))


def test_a_deeply_nested_blob_is_refused_not_a_recursion_error():
    assert _refused(b"\x07\x01" * 100_000 + b"\x00").startswith("malformed program: ")


def test_the_right_bytes_under_a_wrong_stamp_are_refused_hit_or_miss():
    other = compile_source("func main(x: int) -> int { return x + 2; }")
    wrong = f"program fingerprint mismatch: claimed {other.fingerprint()}, actual {SMALL.fingerprint()}"
    assert _refused(SMALL.packed(), other.fingerprint()) == wrong  # a miss
    table = ProgramTable()
    assert table.open(other.packed(), other.fingerprint()) == other
    assert table.open(SMALL.packed()) == SMALL  # ("" is no stamp)
    for _ in range(2):  # both programs are in the table: a hit is checked alike
        with pytest.raises(VMInvalidProgram, match=wrong):
            table.open(SMALL.packed(), other.fingerprint())
    assert list(table.opened) == [other.fingerprint(), SMALL.fingerprint()]
    assert checked_stamp(SMALL.packed(), SMALL.fingerprint()) == SMALL.fingerprint()


# -- the table ---------------------------------------------------------------------


def test_a_table_opens_each_program_once_and_forgets_the_least_recently_used():
    programs = [
        compile_source(f"func main(x: int) -> int {{ return x + {index}; }}")
        for index in range(10 * PROGRAM_CACHE_SIZE)
    ]
    table = ProgramTable()
    first = table.open(programs[0].packed(), programs[0].fingerprint())
    for program in programs:
        opened = table.open(program.packed(), program.fingerprint())
        assert opened == program
        assert table.open(program.packed()) is opened  # a hit: the same object, stamped or not
        assert table.open(programs[0].packed()) is first  # kept by being used
        assert len(table.opened) <= PROGRAM_CACHE_SIZE
    assert len(table.opened) == PROGRAM_CACHE_SIZE
    assert programs[1].fingerprint() not in table.opened  # the oldest unused went first
    assert list(table.opened)[-2:] == [programs[-1].fingerprint(), programs[0].fingerprint()]
