"""Assembler: disassemble/assemble round-trips and error handling."""

import pytest

from repro.core import kernels
from repro.tvm.compiler import compile_source
from repro.tvm.disassembler import disassemble
from repro.tvm.vm import execute

from tests.tvm.assembler import AssemblerError, assemble

ROUNDTRIP_SOURCES = [
    "func main() -> int { return 41 + 1; }",
    kernels.FIBONACCI,
    kernels.MANDELBROT_ROW,
    kernels.WORD_HISTOGRAM,
    'func main(flag: bool) -> string { if (flag) { return "y"; } return "n"; }',
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_disassemble_assemble_roundtrip(source):
    original = compile_source(source)
    rebuilt = assemble(disassemble(original))
    assert rebuilt.fingerprint() == original.fingerprint()


def test_rebuilt_program_executes_identically():
    original = compile_source(kernels.PRIME_COUNT)
    rebuilt = assemble(disassemble(original))
    assert execute(rebuilt, "main", [400]) == execute(original, "main", [400])


def test_hand_written_program():
    listing = """
    .constants 2
      k0 = 2
      k1 = 40
    .func main params=0 locals=0 returns=value
        0  PUSH_CONST 0
        1  PUSH_CONST 1
        2  ADD
        3  RET
    .end
    """
    program = assemble(listing)
    assert execute(program, "main")[0] == 42


def test_comments_and_blank_lines_ignored():
    listing = """
    ; full-line comment
    .func main params=0 locals=0 returns=void

        0  PUSH_NONE   ; inline comment
        1  RET
    .end
    """
    program = assemble(listing)
    assert execute(program, "main")[0] is None


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(AssemblerError) as info:
            assemble(".func f params=0 locals=0 returns=void\n 0 BOGUS\n.end")
        assert info.value.line_number == 2

    def test_out_of_order_instruction_index(self):
        with pytest.raises(AssemblerError):
            assemble(
                ".func f params=0 locals=0 returns=void\n"
                " 0 PUSH_NONE\n 5 RET\n.end"
            )

    def test_out_of_order_constants(self):
        with pytest.raises(AssemblerError):
            assemble(".constants 2\n k1 = 5\n")

    def test_missing_end(self):
        with pytest.raises(AssemblerError):
            assemble(".func f params=0 locals=0 returns=void\n 0 PUSH_NONE\n 1 RET")

    def test_nested_func(self):
        with pytest.raises(AssemblerError):
            assemble(
                ".func f params=0 locals=0 returns=void\n"
                ".func g params=0 locals=0 returns=void\n.end\n.end"
            )

    def test_bad_operand(self):
        with pytest.raises(AssemblerError):
            assemble(".func f params=0 locals=0 returns=void\n 0 JUMP xyz\n.end")

    def test_non_scalar_constant(self):
        with pytest.raises(AssemblerError):
            assemble(".constants 1\n k0 = [1, 2]\n")

    def test_result_is_verified(self):
        # Structurally valid text, semantically broken bytecode: jump out
        # of range is caught by the verifier the assembler runs.
        from repro.common.errors import VMInvalidProgram

        with pytest.raises(VMInvalidProgram):
            assemble(
                ".func f params=0 locals=0 returns=void\n"
                " 0 JUMP 99\n 1 PUSH_NONE\n 2 RET\n.end"
            )

    def test_stray_line_outside_function(self):
        with pytest.raises(AssemblerError):
            assemble("0 PUSH_NONE")
