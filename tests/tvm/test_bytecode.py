"""Bytecode container: serialisation, verification, fingerprints."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import VMInvalidProgram
from repro.tvm.builtins import BUILTIN_ORDER
from repro.tvm.bytecode import (
    BYTECODE_VERSION,
    CompiledProgram,
    FunctionCode,
    Instruction,
)
from repro.tvm.compiler import compile_source
from repro.tvm.opcodes import Op
from repro.tvm.vm import execute

SOURCES = [
    "func main() -> int { return 1; }",
    "func main(n: int) -> int { if (n > 0) { return n; } return -n; }",
    """
    func fib(n: int) -> int {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    func main(n: int) -> int { return fib(n); }
    """,
    'func main() -> string { return "hi" + str(1.5); }',
]


@pytest.mark.parametrize("source", SOURCES)
def test_dict_roundtrip_preserves_behaviour(source):
    program = compile_source(source)
    clone = CompiledProgram.from_dict(json.loads(json.dumps(program.to_dict())))
    args = [5] if program.function("main").n_params else []
    assert execute(clone, "main", args) == execute(program, "main", args)


@pytest.mark.parametrize("source", SOURCES)
def test_fingerprint_stable_across_roundtrip(source):
    program = compile_source(source)
    clone = CompiledProgram.from_dict(program.to_dict())
    assert program.fingerprint() == clone.fingerprint()


def test_fingerprint_differs_for_different_programs():
    a = compile_source("func main() -> int { return 1; }")
    b = compile_source("func main() -> int { return 2; }")
    assert a.fingerprint() != b.fingerprint()


def test_fingerprint_ignores_source_text():
    a = compile_source("func main() -> int { return 1; }")
    b = compile_source("func main() -> int { return 1; }  // comment")
    assert a.fingerprint() == b.fingerprint()


def test_version_embedded_and_checked():
    program = compile_source(SOURCES[0])
    data = program.to_dict()
    assert data["version"] == BYTECODE_VERSION
    data["version"] = 999
    with pytest.raises(VMInvalidProgram):
        CompiledProgram.from_dict(data)


def test_source_is_not_in_the_document():
    program = compile_source(SOURCES[0])
    assert program.source is not None
    assert "source" not in program.to_dict()


def _function(code, n_params=0, n_locals=0, returns_value=True, name="main"):
    return FunctionCode(
        name=name,
        n_params=n_params,
        n_locals=n_locals,
        returns_value=returns_value,
        code=code,
    )


def _program(functions, constants=None):
    return CompiledProgram(functions=functions, constants=constants or [])


RET = [Instruction(Op.PUSH_NONE), Instruction(Op.RET)]


def _decode(pair):
    """Open a program document whose one instruction is ``pair``."""
    document = _program([_function(RET)]).to_dict()
    document["functions"][0]["code"] = [pair]
    return CompiledProgram.from_dict(document)


class TestVerification:
    def test_empty_program_rejected(self):
        with pytest.raises(VMInvalidProgram):
            _program([]).verify()

    def test_empty_body_rejected(self):
        with pytest.raises(VMInvalidProgram):
            _program([_function([])]).verify()

    def test_duplicate_function_names_rejected(self):
        with pytest.raises(VMInvalidProgram):
            _program([_function(RET), _function(RET)]).verify()

    def test_missing_terminal_ret_rejected(self):
        with pytest.raises(VMInvalidProgram):
            _program([_function([Instruction(Op.PUSH_NONE)])]).verify()

    def test_constant_index_out_of_range(self):
        code = [Instruction(Op.PUSH_CONST, 3), Instruction(Op.RET)]
        with pytest.raises(VMInvalidProgram):
            _program([_function(code)], constants=[1]).verify()

    def test_slot_out_of_range(self):
        code = [Instruction(Op.LOAD, 2), Instruction(Op.RET)]
        with pytest.raises(VMInvalidProgram):
            _program([_function(code, n_locals=1)]).verify()

    def test_jump_target_out_of_range(self):
        code = [Instruction(Op.JUMP, 99)] + RET
        with pytest.raises(VMInvalidProgram):
            _program([_function(code)]).verify()

    def test_call_index_out_of_range(self):
        code = [Instruction(Op.CALL, 5), Instruction(Op.RET)]
        with pytest.raises(VMInvalidProgram):
            _program([_function(code)]).verify()

    def test_builtin_index_out_of_range(self):
        code = [Instruction(Op.CALL_BUILTIN, 8 * 1000), Instruction(Op.RET)]
        with pytest.raises(VMInvalidProgram):
            _program([_function(code)]).verify()

    def test_builtin_bad_arity_rejected(self):
        # sqrt is unary; encode arity 3.
        operand = BUILTIN_ORDER.index("sqrt") * 8 + 3
        code = [Instruction(Op.CALL_BUILTIN, operand), Instruction(Op.RET)]
        with pytest.raises(VMInvalidProgram):
            _program([_function(code)]).verify()

    def test_operand_on_no_operand_op_rejected(self):
        code = [Instruction(Op.POP, 1)] + RET
        with pytest.raises(VMInvalidProgram):
            _program([_function(code)]).verify()

    def test_missing_operand_rejected(self):
        code = [Instruction(Op.PUSH_CONST, None)] + RET
        with pytest.raises(VMInvalidProgram):
            _program([_function(code)]).verify()

    def test_inconsistent_locals_rejected(self):
        with pytest.raises(VMInvalidProgram):
            _program([_function(RET, n_params=3, n_locals=1)]).verify()

    def test_pop_of_an_empty_stack_rejected(self):
        # Three instructions that used to wedge a provider slot: the POP
        # underflows the portable VM's list, which raised IndexError.
        code = [Instruction(Op.POP), Instruction(Op.PUSH_CONST, 0), Instruction(Op.RET)]
        with pytest.raises(VMInvalidProgram, match=r"main@0: POP pops 1 with 0"):
            _program([_function(code)], constants=[1]).verify()

    def test_ret_on_an_empty_stack_rejected(self):
        with pytest.raises(VMInvalidProgram, match=r"main@0: RET pops 1 with 0"):
            _program([_function([Instruction(Op.RET)])]).verify()

    def test_depth_mismatched_join_rejected(self):
        # Position 4 is reached with one entry (jumping from 1) or two
        # (falling through 3).
        code = [
            Instruction(Op.LOAD, 0),
            Instruction(Op.JUMP_IF_FALSE, 3),
            Instruction(Op.PUSH_NONE),
            Instruction(Op.PUSH_NONE),
            Instruction(Op.RET),
        ]
        with pytest.raises(VMInvalidProgram, match=r"main@3: .*differs at a join"):
            _program([_function(code, n_params=1, n_locals=1)]).verify()

    def test_callee_may_not_reach_into_its_callers_operands(self):
        # helper pops two with one argument: depths count from its own entry.
        helper = _function(
            [Instruction(Op.LOAD, 0), Instruction(Op.ADD), Instruction(Op.RET)],
            n_params=1, n_locals=1, name="helper",
        )
        main = _function(
            [
                Instruction(Op.PUSH_CONST, 0),
                Instruction(Op.PUSH_CONST, 0),
                Instruction(Op.CALL, 0),
                Instruction(Op.RET),
            ]
        )
        with pytest.raises(VMInvalidProgram, match=r"helper@1: ADD pops 2 with 1"):
            _program([helper, main], constants=[1]).verify()

    def test_variable_pops_follow_the_operand(self):
        # BUILD_ARRAY 2, a binary builtin and a unary CALL with too few.
        callee = _function([Instruction(Op.LOAD, 0), Instruction(Op.RET)], 1, 1, name="id")
        for short in (
            Instruction(Op.BUILD_ARRAY, 2),
            Instruction(Op.CALL_BUILTIN, BUILTIN_ORDER.index("pow") * 8 + 2),
        ):
            code = [Instruction(Op.PUSH_CONST, 0), short, Instruction(Op.RET)]
            with pytest.raises(VMInvalidProgram, match=r"main@1: .* pops 2 with 1"):
                _program([callee, _function(code)], constants=[1]).verify()
        code = [Instruction(Op.CALL, 0), Instruction(Op.RET)]
        with pytest.raises(VMInvalidProgram, match=r"main@0: CALL pops 1 with 0"):
            _program([callee, _function(code)], constants=[1]).verify()

    def test_unreachable_code_is_not_held_to_stack_discipline(self):
        # Nothing reaches the ADD: it can never run, so it is not a defect.
        code = RET + [Instruction(Op.ADD), Instruction(Op.RET)]
        _program([_function(code)]).verify()

    def test_every_opcode_has_a_stack_effect(self):
        from repro.tvm.opcodes import STACK_EFFECT

        variable = {Op.CALL, Op.CALL_BUILTIN, Op.BUILD_ARRAY}
        assert set(STACK_EFFECT) | variable == set(Op)
        assert not set(STACK_EFFECT) & variable

    def test_unknown_opcode_rejected_at_decode(self):
        with pytest.raises(VMInvalidProgram):
            _decode([250, -1])

    def test_malformed_instruction_pair_rejected(self):
        with pytest.raises(VMInvalidProgram):
            _decode([1, 2, 3])


@given(st.integers(min_value=0, max_value=30))
def test_compiled_kernels_always_verify(n):
    # Property: whatever the compiler emits passes its own verifier.
    source = f"""
    func main() -> int {{
        var total: int = 0;
        for (var i: int = 0; i < {n}; i = i + 1) {{
            if (i % 3 == 0) {{ total = total + i; }}
        }}
        return total;
    }}
    """
    program = compile_source(source)
    program.verify()
    result, _ = execute(program)
    assert result == sum(i for i in range(n) if i % 3 == 0)


def test_malformed_program_dict_rejected():
    with pytest.raises(VMInvalidProgram):
        CompiledProgram.from_dict({"version": BYTECODE_VERSION})
