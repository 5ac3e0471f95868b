"""VM defensive paths only hand-written bytecode can reach.

The compiler never emits these shapes (runaway stacks, uninitialised
reads, DUP gymnastics), but a provider executes *strangers'* bytecode:
anything the verifier admits must fail safely inside the VM rather than
corrupt it.  Programs are built through the assembler.
"""

import pytest

from repro.common.errors import VMError, VMStackOverflow
from repro.tvm.vm import TVM, VMLimits, execute

from tests.tvm.assembler import assemble


def run_listing(listing: str, args=None, limits=None, seed=0):
    program = assemble(listing)
    return execute(program, "main", args or [], limits=limits, seed=seed)[0]


def test_dup_and_pop():
    listing = """
    .constants 1
      k0 = 21
    .func main params=0 locals=0 returns=value
        0  PUSH_CONST 0
        1  DUP
        2  ADD
        3  RET
    .end
    """
    assert run_listing(listing) == 42


def test_read_of_uninitialised_local_is_caught():
    listing = """
    .func main params=0 locals=1 returns=value
        0  LOAD 0
        1  RET
    .end
    """
    with pytest.raises(VMError) as info:
        run_listing(listing)
    assert "uninitialised" in str(info.value)


def test_unbounded_push_loop_hits_stack_limit():
    # A loop that pushes without popping no longer verifies (the depth at
    # its head would differ); the shape that still grows the operand stack
    # without bound is recursion with an operand pending in every frame.
    # With call depth out of the way, the operand-stack limit must fire.
    listing = """
    .constants 1
      k0 = 1
    .func main params=0 locals=0 returns=value
        0  PUSH_CONST 0
        1  CALL 0
        2  ADD
        3  RET
    .end
    """
    limits = VMLimits(fuel=100_000, max_stack=512, max_call_depth=10_000)
    with pytest.raises(VMStackOverflow, match="operand stack"):
        run_listing(listing, limits=limits)


def test_stack_overshoot_is_bounded_by_checkpoint_window():
    # Straight-line pushes are only caught at a checkpoint: the guard may
    # lag by at most the checkpoint period (2048).
    pushes = "\n".join(f"        {i}  PUSH_CONST 0" for i in range(5000))
    listing = f"""
    .constants 1
      k0 = 1
    .func main params=0 locals=0 returns=value
{pushes}
        5000  RET
    .end
    """
    program = assemble(listing)
    machine = TVM(program, limits=VMLimits(fuel=100_000, max_stack=64))
    with pytest.raises(VMStackOverflow):
        machine.run("main")
    assert machine.stats.max_stack_depth <= 64 + 2048 + 1


def test_store_pops_what_load_pushed():
    listing = """
    .constants 2
      k0 = 5
      k1 = 3
    .func main params=0 locals=2 returns=value
        0  PUSH_CONST 0
        1  STORE 0
        2  PUSH_CONST 1
        3  STORE 1
        4  LOAD 0
        5  LOAD 1
        6  MUL
        7  RET
    .end
    """
    assert run_listing(listing) == 15


def test_conditional_jump_consumes_condition():
    listing = """
    .constants 3
      k0 = True
      k1 = 1
      k2 = 2
    .func main params=0 locals=0 returns=value
        0  PUSH_CONST 0
        1  JUMP_IF_TRUE 4
        2  PUSH_CONST 2
        3  RET
       L4  PUSH_CONST 1
        5  RET
    .end
    """
    assert run_listing(listing) == 1


def test_build_empty_array():
    listing = """
    .func main params=0 locals=0 returns=value
        0  BUILD_ARRAY 0
        1  RET
    .end
    """
    assert run_listing(listing) == []


def test_backward_jump_as_terminal_instruction_is_legal():
    # The verifier accepts a body ending in a backward jump (a loop with
    # an in-body RET); the VM must honour it.
    listing = """
    .constants 2
      k0 = True
      k1 = 7
    .func main params=0 locals=0 returns=value
       L0  PUSH_CONST 0
        1  JUMP_IF_FALSE 4
        2  PUSH_CONST 1
        3  RET
       L4  JUMP 0
    .end
    """
    assert run_listing(listing) == 7


def test_call_with_hand_built_frames():
    listing = """
    .constants 2
      k0 = 4
      k1 = 1
    .func double params=1 locals=1 returns=value
        0  LOAD 0
        1  DUP
        2  ADD
        3  RET
    .end
    .func main params=0 locals=0 returns=value
        0  PUSH_CONST 0
        1  CALL 0
        2  PUSH_CONST 1
        3  ADD
        4  RET
    .end
    """
    assert run_listing(listing) == 9
