"""Portable bytecode container for compiled Tasklet programs.

A :class:`CompiledProgram` is the unit shipped from consumers to providers:
a constant pool plus a list of functions, each with its instruction list.
It is a declared record (``program`` holding ``function`` records,
:mod:`repro.common.record`) whose reader raises :class:`VMInvalidProgram`,
and it can be structurally verified before execution so that a malicious
or corrupted program fails fast instead of crashing the VM mid-run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..common.errors import CodecError, VMInvalidProgram
from ..common.record import Record, coded, record
from ..common.serde import opened, packed
from .builtins import BUILTIN_ORDER, BUILTINS
from .opcodes import JUMP_OPS, NO_OPERAND_OPS, STACK_EFFECT, Op

#: Bytecode format version, embedded in every serialised program.
BYTECODE_VERSION = 1
#: Distinct opened programs a node keeps (broker table, provider executor).
PROGRAM_CACHE_SIZE = 64

_OP_OF = {int(op): op for op in Op}


@dataclass(frozen=True)
class Instruction:
    """One ``(opcode, operand)`` pair."""

    op: Op
    operand: int | None = None

    def to_pair(self) -> list[int]:
        """Compact list form used on the wire (operand ``-1`` = none)."""
        return [int(self.op), -1 if self.operand is None else self.operand]


def _read_code(pairs: list) -> list[Instruction]:
    """The instructions a ``code`` list of ``[opcode, operand]`` pairs holds."""
    code = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise VMInvalidProgram(f"holds a malformed instruction {pair!r}")
        opcode, operand = pair
        if type(opcode) is not int or opcode not in _OP_OF:
            raise VMInvalidProgram(f"holds an unknown opcode {opcode!r}")
        if type(operand) is not int:
            raise VMInvalidProgram(f"holds a non-integer operand {operand!r}")
        code.append(Instruction(_OP_OF[opcode], None if operand == -1 else operand))
    return code


@record("function", error=VMInvalidProgram)
@dataclass
class FunctionCode(Record):
    """Compiled body of one Tasklet function."""

    name: str
    n_params: int
    n_locals: int  # including parameters
    returns_value: bool
    code: list[Instruction] = coded(
        _read_code,
        lambda code: [instruction.to_pair() for instruction in code],
    )
    _pairs: list[tuple[int, int | None]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def pairs(self) -> list[tuple[int, int | None]]:
        """The body as plain ``(int opcode, operand)`` tuples.

        Computed lazily and cached: this is the representation the VM's
        hot loop dispatches on (integer compares beat enum identity by a
        large factor on CPython).  ``code`` must not be mutated after the
        first execution.
        """
        if self._pairs is None:
            self._pairs = [
                (int(instruction.op), instruction.operand)
                for instruction in self.code
            ]
        return self._pairs


@record("program", error=VMInvalidProgram)
@dataclass
class CompiledProgram(Record):
    """A verified-serialisable compiled Tasklet program."""

    functions: list[FunctionCode]
    constants: list[Any]
    source: str | None = field(default=None, compare=False)  # for debugging only

    def __post_init__(self) -> None:
        self._index: dict[str, int] = {
            function.name: position for position, function in enumerate(self.functions)
        }
        self._packed: bytes | None = None  # with its hash, ``_fingerprint``

    # -- lookup ----------------------------------------------------------------

    def function_index(self, name: str) -> int:
        """Index of function ``name``; raises if absent."""
        if name not in self._index:
            raise VMInvalidProgram(f"program has no function {name!r}")
        return self._index[name]

    def function(self, name: str) -> FunctionCode:
        """The :class:`FunctionCode` for ``name``."""
        return self.functions[self.function_index(name)]

    def has_function(self, name: str) -> bool:
        return name in self._index

    @property
    def function_names(self) -> list[str]:
        return [function.name for function in self.functions]

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Wire representation.  Source is omitted (it is large and
        providers never need it)."""
        payload = {"version": BYTECODE_VERSION, **super().to_dict()}
        del payload["source"]
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CompiledProgram":
        if type(data) is dict and data.get("version") != BYTECODE_VERSION:
            raise VMInvalidProgram(f"unsupported bytecode version {data.get('version')!r}")
        return super().from_dict(data)

    def packed(self) -> bytes:
        """The one form a program travels and is journalled in: its
        document, ``serde``-packed.  Memoised, and its stamp with it."""
        if self._packed is None:
            self._packed = packed(self.to_dict())
            self._fingerprint = checked_stamp(self._packed)
        return self._packed

    @classmethod
    def from_packed(cls, blob: bytes) -> "CompiledProgram":
        """The program ``blob`` packs — all of it, and nothing after it."""
        stamp = checked_stamp(blob)  # (which refuses what is not bytes)
        try:
            document = opened(blob)
        except CodecError as exc:
            raise VMInvalidProgram(f"malformed program: {exc}") from None
        program = cls.from_dict(document)
        program._packed, program._fingerprint = blob, stamp
        return program

    def fingerprint(self) -> str:
        """The stamp: a hash of the packed bytes, checkable unopened."""
        self.packed()
        return self._fingerprint

    # -- verification --------------------------------------------------------

    def verify(self) -> None:
        """Structural validation; raises :class:`VMInvalidProgram` on defects.

        Checks: operand presence matches the opcode, constant/slot/function/
        builtin indices are in range, jump targets land inside the function,
        every function body ends with an unconditional exit (``RET`` or
        a backwards ``JUMP``) so the VM can never fall off the end, and the
        operand stack is disciplined (:meth:`_verify_stack`) so no
        instruction pops what its own function did not push.
        """
        if not self.functions:
            raise VMInvalidProgram("program has no functions")
        if len(self._index) != len(self.functions):
            raise VMInvalidProgram("duplicate function names")
        for function in self.functions:
            self._verify_function(function)
        for function in self.functions:  # every CALL operand is in range by now
            self._verify_stack(function)

    def _verify_function(self, function: FunctionCode) -> None:
        if function.n_params < 0 or function.n_locals < function.n_params:
            raise VMInvalidProgram(
                f"{function.name}: inconsistent locals "
                f"({function.n_params} params, {function.n_locals} locals)"
            )
        code = function.code
        if not code:
            raise VMInvalidProgram(f"{function.name}: empty body")
        for position, instruction in enumerate(code):
            op, operand = instruction.op, instruction.operand
            defect = None
            if op in NO_OPERAND_OPS:
                if operand is not None:
                    defect = f"{op.name} takes no operand"
            elif operand is None:
                defect = f"{op.name} requires an operand"
            elif op is Op.PUSH_CONST and not 0 <= operand < len(self.constants):
                defect = f"constant index {operand} out of range"
            elif op in (Op.LOAD, Op.STORE) and not 0 <= operand < function.n_locals:
                defect = f"slot {operand} out of range"
            elif op in JUMP_OPS and not 0 <= operand < len(code):
                defect = f"jump target {operand} out of range"
            elif op is Op.CALL and not 0 <= operand < len(self.functions):
                defect = f"function index {operand} out of range"
            elif op is Op.CALL_BUILTIN:
                # operand encodes index*8 + arity (see compiler._compile_call).
                index, arity = divmod(operand, 8)
                if not 0 <= index < len(BUILTIN_ORDER):
                    defect = f"builtin index {index} out of range"
                else:
                    spec = BUILTINS[BUILTIN_ORDER[index]]
                    if not spec.min_arity <= arity <= spec.max_arity:
                        defect = f"{spec.name} called with arity {arity}"
            elif op is Op.BUILD_ARRAY and operand < 0:
                defect = "negative array size"
            if defect:
                raise VMInvalidProgram(f"{function.name}@{position}: {defect}")
        last = code[-1]
        ends_ok = last.op is Op.RET or (
            last.op is Op.JUMP and last.operand is not None and last.operand < len(code) - 1
        )
        if not ends_ok:
            raise VMInvalidProgram(
                f"{function.name}: body does not end with RET or a backward jump"
            )

    def _verify_stack(self, function: FunctionCode) -> None:
        """One forward pass over the code ``function`` can reach.

        The operand-stack depth, counted from the function's own entry,
        must be the same on every path into an instruction, cover what
        the instruction pops, and so be at least one at ``RET``.  The VM
        pops unchecked: this is what keeps a frame off its caller's
        operands and ``list.pop`` off an empty stack.
        """
        code = function.code
        depths = {0: 0}
        work = [0]
        while work:
            pc = work.pop()
            op, operand = code[pc].op, code[pc].operand
            if op is Op.CALL:
                pops, pushes = self.functions[operand].n_params, 1
            elif op is Op.CALL_BUILTIN:
                pops, pushes = operand % 8, 1
            elif op is Op.BUILD_ARRAY:
                pops, pushes = operand, 1
            else:
                pops, pushes = STACK_EFFECT[op]
            if depths[pc] < pops:
                raise VMInvalidProgram(
                    f"{function.name}@{pc}: {op.name} pops {pops} with "
                    f"{depths[pc]} on the operand stack"
                )
            depth = depths[pc] - pops + pushes
            successors = [operand] if op in JUMP_OPS else []
            if op is not Op.JUMP and op is not Op.RET:
                successors.append(pc + 1)
            for target in successors:
                if target not in depths:
                    depths[target] = depth
                    work.append(target)
                elif depths[target] != depth:
                    raise VMInvalidProgram(
                        f"{function.name}@{target}: operand-stack depth differs "
                        f"at a join ({depths[target]} and {depth})"
                    )


def checked_stamp(blob: bytes, stamp: str = "") -> str:
    """The fingerprint of packed program ``blob``, which ``stamp`` — unless "" — must equal."""
    if type(blob) is not bytes:
        raise VMInvalidProgram(f"malformed program: is a {type(blob).__name__}")
    actual = hashlib.sha256(blob).hexdigest()[:16]
    if stamp and stamp != actual:
        raise VMInvalidProgram(f"program fingerprint mismatch: claimed {stamp}, actual {actual}")
    return actual


class ProgramTable:
    """Opened programs by fingerprint (an LRU): a node opens each once, not once per tasklet."""

    def __init__(self) -> None:
        self.opened: dict[str, CompiledProgram] = {}

    def open(self, blob: bytes, stamp: str = "") -> CompiledProgram:
        """The program ``blob`` packs, its ``stamp`` checked hit or miss."""
        key = checked_stamp(blob, stamp)
        program = self.opened.pop(key, None) or CompiledProgram.from_packed(blob)
        self.opened[key] = program  # (again) the most recently used
        if len(self.opened) > PROGRAM_CACHE_SIZE:
            del self.opened[next(iter(self.opened))]
        return program
