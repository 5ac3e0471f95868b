"""The Tasklet itself: a self-contained unit of computation.

A Tasklet bundles everything a provider needs to execute it — compiled
bytecode, entry function, arguments, RNG seed, and resource limits — plus
the QoC goals the middleware must honour.  Tasklets are *closed*: they
reference no external state, which is what makes them freely placeable on
any TVM-hosting device and safely re-executable after a provider failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any

from ..common.errors import CodecError, RecordError, TaskletError, VMInvalidProgram
from ..common.ids import JobId, TaskletId
from ..common.record import Record, coded, record
from ..common.serde import check_packed, packed
from ..tvm.bytecode import CompiledProgram, ProgramTable
from ..tvm.vm import DEFAULT_FUEL, is_tasklet_value
from .qoc import QoC


@record("tasklet")
@dataclass
class Tasklet(Record):
    """One unit of computation, ready to be shipped and executed; on the
    wire, the ``tasklet`` record of a ``submit_tasklet``.

    ``seed`` feeds the TVM's deterministic PRNG.  All replicas of a
    Tasklet share the seed, so redundant executions are bit-identical and
    result voting is a plain equality check.
    """

    tasklet_id: TaskletId
    #: On the wire its packed bytes, which no hop but the last opens more
    #: than once per distinct program (:meth:`from_dict`).
    program: CompiledProgram = coded(None, methodcaller("packed"), accepts=(bytes,))
    #: The hash of those bytes, as their sender stamped it on the wire form
    #: ("" = none, or not sent yet): what brokers memoize and providers
    #: cache by, and every hop checks against the bytes it was sent.
    program_fingerprint: str = field(default="", init=False, compare=False)
    entry: str
    #: The argument list as its consumer wrote it — on the wire, and on a
    #: Tasklet opened from it, its ``serde``-packed bytes: no hop between the
    #: consumer and the provider that runs it builds them (DESIGN.md, "Values").
    args: list[Any] | bytes = coded(
        None,
        lambda args: args if type(args) is bytes else packed(args),
        accepts=(bytes,),
        default_factory=list,
    )
    qoc: QoC = field(default_factory=QoC)
    seed: int = 0
    fuel: int = DEFAULT_FUEL
    job_id: JobId | None = None

    def __post_init__(self) -> None:
        if not self.program.has_function(self.entry):
            raise TaskletError(
                f"program has no entry function {self.entry!r} "
                f"(available: {', '.join(self.program.function_names)})"
            )
        args = self.args
        if type(args) is bytes:  # off the wire: checked as the bytes they stay
            try:
                count, args = check_packed(args), ()
            except CodecError as exc:
                raise TaskletError(f"args are not packed Tasklet values: {exc}") from None
            if count is None:
                raise TaskletError("args do not pack a list")
        else:
            count = len(args)
        entry_code = self.program.function(self.entry)
        if count != entry_code.n_params:
            raise TaskletError(
                f"{self.entry}() expects {entry_code.n_params} arguments, got {count}"
            )
        for arg in args:
            if not is_tasklet_value(arg):
                raise TaskletError(f"argument {arg!r} is not a valid Tasklet value")
        if self.fuel <= 0:
            raise TaskletError(f"fuel must be positive, got {self.fuel}")

    # -- wire format --------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict[str, Any], programs: ProgramTable | None = None):
        """The Tasklet ``data`` holds; ``programs`` — a node's table — opens
        its program if that node has not yet, and checks the stamp always."""
        values = cls._read(data)
        try:
            values["program"] = (programs or ProgramTable()).open(
                values["program"], values.get("program_fingerprint", "")
            )
        except VMInvalidProgram as exc:
            raise RecordError(f"malformed tasklet: {exc}") from None
        return cls._build(values)

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        if not self.program_fingerprint:
            # Memoised on the program object: a bag of tasks sharing one
            # program pays the hash once.
            data["program_fingerprint"] = self.program.fingerprint()
        return data
