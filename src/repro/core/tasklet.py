"""The Tasklet itself: a self-contained unit of computation.

A Tasklet bundles everything a provider needs to execute it — compiled
bytecode, entry function, arguments, RNG seed, and resource limits — plus
the QoC goals the middleware must honour.  Tasklets are *closed*: they
reference no external state, which is what makes them freely placeable on
any TVM-hosting device and safely re-executable after a provider failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..common.errors import TaskletError
from ..common.ids import JobId, TaskletId
from ..common.record import Record, record
from ..tvm.bytecode import CompiledProgram
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
    program: CompiledProgram
    #: The content hash of ``program`` its sender stamped on the wire form
    #: ("" = none, or not sent yet): what brokers memoize and providers
    #: cache by, without either hashing the program again.
    program_fingerprint: str = field(default="", init=False, compare=False)
    entry: str
    args: list[Any] = field(default_factory=list)
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
        entry_code = self.program.function(self.entry)
        if len(self.args) != entry_code.n_params:
            raise TaskletError(
                f"{self.entry}() expects {entry_code.n_params} arguments, "
                f"got {len(self.args)}"
            )
        for arg in self.args:
            if not is_tasklet_value(arg):
                raise TaskletError(f"argument {arg!r} is not a valid Tasklet value")
        if self.fuel <= 0:
            raise TaskletError(f"fuel must be positive, got {self.fuel}")

    # -- wire format --------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        if not self.program_fingerprint:
            # Memoised on the program object: a bag of tasks sharing one
            # program pays the hash once.
            data["program_fingerprint"] = self.program.fingerprint()
        return data

    def describe(self) -> str:
        """One-line human-readable description for logs."""
        return (
            f"Tasklet({self.tasklet_id}, entry={self.entry}, "
            f"args={len(self.args)}, redundancy={self.qoc.redundancy})"
        )
