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
from ..common.serde import check_packed, cut_packed, packed, spliced
from ..tvm.bytecode import CompiledProgram, ProgramTable
from ..tvm.vm import DEFAULT_FUEL, is_tasklet_value
from .qoc import DEFAULT_QOC, QoC, read_qoc


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
    #: Read once per distinct record on the wire (:func:`read_qoc`).
    qoc: QoC = coded(read_qoc, methodcaller("to_dict"), accepts=(dict,), default=DEFAULT_QOC)
    seed: int = 0
    fuel: int = DEFAULT_FUEL
    job_id: JobId | None = None

    def __post_init__(self) -> None:
        _check(self.program, self.entry, self.args, self.fuel)

    # -- wire format --------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict[str, Any], programs: ProgramTable | None = None):
        """The Tasklet ``data`` holds; ``programs`` — a node's table — opens
        its program if that node has not yet, and checks the stamp always."""
        values = cls._read(data)
        values["program"] = _program_of(values, programs or ProgramTable())
        return cls._build(values)

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        if not self.program_fingerprint:
            # Memoised on the program object: a bag of tasks sharing one
            # program pays the hash once.
            data["program_fingerprint"] = self.program.fingerprint()
        if self.qoc is DEFAULT_QOC:  # (best effort: read back from its absence)
            del data["qoc"]
        return data

    def wire(self) -> tuple[dict[str, Any], bytes]:
        """:meth:`to_dict`, and those fields packed — what every tasklet of
        one program, entry, QoC, fuel and job shares packed once, this
        one's id, args and seed spliced in."""
        stamp = self.program_fingerprint or self.program.fingerprint()
        # (The QoC by identity, the fuel with its type: ``1`` and ``True``
        # are equal keys, and differ on the wire.)
        key = (stamp, self.entry, id(self.qoc), self.fuel, type(self.fuel), self.job_id)
        shell = _SHELLS.get(key)
        if shell is None:
            if len(_SHELLS) >= 64:
                _SHELLS.clear()
            data = self.to_dict()
            shell = _SHELLS[key] = data, cut_packed(data, _OWN), self.qoc  # (keeps its id)
        data, parts, _qoc = shell
        args = self.args if type(self.args) is bytes else packed(self.args)
        own = self.tasklet_id, args, self.seed
        data = {**data, "tasklet_id": own[0], "args": args, "seed": own[2]}
        if "qoc" in data:
            data["qoc"] = dict(data["qoc"])
        return data, spliced(parts, own)


#: What :meth:`Tasklet.wire` packed once: per program stamp, entry, QoC,
#: fuel and job, a wire form and its packed parts around the fields each
#: tasklet has of its own, ``_OWN``.  Emptied when it reaches 64.
_SHELLS: dict[tuple, tuple[dict[str, Any], list[bytes], QoC]] = {}
_OWN = ("tasklet_id", "args", "seed")


@dataclass(slots=True)
class TaskletFields:
    """A ``tasklet`` record as a broker admits it: the fields it routes by,
    each read once and checked as :class:`Tasklet` checks them, and no
    Tasklet built — the program is its stamp (its bytes stay in the wire
    form) and ``args`` the packed bytes that arrived."""

    tasklet_id: TaskletId
    program_fingerprint: str  # as stamped by its sender ("" = none: not memoizable)
    entry: str
    args: bytes
    qoc: QoC
    seed: int
    fuel: int

    @classmethod
    def checked(cls, program: CompiledProgram, *fields) -> "TaskletFields":
        """The fields, once ``program`` (the opened ``program_fingerprint``)
        has the entry and arity they name and the args and fuel are
        well-formed — or :class:`TaskletError`."""
        tasklet = cls(*fields)
        _check(program, tasklet.entry, tasklet.args, tasklet.fuel)
        return tasklet

    @classmethod
    def read(cls, data: dict[str, Any], programs: ProgramTable) -> "TaskletFields":
        """The fields of the ``tasklet`` record ``data``, with every check
        :meth:`Tasklet.from_dict` makes, in its order and words: a
        :class:`RecordError` for a field that does not read (the program's
        stamp against its bytes included), a :class:`TaskletError` for
        fields that read and make no Tasklet."""
        values = Tasklet._read(data)
        get = values.get
        return cls.checked(
            _program_of(values, programs), values["tasklet_id"], get("program_fingerprint", ""),
            values["entry"], get("args", NO_ARGS), get("qoc") or DEFAULT_QOC,
            get("seed", 0), get("fuel", DEFAULT_FUEL),
        )


#: The packed empty argument list: what a record without ``args`` holds.
NO_ARGS = packed([])


def _program_of(values: dict[str, Any], programs: ProgramTable) -> CompiledProgram:
    """The program of read ``tasklet`` fields: opened by ``programs`` (once
    per distinct program), its stamp checked against its bytes always."""
    try:
        return programs.open(values["program"], values.get("program_fingerprint", ""))
    except VMInvalidProgram as exc:
        raise RecordError(f"malformed tasklet: {exc}") from None


def _check(program: CompiledProgram, entry: str, args: list | bytes, fuel: int) -> None:
    """What makes fields a Tasklet: ``program`` has ``entry``, ``args`` are
    Tasklet values (off the wire: bytes that pack a list of them) of its
    arity, and the fuel is positive — or :class:`TaskletError`."""
    if not program.has_function(entry):
        raise TaskletError(
            f"program has no entry function {entry!r} "
            f"(available: {', '.join(program.function_names)})"
        )
    if type(args) is bytes:  # off the wire: checked as the bytes they stay
        try:
            count, args = check_packed(args), ()
        except CodecError as exc:
            raise TaskletError(f"args are not packed Tasklet values: {exc}") from None
        if count is None:
            raise TaskletError("args do not pack a list")
    else:
        count = len(args)
    n_params = program.function(entry).n_params
    if count != n_params:
        raise TaskletError(f"{entry}() expects {n_params} arguments, got {count}")
    for arg in args:
        if not is_tasklet_value(arg):
            raise TaskletError(f"argument {arg!r} is not a valid Tasklet value")
    if fuel <= 0:
        raise TaskletError(f"fuel must be positive, got {fuel}")
