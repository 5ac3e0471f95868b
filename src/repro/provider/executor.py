"""Tasklet execution on a provider: the TVM wrapper.

:class:`TaskletExecutor` turns an :class:`AssignExecution` request into an
:class:`ExecutionOutcome`.  It is deliberately synchronous — concurrency
is the responsibility of the caller (slot scheduling in the simulated
provider, worker threads in the TCP provider).

A small LRU of verified programs avoids re-deserialising and re-verifying
bytecode for bag-of-tasks workloads, where thousands of Tasklets share one
program (the common case for this middleware).  Each cached program
carries its translation (:mod:`repro.tvm.translate`), built once at
insertion: assignments run as translated Python functions, and restart on
the portable :class:`~repro.tvm.vm.TVM` whenever the translated run gives
up — so results, errors and instruction counts are the interpreter's own.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..common.errors import CodecError, VMError, VMTypeError
from ..common.serde import opened, packed
from ..core.results import ExecutionStatus
from ..tvm.bytecode import PROGRAM_CACHE_SIZE, CompiledProgram, checked_stamp
from ..tvm.translate import Translation, translate
from ..tvm.vm import DEFAULT_FUEL, TVM, VMLimits, VMProfile
from ..transport.message import AssignExecution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import ProviderMetrics


@dataclass
class ExecutionOutcome:
    """What one execution attempt produced.

    ``profile`` is the optional TVM execution profile (opcode groups,
    peak stack depth, wall time), present only when the executor was
    built with ``profile=True``.
    """

    status: ExecutionStatus
    value: Any = None
    error: str | None = None
    instructions: int = 0
    profile: VMProfile | None = None

    @property
    def ok(self) -> bool:
        return self.status is ExecutionStatus.SUCCESS


def local_assignment(
    program: CompiledProgram,
    args: list,
    entry: str = "main",
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
) -> AssignExecution:
    """An assignment of ``program`` stamped as a consumer stamps it.

    For callers that measure :meth:`TaskletExecutor.execute` without a
    broker (the provider self-benchmark, F1, ``bench_micro_vm``): what
    they time is then the engine assignments actually run on.
    """
    return AssignExecution(
        execution_id="local",
        tasklet_id="local",
        consumer_id="local",
        program=program.packed(),
        entry=entry,
        args=packed(args),
        seed=seed,
        fuel=fuel,
        program_fingerprint=program.fingerprint(),
    )


def _opened_args(blob: bytes) -> list:
    """The argument list an assignment carries — opened here, where it is
    run, and nowhere on the way (DESIGN.md, "Values")."""
    try:
        args = opened(blob)
    except CodecError as exc:
        raise VMTypeError(f"arguments do not open: {exc}") from None
    if type(args) is not list:
        raise VMTypeError("arguments do not pack a list")
    return args


class TaskletExecutor:
    """Executes assignments on this host's TVM.

    ``metrics`` is an optional :class:`~repro.obs.telemetry.ProviderMetrics`
    bundle; when attached, program-cache hits/misses and retired
    instruction counts are reported through its registry.

    Which engine runs follows from what the executor can observe, not
    from an option: a profiled executor needs per-opcode counts and one
    with ``cache_size=0`` has nothing to amortise a translation over, so
    both stay on the portable VM; so does a program the translator
    declines.  ``translated_runs`` / ``restarts`` / ``declined_programs``
    (and ``repro_provider_vm_runs_total{engine=...}``) say which engine
    ran: a program that restarts on every run is paying for both.
    """

    def __init__(
        self,
        cache_size: int = PROGRAM_CACHE_SIZE,
        profile: bool = False,
        metrics: "ProviderMetrics | None" = None,
    ):
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._cache: OrderedDict[
            str, tuple[CompiledProgram, Translation | None]
        ] = OrderedDict()
        self._cache_size = cache_size
        self._profile = profile
        self._metrics = metrics
        self.cache_hits = 0
        self.cache_misses = 0
        self.translated_runs = 0
        self.restarts = 0
        self.declined_programs = 0

    @property
    def cache_size(self) -> int:
        return self._cache_size

    def _load_program(
        self, blob: bytes, claimed_fingerprint: str
    ) -> tuple[CompiledProgram, Translation | None]:
        """Return a verified program and its translation, cached when possible.

        The cache is keyed on the hash of the bytes the assignment
        carries, which the fingerprint its consumer stamped on it must
        equal — checked hit or miss, so nobody can have another program's
        cached code run in place of the one they sent.  A hit opens
        nothing; a miss opens, verifies and translates.
        """
        key = checked_stamp(blob, claimed_fingerprint)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            if self._metrics is not None:
                self._metrics.program_cache.labels(result="hit").inc()
            self._cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        if self._metrics is not None:
            self._metrics.program_cache.labels(result="miss").inc()
        program = CompiledProgram.from_packed(blob)
        program.verify()
        translation = None
        if self._cache_size > 0:
            if not self._profile:
                translation = translate(program)
                if translation is None:
                    self.declined_programs += 1
            self._cache[key] = program, translation
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return program, translation

    def execute(self, request: AssignExecution) -> ExecutionOutcome:
        """Run one assignment to completion (success or VM failure).

        Never raises: the caller holds a provider slot and an ``inflight``
        entry that only its next step releases, so whatever an engine
        throws — a :class:`VMError` the program earned, or anything else,
        which is an engine defect — comes back as a ``VM_ERROR`` outcome.
        """
        machine = engine = None
        try:
            program, translation = self._load_program(
                request.program, request.program_fingerprint
            )
            args, ran = _opened_args(request.args), None
            if translation is not None:
                try:
                    ran = translation.run(
                        request.entry, args, request.fuel, request.seed
                    )
                except Exception:  # deopt is restart: the portable VM decides
                    engine = "restarted"
                    if translation.mutates:  # it must see what that run was given
                        args = _opened_args(request.args)
                    self.restarts += 1
                else:
                    engine = "translated"
                    self.translated_runs += 1
            if ran is None:
                engine = engine or "portable"
                machine = TVM(
                    program,
                    limits=VMLimits(fuel=request.fuel),
                    seed=request.seed,
                    verify=False,  # verified on cache insertion
                    profile=self._profile,
                )
                ran = machine.run(request.entry, args), machine.stats.instructions
            outcome = ExecutionOutcome(
                status=ExecutionStatus.SUCCESS,
                value=ran[0],
                instructions=ran[1],
                profile=machine.profile if machine else None,
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, VMError):
                # This string is all of the traceback that leaves the slot.
                fault = exc.__traceback__
                while fault.tb_next is not None:
                    fault = fault.tb_next
                where = fault.tb_frame.f_code.co_name
                error += f" [engine fault at {where}:{fault.tb_lineno}]"
            # instructions stays 0 on failure: billing and the virtual
            # service-time model only ever charge successful work.
            outcome = ExecutionOutcome(
                status=ExecutionStatus.VM_ERROR,
                error=error,
                profile=machine.profile if machine else None,
            )
        if self._metrics is not None:
            if engine is not None:  # None: the program never loaded
                self._metrics.vm_runs.labels(engine=engine).inc()
            if outcome.instructions:
                self._metrics.vm_instructions.inc(outcome.instructions)
            if outcome.profile is not None:
                for group, count in outcome.profile.opcode_groups.items():
                    self._metrics.vm_opcodes.labels(group=group).inc(count)
        return outcome
