"""Tasklet execution on a provider: the TVM wrapper.

:class:`TaskletExecutor` turns an :class:`AssignExecution` request into an
:class:`ExecutionOutcome`.  It is deliberately synchronous — concurrency
is the responsibility of the caller (slot scheduling in the simulated
provider; the loop thread and the pool threads in the TCP provider, which
share one executor).

A small LRU of verified programs avoids re-deserialising and re-verifying
bytecode for bag-of-tasks workloads, where thousands of Tasklets share one
program (the common case for this middleware).  Each cached program
carries its translation (:mod:`repro.tvm.translate`), built once at
insertion: assignments run as translated Python functions, and restart on
the portable :class:`~repro.tvm.vm.TVM` whenever the translated run gives
up — so results, errors and instruction counts are the interpreter's own.
Each entry also keeps the wall time of the program's latest run here,
which is how a driver knows a run is cheap before it starts one
(:meth:`TaskletExecutor.known_cheap`).
"""

from __future__ import annotations

import math
import sys
import threading
import time
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


class _Cached:
    """One LRU entry: a verified program, its translation (``None``: the
    portable VM runs it) and the wall time of its latest run here."""

    __slots__ = ("program", "translation", "last_run_s")

    def __init__(self, program: CompiledProgram, translation: Translation | None):
        self.program = program
        self.translation = translation
        self.last_run_s = math.inf  # never run here


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

    Several threads may share one executor: the LRU and its hit / miss /
    declined counts are kept under one lock, which is never held across a
    run.
    """

    def __init__(
        self,
        cache_size: int = PROGRAM_CACHE_SIZE,
        profile: bool = False,
        metrics: "ProviderMetrics | None" = None,
    ):
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._cache: OrderedDict[str, _Cached] = OrderedDict()
        self._lock = threading.Lock()
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

    def known_cheap(self, claimed_fingerprint: str) -> bool:
        """Whether the program stamped ``claimed_fingerprint`` last ran here
        in less than the interpreter's thread switch interval.  The claim
        only picks the thread the next run takes: :meth:`execute` checks it
        against the bytes, as it does for every run."""
        with self._lock:
            cached = self._cache.get(claimed_fingerprint)
        return cached is not None and cached.last_run_s < sys.getswitchinterval()

    def _load_program(self, blob: bytes, claimed_fingerprint: str) -> _Cached:
        """Return a verified program and its translation, cached when possible.

        The cache is keyed on the hash of the bytes the assignment
        carries, which the fingerprint its consumer stamped on it must
        equal — checked hit or miss, so nobody can have another program's
        cached code run in place of the one they sent.  A hit opens
        nothing; a miss opens, verifies and translates (outside the lock).
        """
        key = checked_stamp(blob, claimed_fingerprint)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        if self._metrics is not None:
            result = "miss" if cached is None else "hit"
            self._metrics.program_cache.labels(result=result).inc()
        if cached is not None:
            return cached
        program = CompiledProgram.from_packed(blob)
        program.verify()
        if self._cache_size == 0:
            return _Cached(program, None)
        cached = _Cached(program, None if self._profile else translate(program))
        with self._lock:
            if cached.translation is None and not self._profile:
                self.declined_programs += 1
            self._cache[key] = cached
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return cached

    def execute(self, request: AssignExecution) -> ExecutionOutcome:
        """Run one assignment to completion (success or VM failure).

        Never raises: the caller holds a provider slot and an ``inflight``
        entry that only its next step releases, so whatever an engine
        throws — a :class:`VMError` the program earned, or anything else,
        which is an engine defect — comes back as a ``VM_ERROR`` outcome.
        The run's wall time — from the program in hand, so a miss's
        opening and translating is not counted — is kept on its cache entry.
        """
        machine = engine = cached = None
        try:
            cached = self._load_program(request.program, request.program_fingerprint)
            began = time.perf_counter()
            program, translation = cached.program, cached.translation
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
        if cached is not None:  # None: the program never loaded
            cached.last_run_s = time.perf_counter() - began
        if self._metrics is not None:
            if engine is not None:  # None: the program never loaded
                self._metrics.vm_runs.labels(engine=engine).inc()
            if outcome.instructions:
                self._metrics.vm_instructions.inc(outcome.instructions)
            if outcome.profile is not None:
                for group, count in outcome.profile.opcode_groups.items():
                    self._metrics.vm_opcodes.labels(group=group).inc(count)
        return outcome
