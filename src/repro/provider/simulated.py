"""The simulator's provider: ``ProviderCore`` driven in virtual time.

The protocol is the core's, shared with the TCP provider; this driver
decides *when* an execution runs and what time it is stamped with.  The
Tasklet runs on the real TVM at assignment time (true result and
instruction count) and its result is stamped with, and delayed by, the
time a device of this speed *would have taken*:

    service_time = instructions / speed_ips  (+ fixed per-execution overhead)

Handlers return ``(delay, Envelope)`` pairs.  Capacity slots model
concurrency: an execution starts at ``max(now, earliest slot free
time)``, which reproduces FIFO queueing without event-loop callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..transport.message import Envelope
from .core import ProviderCore, Work
from .failure import ExecutionFailureModel, FaultKind, corrupt_value

#: Outbound message with a virtual delay before it is handed to the network.
Outbound = tuple[float, Envelope]


@dataclass
class ProviderCoreStats:
    executed: int = 0
    succeeded: int = 0
    vm_errors: int = 0
    rejected: int = 0
    dropped_by_fault: int = 0
    corrupted_by_fault: int = 0
    busy_seconds: float = 0.0


class SimProvider:
    """One simulated provider node (see module docstring)."""

    def __init__(
        self, core: ProviderCore, failure_model: ExecutionFailureModel | None = None
    ):
        self.core = core
        self.config = core.config
        self.failure_model = failure_model or ExecutionFailureModel()
        self.stats = ProviderCoreStats()
        #: Virtual time at which each slot becomes free.
        self._slot_free_at: list[float] = [0.0] * self.config.capacity
        #: Start times of accepted executions that have not begun yet;
        #: pruned lazily.  Their count is the queue length.
        self._pending_starts: list[float] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> list[Outbound]:
        """Accept work and produce the registration message."""
        self.core.start()
        return [(0.0, self.core.registration())]

    def stop(self) -> list[Outbound]:
        """Produce the graceful-leave message."""
        self.core.stop()
        return [(0.0, self.core.unregister())]

    def tick(self) -> list[Outbound]:
        """Produce a heartbeat (call once per heartbeat interval)."""
        if not self.core.registered:
            return []
        return [(0.0, self.core.heartbeat(self.free_slots()))]

    def free_slots(self) -> int:
        now = self.core.clock.now()
        return sum(1 for free_at in self._slot_free_at if free_at <= now)

    # -- message handling -------------------------------------------------------

    def handle(self, envelope: Envelope) -> list[Outbound]:
        replies, work = self.core.handle(envelope)
        if work is not None:
            return self._execute(work)  # accepted work comes with no replies
        return [(0.0, reply) for reply in replies]

    def _execute(self, work: Work) -> list[Outbound]:
        now = self.core.clock.now()
        # Pick the earliest-free slot; model a bounded queue.
        slot = min(range(len(self._slot_free_at)), key=self._slot_free_at.__getitem__)
        start_at = max(now, self._slot_free_at[slot])
        queue_delay = start_at - now
        if queue_delay > 0 and self._queued_count(now) >= self.config.max_queue:
            self.stats.rejected += 1
            return [(0.0, self.core.reject(work, "provider queue full"))]

        if queue_delay > 0:
            self._pending_starts.append(start_at)
        # The slot model decides the result at assignment time: run and
        # report happen inside this one handler call, no cancel or
        # registration can come between them, so neither ``outcome`` nor
        # ``result`` is ever None here.
        outcome = self.core.run(work)
        self.stats.executed += 1
        service_time = self.config.startup_overhead_s + (
            outcome.instructions / self.config.speed_ips
        )
        finished_at = start_at + service_time
        self._slot_free_at[slot] = finished_at
        self.stats.busy_seconds += service_time

        fault = FaultKind.NONE
        if outcome.ok:
            self.stats.succeeded += 1
            fault = self.failure_model.draw()
            if fault is FaultKind.CORRUPT:
                self.stats.corrupted_by_fault += 1
                outcome = replace(
                    outcome, value=corrupt_value(outcome.value, self.failure_model.rng)
                )
        else:
            self.stats.vm_errors += 1
        result = self.core.report(work, outcome, start_at, finished_at)
        self.core.finish(work)
        if fault is FaultKind.DROP:
            self.stats.dropped_by_fault += 1
            return []  # crash before reporting: broker times it out
        return [(finished_at - now, result)]

    def _queued_count(self, now: float) -> int:
        """Assignments accepted but not yet started (all slots busy)."""
        self._pending_starts = [
            start for start in self._pending_starts if start > now
        ]
        return len(self._pending_starts)
