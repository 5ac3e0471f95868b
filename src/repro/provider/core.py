"""The provider core: a sans-IO node contributing compute.

Like :class:`~repro.broker.core.BrokerCore`, the provider core performs no
IO: handlers return ``(delay, Envelope)`` pairs, where ``delay`` tells the
transport how far in the future the message becomes visible.  This is how
*virtual execution time* works in the simulator — the provider runs the
Tasklet on the real TVM immediately (to obtain the true result and
instruction count) but stamps the result with the time a device of its
speed *would have taken*:

    service_time = instructions / speed_ips  (+ fixed per-execution overhead)

Concurrency is modelled with capacity slots: an arriving execution starts
at ``max(now, earliest slot free time)``.  This reproduces queueing
behaviour exactly for FIFO providers without needing callbacks into the
event loop.

The real TCP provider does not use the slot model: its executions take
actual wall time in worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.clock import Clock
from ..common.ids import NodeId
from ..obs import events as ev
from ..obs.telemetry import ProviderMetrics, Telemetry
from ..obs.trace import TraceContext
from ..transport.message import (
    AssignExecution,
    BROKER_ADDRESS,
    CancelExecution,
    Envelope,
    ExecutionRejected,
    ExecutionResult,
    Heartbeat,
    MessageBody,
    RegisterAck,
    RegisterProvider,
    Unregister,
    body_of,
)
from .executor import PROGRAM_CACHE_SIZE, TaskletExecutor
from .failure import ExecutionFailureModel, FaultKind, corrupt_value

#: Outbound message with a virtual delay before it is handed to the network.
Outbound = tuple[float, Envelope]


@dataclass
class ProviderConfig:
    """Static description of one provider."""

    device_class: str = "desktop"
    capacity: int = 1  # concurrent execution slots
    speed_ips: float = 20e6  # TVM instructions per virtual second
    benchmark_score: float | None = None  # reported score; defaults to speed_ips
    price: float = 0.0
    heartbeat_interval: float = 1.0
    #: Fixed per-execution overhead (queueing, deserialisation, VM spin-up)
    #: in virtual seconds; the F2 overhead-breakdown experiment sweeps it.
    startup_overhead_s: float = 0.002
    max_queue: int = 1024  # assignments queued beyond busy slots
    #: Distinct verified programs the executor keeps in its LRU.
    program_cache_size: int = PROGRAM_CACHE_SIZE
    #: Collect a per-execution TVM profile (opcode groups, stack depth).
    profile_executions: bool = False

    def reported_score(self) -> float:
        return self.benchmark_score if self.benchmark_score is not None else self.speed_ips


@dataclass
class ProviderCoreStats:
    executed: int = 0
    succeeded: int = 0
    vm_errors: int = 0
    rejected: int = 0
    dropped_by_fault: int = 0
    corrupted_by_fault: int = 0
    busy_seconds: float = 0.0


class ProviderCore:
    """One simulated provider node (see module docstring)."""

    def __init__(
        self,
        node_id: NodeId,
        clock: Clock,
        config: ProviderConfig | None = None,
        failure_model: ExecutionFailureModel | None = None,
        broker: NodeId = BROKER_ADDRESS,
        telemetry: Telemetry | None = None,
    ):
        self.node_id = node_id
        self.clock = clock
        self.config = config or ProviderConfig()
        if self.config.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.config.capacity}")
        if self.config.speed_ips <= 0:
            raise ValueError(f"speed must be positive, got {self.config.speed_ips}")
        self.broker = broker
        self.failure_model = failure_model or ExecutionFailureModel()
        self.telemetry = telemetry
        self._metrics = ProviderMetrics(telemetry.registry) if telemetry else None
        self._tracer = telemetry.tracer if telemetry else None
        self._events = telemetry.events if telemetry else None
        self.executor = TaskletExecutor(
            cache_size=self.config.program_cache_size,
            profile=self.config.profile_executions,
            metrics=self._metrics,
        )
        self.stats = ProviderCoreStats()
        self.registered = False
        #: Virtual time at which each slot becomes free.
        self._slot_free_at: list[float] = [0.0] * self.config.capacity
        #: Start times of accepted executions that have not begun yet;
        #: pruned lazily.  Their count is the queue length.
        self._pending_starts: list[float] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> list[Outbound]:
        """Produce the registration message."""
        register = RegisterProvider(
            provider_id=self.node_id,
            device_class=self.config.device_class,
            capacity=self.config.capacity,
            benchmark_score=self.config.reported_score(),
            price=self.config.price,
            heartbeat_interval=self.config.heartbeat_interval,
        )
        return [(0.0, self._send(register))]

    def stop(self) -> list[Outbound]:
        """Produce the graceful-leave message."""
        self.registered = False
        return [(0.0, self._send(Unregister(provider_id=self.node_id)))]

    def tick(self) -> list[Outbound]:
        """Produce a heartbeat (call once per heartbeat interval)."""
        if not self.registered:
            return []
        free = sum(
            1 for free_at in self._slot_free_at if free_at <= self.clock.now()
        )
        if self._metrics is not None:
            self._metrics.busy_slots.labels(provider=str(self.node_id)).set(
                self.config.capacity - free
            )
        heartbeat = Heartbeat(
            provider_id=self.node_id, free_slots=free, queue_length=0
        )
        return [(0.0, self._send(heartbeat))]

    # -- message handling -------------------------------------------------------

    def handle(self, envelope: Envelope) -> list[Outbound]:
        body = body_of(envelope)
        if isinstance(body, RegisterAck):
            if body.accepted:
                self.registered = True
                return []
            # Broker does not know us (it restarted): re-register.
            self.registered = False
            return self.start()
        if isinstance(body, AssignExecution):
            return self._on_assign(body, envelope.trace)
        if isinstance(body, CancelExecution):
            # The slot model decides results at assignment time, so by
            # the time a cancel arrives the result is already "on the
            # wire"; the broker drops it as late.  Tracking cancel ids
            # here would only accumulate forever (they were never read).
            return []
        return []

    # -- execution ----------------------------------------------------------

    def _on_assign(
        self, request: AssignExecution, trace: dict[str, str] | None = None
    ) -> list[Outbound]:
        now = self.clock.now()
        # Pick the earliest-free slot; model a bounded queue.
        slot = min(range(len(self._slot_free_at)), key=self._slot_free_at.__getitem__)
        start_at = max(now, self._slot_free_at[slot])
        queue_delay = start_at - now
        if queue_delay > 0 and self._queued_count(now) >= self.config.max_queue:
            self.stats.rejected += 1
            if self._metrics is not None:
                self._metrics.rejected.inc()
            rejection = ExecutionRejected(
                execution_id=request.execution_id,
                tasklet_id=request.tasklet_id,
                provider_id=self.node_id,
                reason="provider queue full",
            )
            return [(0.0, self._send(rejection))]

        if queue_delay > 0:
            self._pending_starts.append(start_at)
        outcome = self.executor.execute(request)
        self.stats.executed += 1
        service_time = self.config.startup_overhead_s + (
            outcome.instructions / self.config.speed_ips
        )
        finished_at = start_at + service_time
        self._slot_free_at[slot] = finished_at
        self.stats.busy_seconds += service_time
        if self._metrics is not None:
            self._metrics.executions.labels(status=outcome.status.value).inc()
            self._metrics.execution_seconds.observe(service_time)
        if self._tracer is not None:
            parent = TraceContext.from_dict(trace)
            if parent is not None:
                self._tracer.record(
                    name="provider.execute",
                    context=self._tracer.child(parent),
                    node=str(self.node_id),
                    start=start_at,
                    end=finished_at,
                    parent_id=parent.span_id,
                    status="ok" if outcome.ok else outcome.status.value,
                    attrs={
                        "execution_id": str(request.execution_id),
                        "instructions": outcome.instructions,
                    },
                )

        value = outcome.value
        status = outcome.status
        if outcome.ok:
            self.stats.succeeded += 1
            fault = self.failure_model.draw()
            if fault is FaultKind.DROP:
                self.stats.dropped_by_fault += 1
                return []  # crash before reporting: broker times it out
            if fault is FaultKind.CORRUPT:
                self.stats.corrupted_by_fault += 1
                value = corrupt_value(value, self.failure_model.rng)
        else:
            self.stats.vm_errors += 1
            if self._events is not None:
                self._events.record(
                    ev.EXECUTION_FAULT,
                    node=str(self.node_id),
                    ts=finished_at,
                    execution_id=str(request.execution_id),
                    tasklet_id=str(request.tasklet_id),
                    status=status.value,
                    error=outcome.error or "",
                )

        result = ExecutionResult(
            execution_id=request.execution_id,
            tasklet_id=request.tasklet_id,
            provider_id=self.node_id,
            status=status.value,
            value=value,
            error=outcome.error,
            instructions=outcome.instructions,
            started_at=start_at,
            finished_at=finished_at,
        )
        return [(finished_at - now, self._send(result))]

    def _queued_count(self, now: float) -> int:
        """Assignments accepted but not yet started (all slots busy)."""
        self._pending_starts = [
            start for start in self._pending_starts if start > now
        ]
        return len(self._pending_starts)

    # -- helpers ----------------------------------------------------------------

    def _send(self, body: MessageBody) -> Envelope:
        return body.envelope(src=self.node_id, dst=self.broker)

    @property
    def busy_until(self) -> float:
        """Virtual time at which the last slot frees (for the runner)."""
        return max(self._slot_free_at)
