"""The provider core: the provider's half of the protocol, sans-IO.

It builds every provider→broker message, reacts to every broker→provider
one and decides whether a finished execution may still be reported
(docs/PROTOCOL.md, "Epochs" and "Cancellation").  A driver moves the
envelopes and decides when accepted work runs and what time it is
stamped with — :class:`~repro.transport.tcp.TcpProvider` in wall time, on
the loop thread that read it when its program is known to be cheap and on
a thread pool otherwise, :class:`~repro.provider.simulated.SimProvider` at
assignment in virtual time (DESIGN.md, "Provider internals").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from ..common.clock import Clock
from ..common.errors import CodecError, TransportError
from ..common.ids import NodeId
from ..common.serde import packed
from ..core.results import ExecutionStatus
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
    REASON_UNKNOWN_PROVIDER,
    RegisterAck,
    RegisterProvider,
    Unregister,
    body_of,
)
from .executor import ExecutionOutcome, TaskletExecutor


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

    def reported_score(self) -> float:
        return self.benchmark_score if self.benchmark_score is not None else self.speed_ips


class Work(NamedTuple):
    """An assignment the core accepted; the driver decides when it runs."""

    request: AssignExecution
    epoch: int  # the registration it was accepted under
    trace: dict[str, str] | None


class ProviderCore:
    """One provider node's protocol state (see module docstring)."""

    STOPPED, RUNNING, DRAINING = "stopped", "running", "draining"

    def __init__(
        self,
        node_id: NodeId,
        clock: Clock,
        config: ProviderConfig | None = None,
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
        self.telemetry = telemetry
        self._metrics = ProviderMetrics(telemetry.registry) if telemetry else None
        self._tracer = telemetry.tracer if telemetry else None
        self._events = telemetry.events if telemetry else None
        self.executor = TaskletExecutor(metrics=self._metrics)
        #: Guards everything below (the TCP driver calls in from several
        #: threads); notified when the core stops or drains empty.
        self.lock = threading.Condition()
        #: Work is accepted only while ``RUNNING``.
        self.state = self.STOPPED
        self.active = 0  # executions inside the executor right now
        #: Executions accepted but not yet finished -> whether the broker
        #: cancelled them.
        self.inflight: dict[str, bool] = {}
        #: Bumped on every (re-)registration, which voids every execution
        #: accepted before it: results from an older epoch are dropped.
        self.epoch = 0
        #: Whether the broker accepted the latest registration.
        self.registered = False

    # -- admission state ------------------------------------------------------

    def start(self) -> None:
        """Begin accepting assignments."""
        with self.lock:
            self.state = self.RUNNING

    def drain(self) -> None:
        """Refuse new assignments; what is in flight still finishes."""
        with self.lock:
            if self.state == self.RUNNING:
                self.state = self.DRAINING

    def stop(self) -> None:
        with self.lock:
            self.state = self.STOPPED
            self.lock.notify_all()

    # -- provider -> broker ---------------------------------------------------

    def registration(self) -> Envelope:
        """A ``register_provider`` envelope; each one opens a new epoch."""
        with self.lock:
            self.epoch += 1
            self.registered = False
        register = RegisterProvider(
            provider_id=self.node_id,
            device_class=self.config.device_class,
            capacity=self.config.capacity,
            benchmark_score=self.config.reported_score(),
            price=self.config.price,
            heartbeat_interval=self.config.heartbeat_interval,
        )
        return self._send(register)

    def unregister(self) -> Envelope:
        """The graceful-leave message."""
        self.registered = False
        return self._send(Unregister(provider_id=self.node_id))

    def heartbeat(self, free_slots: int) -> Envelope:
        """The periodic liveness + load report."""
        if self._metrics is not None:
            self._metrics.busy_slots.labels(provider=str(self.node_id)).set(
                self.config.capacity - free_slots
            )
        return self._send(Heartbeat(provider_id=self.node_id, free_slots=free_slots))

    # -- broker -> provider ---------------------------------------------------

    def read(self, envelope: Envelope) -> MessageBody | None:
        """The typed body of an inbound envelope — or None, once reported,
        for one that cannot be read: it changes nothing (DESIGN.md, "Wire
        boundary")."""
        try:
            return body_of(envelope)
        except TransportError as exc:
            ev.report_unreadable(
                self._events, self.node_id, self.clock.now(), envelope, str(exc)
            )
            return None

    def handle(self, envelope: Envelope) -> tuple[list[Envelope], Work | None]:
        """React to one broker message: what to send now, and the work an
        accepted ``assign_execution`` became (the driver runs it)."""
        body = self.read(envelope)
        if isinstance(body, AssignExecution):
            with self.lock:
                if self.state == self.RUNNING:
                    self.inflight[body.execution_id] = False
                    return [], Work(body, self.epoch, envelope.trace)
            return [self._rejection(body, "provider draining")], None
        if isinstance(body, CancelExecution):
            with self.lock:
                # Only executions still in flight can be cancelled;
                # anything else (already finished, or assigned to a
                # previous incarnation) would leak in the map forever.
                if body.execution_id in self.inflight:
                    self.inflight[body.execution_id] = True
        elif isinstance(body, RegisterAck):
            self.registered = body.accepted
            if not body.accepted and body.reason == REASON_UNKNOWN_PROVIDER:
                # The broker restarted and lost our registration: it
                # answers our heartbeat with this rejection to ask us
                # back.  Any other rejection is permanent — asking again
                # would be refused again.
                return [self.registration()], None
        return [], None

    # -- one execution --------------------------------------------------------

    def run(self, work: Work) -> ExecutionOutcome | None:
        """Execute ``work`` now, on the caller's thread.  ``None`` means
        the broker cancelled it before it began; it is already purged."""
        with self.lock:
            if self.inflight.get(work.request.execution_id):
                self.finish(work)
                return None
            self.active += 1
        try:
            return self.executor.execute(work.request)
        finally:
            with self.lock:
                self.active -= 1

    def report(
        self,
        work: Work,
        outcome: ExecutionOutcome,
        started: float,
        finished: float,
    ) -> Envelope | None:
        """Account for one finished execution and build its result —
        ``None`` when the broker no longer wants it (it was cancelled, or
        a registration since has voided it).  Follow with :meth:`finish`
        once the result is on its way.

        The value leaves here as bytes, packed once with every NaN folded
        into one: what the broker votes on, stores and forwards unopened."""
        request, value = work.request, None
        if outcome.ok:
            try:
                value = packed(outcome.value, fold_nan=True)
            except (CodecError, RecursionError) as exc:  # nested past what any node opens
                error = f"result cannot be packed: {type(exc).__name__}: {exc}"
                outcome = ExecutionOutcome(ExecutionStatus.VM_ERROR, error=error)
        if self._metrics is not None:
            self._metrics.executions.labels(status=outcome.status.value).inc()
            self._metrics.execution_seconds.observe(finished - started)
        if self._tracer is not None:
            parent = TraceContext.from_dict(work.trace)
            if parent is not None:
                self._tracer.record(
                    name="provider.execute",
                    context=self._tracer.child(parent),
                    node=str(self.node_id),
                    start=started,
                    end=finished,
                    parent_id=parent.span_id,
                    status="ok" if outcome.ok else outcome.status.value,
                    attrs={
                        "execution_id": str(request.execution_id),
                        "instructions": outcome.instructions,
                    },
                )
        if not outcome.ok and self._events is not None:
            self._events.record(
                ev.EXECUTION_FAULT,
                node=str(self.node_id),
                ts=finished,
                execution_id=str(request.execution_id),
                tasklet_id=str(request.tasklet_id),
                status=outcome.status.value,
                error=outcome.error or "",
            )
        with self.lock:
            current = (
                not self.inflight.get(request.execution_id)
                and work.epoch == self.epoch
            )
        if not current:
            return None
        result = ExecutionResult(
            execution_id=request.execution_id,
            tasklet_id=request.tasklet_id,
            provider_id=self.node_id,
            status=outcome.status.value,
            value=value,
            error=outcome.error,
            instructions=outcome.instructions,
            started_at=started,
            finished_at=finished,
        )
        return self._send(result)

    def reject(self, work: Work, reason: str) -> Envelope:
        """Refuse work the driver finds it cannot run after all (its queue
        is full, its pool is shut) while still handling the assignment."""
        self.finish(work)
        return self._rejection(work.request, reason)

    def finish(self, work: Work) -> None:
        """``work`` is over on this node: purge its bookkeeping."""
        with self.lock:
            self.inflight.pop(work.request.execution_id, None)
            if not self.inflight and self.state == self.DRAINING:
                self.lock.notify_all()

    # -- helpers --------------------------------------------------------------

    def _rejection(self, request: AssignExecution, reason: str) -> Envelope:
        if self._metrics is not None:
            self._metrics.rejected.inc()
        rejection = ExecutionRejected(
            execution_id=request.execution_id,
            tasklet_id=request.tasklet_id,
            provider_id=self.node_id,
            reason=reason,
        )
        return self._send(rejection)

    def _send(self, body: MessageBody) -> Envelope:
        return body.envelope(src=self.node_id, dst=self.broker)
