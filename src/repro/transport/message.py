"""Typed messages exchanged between consumers, brokers, and providers.

Every message travels inside an :class:`Envelope`; bodies are dataclasses,
and the ``@_message`` decorator on each is the one place a message type is
listed (name, ``bin2`` tag, packed or keyed).  docs/PROTOCOL.md has the
*Message table* (a tier-1 test holds it to this registry), each field's
meaning and the rules for an unreadable envelope; DESIGN.md, "Wire
boundary", says why.  The codec (:mod:`repro.transport.codec`) reads a
field-packed frame straight into its body, by the record grammar
(:mod:`repro.common.record`); :func:`body_of` reads any other, and both
raise :class:`~repro.common.errors.TransportError` and nothing else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar, Type

from ..common.errors import TransportError
from ..common.ids import NodeId
from ..common.record import Record, compile_fields, identified, one_of
from ..core.results import ExecutionRecord, ExecutionStatus

#: Broadcast / well-known addresses.
BROKER_ADDRESS = NodeId("broker")

#: ``register_ack.reason`` a broker uses to reject a heartbeat from a
#: provider it does not know (it restarted and lost its registry): the
#: provider answers by re-registering.  Part of the wire contract — see
#: docs/PROTOCOL.md, "Connection lifecycle".
REASON_UNKNOWN_PROVIDER = "unknown provider"

_envelope_counter = itertools.count()


class Envelope:
    """Routable wrapper around one message body.

    ``body``: the typed body as its sender built it or (``decoded``) as the
    codec read it off a field-packed frame, which :func:`body_of` hands out
    as it is; ``prepacked``: its fields as the sender already packed them
    (None: the codec packs them).  ``payload``: the fields by name, made on
    first use, the caller's to edit, and from then on what is read and sent.
    ``trace``: the optional telemetry context (:mod:`repro.obs.trace`);
    ``None`` is one clear flag bit on the wire.
    """

    __slots__ = ("type", "src", "dst", "seq", "trace", "body", "decoded", "prepacked", "_payload")

    def __init__(self, type: str, src: NodeId, dst: NodeId, payload: dict | None = None,
                 seq: int | None = None, trace: dict | None = None, body=None, decoded=False):
        self.type, self.src, self.dst, self.trace = type, src, dst, trace
        self.seq = next(_envelope_counter) if seq is None else seq
        self.body: MessageBody | None = None if payload is not None else body
        self.decoded, self.prepacked, self._payload = decoded, None, payload

    def _get_payload(self) -> dict[str, Any]:
        if self._payload is None:
            self._payload, self.body, self.prepacked = dict(self.body.wire_fields()), None, None
        return self._payload

    def _set_payload(self, payload: dict[str, Any]) -> None:
        self._payload, self.body, self.prepacked = payload, None, None

    payload = property(_get_payload, _set_payload)

    def _key(self) -> tuple:
        fields = self.body.wire_fields() if self._payload is None else self._payload
        return self.type, self.src, self.dst, fields, self.seq, self.trace

    def __eq__(self, other) -> bool:
        return isinstance(other, Envelope) and self._key() == other._key()

    def __repr__(self) -> str:  # (type, src, dst, fields, seq, trace)
        return f"Envelope{self._key()!r}"


#: type-name -> body class registry, filled by ``_message`` below.
MESSAGE_TYPES: dict[str, Type["MessageBody"]] = {}


class MessageBody(Record):
    """Base class for typed message bodies: records whose payload is their
    wire form, ``__dict__`` itself unless a field holds records."""

    TYPE: ClassVar[str] = ""
    #: ``bin2`` wire tag, and whether the payload travels field-packed.
    TAG: ClassVar[int] = 0
    PACKED: ClassVar[bool] = False

    def envelope(self, src: NodeId, dst: NodeId) -> Envelope:
        """Wrap this body for transmission."""
        return Envelope(self.TYPE, src, dst, body=self)


def _message(type_name: str, tag: int, packed: bool = False):
    """Class decorator: register the dataclass under ``type_name`` with its
    ``bin2`` wire ``tag`` (1-255, never reused; 0 is the codec's escape for
    a type it has no tag for; retired: 15, the per-node workflow progress
    report, and 22 and 23, the ``hello`` / ``hello_ack`` handshake).
    ``packed`` bodies travel as bare values in field order, which makes
    that order part of the ``bin2`` contract."""

    def wrap(cls):
        cls.TYPE, cls.TAG, cls.PACKED = type_name, tag, packed
        MESSAGE_TYPES[type_name] = compile_fields(
            cls, f"{type_name} payload", TransportError
        )
        return cls

    return wrap


def body_of(envelope: Envelope) -> MessageBody:
    """The typed body of an envelope — the one the codec read, or its fields read: every field of
    its declared type, or :class:`TransportError` — never another exception, never half a body."""
    body = envelope.body
    if body is not None and envelope.decoded:
        return body
    body_class = MESSAGE_TYPES.get(envelope.type)
    if body_class is None:
        raise TransportError(f"unknown message type {envelope.type!r}")
    return body_class.from_dict(envelope.payload if body is None else body.wire_fields())


# -- The message types.  What each field means, who sends what to whom and when:
# -- docs/PROTOCOL.md ("Message table", "Field notes", "Federation"); only what it cannot say is here.

# -- provider <-> broker ---------------------------------------------------------


@_message("register_provider", tag=1)
@dataclass
class RegisterProvider(MessageBody):
    """A provider joins the pool, reporting its capabilities."""

    provider_id: str
    device_class: str
    capacity: int  # concurrent execution slots
    benchmark_score: float  # instructions/second from self-benchmark
    price: float = 0.0  # cost units per 1e9 instructions (cost QoC)
    #: Promised heartbeat period: the broker's failure detector scales this provider's horizon by it.
    heartbeat_interval: float = 1.0


@_message("register_ack", tag=2)
@dataclass
class RegisterAck(MessageBody):
    accepted: bool
    reason: str = ""


@_message("unregister", tag=3)
@dataclass
class Unregister(MessageBody):
    provider_id: str


@_message("heartbeat", tag=4, packed=True)
@dataclass
class Heartbeat(MessageBody):
    """Periodic liveness + load report; also the failure detector input."""

    provider_id: str
    free_slots: int
    queue_length: int = 0
    #: Sender's monotonic send time; non-zero asks for a :class:`HeartbeatAck` (the simulator's 0.0 does not).
    sent_at: float = 0.0


@_message("heartbeat_ack", tag=5, packed=True)
@dataclass
class HeartbeatAck(MessageBody):
    """Echo of a timestamped heartbeat (RTT measurement, telemetry only)."""

    provider_id: str
    echo_sent_at: float


@_message("assign_execution", tag=6, packed=True)
@dataclass
class AssignExecution(MessageBody):
    """One replica of a Tasklet, shipped to one provider."""

    execution_id: str
    tasklet_id: str
    consumer_id: str
    program: bytes  # a packed ``program``: the bytes the consumer sent, opened on a cache miss
    entry: str
    args: bytes  # the packed argument list: the bytes the consumer sent, opened to run
    seed: int
    fuel: int
    #: Hash of ``program``: the provider's program cache hits by it, and checks it against the bytes always.
    program_fingerprint: str = ""


@_message("execution_result", tag=7, packed=True)
@dataclass
class ExecutionResult(MessageBody):
    """Terminal outcome of one execution attempt."""

    execution_id: str
    tasklet_id: str
    provider_id: str
    status: str = one_of(status.value for status in ExecutionStatus)
    value: Any = None  # packed bytes (None: none); their user checks them (PROTOCOL.md)
    error: str | None = None
    instructions: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0


@_message("execution_rejected", tag=8, packed=True)
@dataclass
class ExecutionRejected(MessageBody):
    execution_id: str
    tasklet_id: str
    provider_id: str
    reason: str = ""


@_message("cancel_execution", tag=9, packed=True)
@dataclass
class CancelExecution(MessageBody):
    """Sent when a replica's result is no longer needed (vote decided)."""

    execution_id: str


# -- consumer <-> broker -----------------------------------------------------------


@_message("submit_tasklet", tag=10, packed=True)
@dataclass
class SubmitTasklet(MessageBody):
    """A consumer hands a Tasklet to the broker."""

    tasklet: dict[str, Any] = identified("tasklet_id")  # a ``tasklet`` record


@_message("submit_ack", tag=11, packed=True)
@dataclass
class SubmitAck(MessageBody):
    tasklet_id: str
    accepted: bool
    reason: str = ""


@_message("tasklet_complete", tag=12, packed=True)
@dataclass
class TaskletComplete(MessageBody):
    """Final, voted outcome delivered to the consumer."""

    tasklet_id: str
    ok: bool
    value: Any = None
    error: str | None = None
    attempts: int = 0
    cost: float = 0.0  # total billed across all executions (cost QoC)
    executions: list[ExecutionRecord] = field(default_factory=list)


@_message("submit_workflow", tag=13, packed=True)
@dataclass
class SubmitWorkflow(MessageBody):
    """A consumer hands a whole DAG of tasklets to the broker."""

    workflow: dict[str, Any] = identified("workflow_id")  # a ``workflow`` record


@_message("workflow_ack", tag=14, packed=True)
@dataclass
class WorkflowAck(MessageBody):
    """Broker's admission decision for one submitted workflow."""

    workflow_id: str
    accepted: bool
    reason: str = ""


@_message("workflow_complete", tag=16, packed=True)
@dataclass
class WorkflowComplete(MessageBody):
    """Terminal outcome of a workflow."""

    workflow_id: str
    ok: bool
    outputs: dict[str, Any] = field(default_factory=dict)  # sink node id -> packed result
    error: str | None = None
    failed_node: str = ""
    dependents: list[str] = field(default_factory=list)
    nodes_total: int = 0
    nodes_memoized: int = 0  # served by the result cache, zero executions


# -- broker <-> broker (federation) -----------------------------------------------


@_message("peer_hello", tag=17)
@dataclass
class PeerHello(MessageBody):
    """A broker announces itself to a configured peer."""

    broker_id: str
    epoch: str  # fresh per process start: a changed epoch is a restart
    reply_expected: bool = False  # set by the dialing side only


@_message("gossip_digest", tag=18)
@dataclass
class GossipDigest(MessageBody):
    """Periodic peer summary; doubles as the peer liveness signal."""

    broker_id: str
    epoch: str
    sent_at: float = 0.0
    providers_total: int = 0
    providers_alive: int = 0
    free_slots: int = 0
    pending_tasklets: int = 0
    backlog_replicas: int = 0
    grades: dict[str, int] = field(default_factory=dict)  # health grade -> count


@_message("forward_tasklet", tag=19, packed=True)
@dataclass
class ForwardTasklet(MessageBody):
    """One tasklet placed on a peer broker's provider pool."""

    origin_broker: str
    consumer_id: str
    tasklet: dict[str, Any] = identified("tasklet_id")  # a ``tasklet`` record
    hops: int = 1  # a forwarded tasklet is never forwarded again


@_message("forward_ack", tag=20, packed=True)
@dataclass
class ForwardAck(MessageBody):
    """Peer's admission decision for one forwarded tasklet."""

    tasklet_id: str
    consumer_id: str
    accepted: bool
    broker_id: str = ""
    reason: str = ""


@_message("forward_complete", tag=21, packed=True)
@dataclass
class ForwardComplete(MessageBody):
    """Terminal outcome of a forwarded tasklet, returned to the origin."""

    tasklet_id: str
    consumer_id: str
    broker_id: str
    ok: bool
    value: Any = None
    error: str | None = None
    attempts: int = 0
    cost: float = 0.0
    executions: list[ExecutionRecord] = field(default_factory=list)
    #: Broker whose providers ran it ("" = from a journal or the result cache): the exactly-once audit's count.
    executed_by: str = ""
