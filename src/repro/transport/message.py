"""Typed messages exchanged between consumers, brokers, and providers.

Every message travels inside an :class:`Envelope`; bodies are dataclasses,
and the ``@_message`` decorator on each is the one place a message type is
listed (name, ``bin2`` tag, packed or keyed).  docs/PROTOCOL.md has the
*Message table* (a tier-1 test holds it to this registry), each field's
meaning and the rules for an unreadable envelope; DESIGN.md, "Wire
boundary", says why.  This module is that boundary's outer half:
:meth:`Envelope.from_dict` yields a typed header and :func:`body_of` a body
read by the record grammar (:mod:`repro.common.record`); both raise
:class:`~repro.common.errors.TransportError` and nothing else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar, Type

from ..common.errors import TransportError
from ..common.ids import NodeId
from ..common.record import Record, compile_fields, identified, one_of, records_of
from ..core.results import ExecutionRecord, ExecutionStatus
from ..dag.scheduler import BLOCKED, DONE, FAILED, READY, RUNNING
from ..obs.events import MESSAGE_UNREADABLE

#: Broadcast / well-known addresses.
BROKER_ADDRESS = NodeId("broker")

#: ``register_ack.reason`` a broker uses to reject a heartbeat from a
#: provider it does not know (it restarted and lost its registry): the
#: provider answers by re-registering.  Part of the wire contract — see
#: docs/PROTOCOL.md, "Connection lifecycle".
REASON_UNKNOWN_PROVIDER = "unknown provider"

_envelope_counter = itertools.count()

#: What each envelope header field may hold once read off the wire.
_HEADER_TYPES: dict[str, tuple[type, ...]] = {
    "type": (str,),
    "src": (str,),
    "dst": (str,),
    "payload": (dict,),
    "seq": (int,),
    "trace": (dict, type(None)),
}


@dataclass
class Envelope:
    """Routable wrapper around one message body.

    ``trace`` is the optional telemetry trace context —
    ``{"trace_id": ..., "span_id": ...}`` — that lets receivers parent
    their spans on the sender's (see :mod:`repro.obs.trace`).  ``None``
    (telemetry disabled, or an untraced message type) is omitted from
    the wire form entirely, so the disabled path costs zero bytes.
    """

    type: str
    src: NodeId
    dst: NodeId
    payload: dict[str, Any]
    seq: int = field(default_factory=lambda: next(_envelope_counter))
    trace: dict[str, str] | None = None

    def to_dict(self) -> dict[str, Any]:
        data = {
            "type": self.type,
            "src": self.src,
            "dst": self.dst,
            "payload": self.payload,
            "seq": self.seq,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Envelope":
        """The envelope a decoded JSON frame holds, every header field of
        its type (the binary decoder's are by construction)."""
        header = {"seq": 0, "trace": None, **data}
        for name, accepted in _HEADER_TYPES.items():
            if type(header.get(name)) not in accepted:
                raise TransportError(f"malformed envelope: bad or missing {name!r}")
        return cls(**{name: header[name] for name in _HEADER_TYPES})


#: type-name -> body class registry, filled by ``_message`` below.
MESSAGE_TYPES: dict[str, Type["MessageBody"]] = {}


class MessageBody(Record):
    """Base class for typed message bodies: records whose fields are
    JSON-safe values, so the payload is just ``__dict__``."""

    TYPE: ClassVar[str] = ""
    #: ``bin2`` wire tag, and whether the payload travels field-packed.
    TAG: ClassVar[int] = 0
    PACKED: ClassVar[bool] = False

    def envelope(self, src: NodeId, dst: NodeId) -> Envelope:
        """Wrap this body for transmission."""
        return Envelope(type=self.TYPE, src=src, dst=dst, payload=dict(self.__dict__))


def _message(type_name: str, tag: int, packed: bool = False):
    """Class decorator: register the dataclass under ``type_name`` with
    its ``bin2`` wire ``tag`` (1-255, never reused; 0 is the codec's
    escape for a type it has no tag for).  ``packed`` bodies travel as
    bare values in field order, which makes that order part of the
    ``bin2`` contract."""

    def wrap(cls):
        cls.TYPE, cls.TAG, cls.PACKED = type_name, tag, packed
        MESSAGE_TYPES[type_name] = compile_fields(
            cls, f"{type_name} payload", TransportError
        )
        return cls

    return wrap


def body_of(envelope: Envelope) -> MessageBody:
    """The typed body of an envelope: every field of its declared type,
    or :class:`TransportError` — never another exception, never half a
    body."""
    body_class = MESSAGE_TYPES.get(envelope.type)
    if body_class is None:
        raise TransportError(f"unknown message type {envelope.type!r}")
    return body_class.from_dict(envelope.payload)


def report_unreadable(events, receiver, ts: float, envelope: Envelope, reason: str) -> None:
    """What every node says, once, about an envelope ``body_of`` refused:
    a ``message_unreadable`` event on its flight recorder (``events``;
    None = telemetry off) naming sender, type and reason."""
    if events is not None:
        events.record(
            MESSAGE_UNREADABLE,
            node=str(envelope.src),
            ts=ts,
            type=envelope.type,
            receiver=str(receiver),
            reason=reason,
        )


# ---------------------------------------------------------------------------
# The message types.  What each field means, who sends what to whom and
# when: docs/PROTOCOL.md ("Message table", "Field notes", "Federation").
# Only what the table cannot say is noted here.
# ---------------------------------------------------------------------------

# -- transport-level (any peer <-> broker) ------------------------------------


@_message("hello", tag=22)
@dataclass
class Hello(MessageBody):
    """Transport handshake: the dialing peer's first message."""

    node_id: str
    codecs: list[str] = field(default_factory=list)  # decodable, by preference
    role: str = ""  # "provider" | "consumer" | "broker" (diagnostic only)


@_message("hello_ack", tag=23)
@dataclass
class HelloAck(MessageBody):
    """Broker's answer to a :class:`Hello`: the negotiated codec."""

    codec: str
    codecs: list[str] = field(default_factory=list)  # what the broker accepts


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
    #: How often this provider promises to heartbeat; the broker's failure
    #: detector scales its per-provider horizon accordingly.
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
    #: Sender's monotonic send time; non-zero asks for a
    #: :class:`HeartbeatAck` (the simulator sends 0.0 and gets none).
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
    #: Hash of ``program``; lets the provider's program cache hit without
    #: opening the bytes.  Checked against them on every execution.
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
    executions: list[dict[str, Any]] = records_of(ExecutionRecord)


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


@_message("workflow_update", tag=15, packed=True)
@dataclass
class WorkflowUpdate(MessageBody):
    """Advisory progress report: one node changed state."""

    workflow_id: str
    node_id: str
    state: str = one_of((BLOCKED, READY, RUNNING, DONE, FAILED))  # repro.dag's
    attempts: int = 0
    error: str | None = None


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
    executions: list[dict[str, Any]] = records_of(ExecutionRecord)
    #: Broker whose providers ran it ("" = answered from a journal or the
    #: result cache): what the exactly-once audit counts.
    executed_by: str = ""
