"""Typed messages exchanged between consumers, brokers, and providers.

Every message travels inside an :class:`Envelope` — a routable record with
source, destination, message type, and a JSON-safe payload dict.  Bodies
are typed dataclasses, and the ``@_message`` decorator on each is the one
place a message type is listed: its name, its ``bin2`` wire tag and
whether its fields travel packed.  :mod:`repro.transport.codec` computes
its tag and field tables from this registry, and ``docs/PROTOCOL.md``
("Message table") lists every type with its direction — a tier-1 test
holds that table to the registry.

This module is also the wire *boundary*: whatever a peer sent is read
completely here, before any handler sees it.  :meth:`Envelope.from_dict`
yields a typed envelope header and :func:`body_of` a body whose every
field has its declared type; both raise
:class:`~repro.common.errors.TransportError` and nothing else
(DESIGN.md, "Wire boundary").
"""

from __future__ import annotations

import dataclasses
import itertools
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Type

from ..common.errors import TransportError
from ..common.ids import NodeId
from ..core.results import ExecutionStatus
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


class MessageBody:
    """Base class for typed message bodies.

    Subclasses are dataclasses whose fields are JSON-safe values;
    ``to_payload`` is just ``__dict__``, and ``from_payload`` reads a
    peer's payload against the table ``_message`` compiled from the
    field annotations.
    """

    TYPE: ClassVar[str] = ""
    #: ``bin2`` wire tag, and whether the payload travels field-packed.
    TAG: ClassVar[int] = 0
    PACKED: ClassVar[bool] = False
    #: Per field: name, whether it must be present, the exact runtime
    #: types it accepts (None = any) and a further check (or None) that
    #: returns what is wrong with a value of the right type, if anything.
    _FIELDS: ClassVar[tuple[tuple[str, bool, tuple | None, Callable | None], ...]] = ()

    def to_payload(self) -> dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "MessageBody":
        """The body ``payload`` holds, every field of its declared type —
        or :class:`TransportError`, before anything is built.

        Keys this version does not know are dropped and absent optional
        fields take their defaults: a newer or older peer's message
        still reads, which is what lets mixed-version clusters — and the
        fields added over time — interoperate.
        """
        values = {}
        for name, required, accepted, check in cls._FIELDS:
            if name in payload:
                value = values[name] = payload[name]
                if accepted is not None and type(value) not in accepted:
                    problem = f"is a {type(value).__name__}"
                elif check is None or (problem := check(value)) is None:
                    continue
            elif required:
                problem = "is missing"
            else:
                continue
            raise TransportError(f"malformed {cls.TYPE} payload: {name} {problem}")
        return cls(**values)

    def envelope(self, src: NodeId, dst: NodeId) -> Envelope:
        """Wrap this body for transmission."""
        return Envelope(type=self.TYPE, src=src, dst=dst, payload=self.to_payload())


def _accepted_types(annotation) -> tuple[type, ...] | None:
    """The exact runtime types a field annotated ``annotation`` may hold
    (None = anything): a ``float`` takes an int, a ``bool`` is never an
    int, containers are checked by container only."""
    if annotation is Any:
        return None
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        parts = [_accepted_types(part) for part in typing.get_args(annotation)]
        return None if None in parts else tuple(t for part in parts for t in part)
    if origin is not None:
        return (origin,)
    return (float, int) if annotation is float else (annotation,)


def _message(type_name: str, tag: int, packed: bool = False):
    """Class decorator: register the dataclass under ``type_name`` with
    its ``bin2`` wire ``tag`` (1-255, never reused; 0 is the codec's
    escape for a type it has no tag for) and compile, once, what reading
    it needs.  ``packed`` bodies travel as bare values in field order,
    which makes that order part of the ``bin2`` contract."""

    def wrap(cls):
        cls.TYPE, cls.TAG, cls.PACKED = type_name, tag, packed
        hints = typing.get_type_hints(cls)
        cls._FIELDS = tuple(
            (
                f.name,
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,
                _accepted_types(hints[f.name]),
                f.metadata.get("check"),
            )
            for f in dataclasses.fields(cls)
        )
        MESSAGE_TYPES[type_name] = cls
        return cls

    return wrap


def _one_of(choices) -> Any:
    """A required string field that takes a value of a closed set."""
    choices = frozenset(choices)

    def check(value: str) -> str | None:
        return None if value in choices else f"is not one of {sorted(choices)}"

    return field(metadata={"check": check})


def _records_of(shape: Type[MessageBody]) -> Any:
    """An optional list field whose items each read as a ``shape`` payload."""

    def check(items: list) -> str | None:
        for item in items:
            if type(item) is not dict:
                return f"holds a {type(item).__name__}"
            try:
                shape.from_payload(item)
            except TransportError as exc:
                return f"holds a {exc}"
        return None

    return field(default_factory=list, metadata={"check": check})


def body_of(envelope: Envelope) -> MessageBody:
    """The typed body of an envelope: every field of its declared type,
    or :class:`TransportError` — never another exception, never half a
    body."""
    body_class = MESSAGE_TYPES.get(envelope.type)
    if body_class is None:
        raise TransportError(f"unknown message type {envelope.type!r}")
    return body_class.from_payload(envelope.payload)


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
# Transport-level (any peer <-> broker)
# ---------------------------------------------------------------------------


@_message("hello", tag=22)
@dataclass
class Hello(MessageBody):
    """Transport handshake: the dialing peer's first message.

    ``codecs`` lists every wire codec the sender can *decode*, in
    preference order (see :mod:`repro.transport.codec`).  A broker that
    understands the hello answers with :class:`HelloAck` naming the
    codec it chose; both sides may then switch their *send* direction to
    it.  A peer that never sends (or never answers) a hello simply stays
    on length-prefixed JSON — the handshake is advisory, which is what
    lets old and new peers share a cluster.
    """

    node_id: str
    codecs: list[str] = field(default_factory=list)
    role: str = ""  # "provider" | "consumer" | "broker" (diagnostic only)


@_message("hello_ack", tag=23)
@dataclass
class HelloAck(MessageBody):
    """Broker's answer to a :class:`Hello`: the negotiated codec."""

    codec: str
    codecs: list[str] = field(default_factory=list)  # what the broker accepts


# ---------------------------------------------------------------------------
# Provider <-> broker
# ---------------------------------------------------------------------------


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
    """Periodic liveness + load report; also the failure detector input.

    ``sent_at`` is the sender's monotonic send timestamp; when non-zero
    the broker echoes it back in a :class:`HeartbeatAck` so the provider
    can measure its heartbeat round-trip time.  Zero (the default, used
    by the simulator) requests no ack, keeping simulated message flows
    unchanged.
    """

    provider_id: str
    free_slots: int
    queue_length: int = 0
    sent_at: float = 0.0


@_message("heartbeat_ack", tag=5, packed=True)
@dataclass
class HeartbeatAck(MessageBody):
    """Echo of a timestamped heartbeat (RTT measurement, telemetry only).

    Peers that predate this message ignore unknown envelope types, so
    the ack is safe to send to any provider that asked for it.
    """

    provider_id: str
    echo_sent_at: float


@_message("assign_execution", tag=6, packed=True)
@dataclass
class AssignExecution(MessageBody):
    """One replica of a Tasklet, shipped to one provider."""

    execution_id: str
    tasklet_id: str
    consumer_id: str
    program: dict[str, Any]  # CompiledProgram.to_dict()
    entry: str
    args: list[Any]
    seed: int
    fuel: int
    #: Content hash of ``program``; lets the provider's program cache hit
    #: without deserialising the payload.  Verified on every cache miss.
    program_fingerprint: str = ""


@_message("execution_result", tag=7, packed=True)
@dataclass
class ExecutionResult(MessageBody):
    """Terminal outcome of one execution attempt."""

    execution_id: str
    tasklet_id: str
    provider_id: str
    status: str = _one_of(status.value for status in ExecutionStatus)
    value: Any = None
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


# ---------------------------------------------------------------------------
# Consumer <-> broker
# ---------------------------------------------------------------------------


@_message("submit_tasklet", tag=10, packed=True)
@dataclass
class SubmitTasklet(MessageBody):
    """A consumer hands a Tasklet to the broker."""

    tasklet: dict[str, Any]  # Tasklet.to_dict()


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
    #: ``ExecutionRecord.to_dict()`` each: the fields of an ``execution_result``.
    executions: list[dict[str, Any]] = _records_of(ExecutionResult)


# ---------------------------------------------------------------------------
# Consumer <-> broker (workflows)
# ---------------------------------------------------------------------------


@_message("submit_workflow", tag=13, packed=True)
@dataclass
class SubmitWorkflow(MessageBody):
    """A consumer hands a whole DAG of tasklets to the broker.

    ``workflow`` is a :class:`repro.dag.WorkflowSpec` wire dict: node
    templates referencing deduplicated program fingerprints, with
    ``$from``/``$gather`` placeholders in node args naming predecessor
    outputs.  The broker owns the graph from here — successors are
    released and their arguments materialised broker-side, with no
    consumer round-trip between stages.
    """

    workflow: dict[str, Any]  # WorkflowSpec.to_dict()


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
    """Advisory progress report: one node changed state.

    Sent when a node starts running and when it reaches a terminal
    state.  Consumers may ignore these; the terminal
    :class:`WorkflowComplete` carries everything that matters.
    """

    workflow_id: str
    node_id: str
    state: str = _one_of((BLOCKED, READY, RUNNING, DONE, FAILED))  # repro.dag's
    attempts: int = 0
    error: str | None = None


@_message("workflow_complete", tag=16, packed=True)
@dataclass
class WorkflowComplete(MessageBody):
    """Terminal outcome of a workflow.

    On success ``outputs`` maps each sink node id to its value.  On
    failure ``failed_node`` names the node that exhausted its retries
    and ``dependents`` the downstream nodes that could no longer run.
    ``nodes_memoized`` counts nodes short-circuited by the broker's
    result cache (zero executions).
    """

    workflow_id: str
    ok: bool
    outputs: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    failed_node: str = ""
    dependents: list[str] = field(default_factory=list)
    nodes_total: int = 0
    nodes_memoized: int = 0


# ---------------------------------------------------------------------------
# Broker <-> broker (federation)
# ---------------------------------------------------------------------------


@_message("peer_hello", tag=17)
@dataclass
class PeerHello(MessageBody):
    """A broker announces itself to a configured peer.

    ``epoch`` is the sender's incarnation id (fresh per process start): a
    peer observing a *changed* epoch knows the broker restarted and that
    any work forwarded to the previous incarnation is gone.  The dialing
    side sets ``reply_expected`` so the listener answers with its own
    hello (with ``reply_expected=False``, terminating the exchange).
    """

    broker_id: str
    epoch: str
    reply_expected: bool = False


@_message("gossip_digest", tag=18)
@dataclass
class GossipDigest(MessageBody):
    """Periodic peer summary: registry size, load, health grade counts.

    Doubles as the peer liveness signal — a peer whose digests stop
    arriving is declared dead after the configured tolerance.  ``grades``
    maps health grade -> provider count (empty when the sending broker
    runs without telemetry).
    """

    broker_id: str
    epoch: str
    sent_at: float = 0.0
    providers_total: int = 0
    providers_alive: int = 0
    free_slots: int = 0
    pending_tasklets: int = 0
    backlog_replicas: int = 0
    grades: dict[str, int] = field(default_factory=dict)


@_message("forward_tasklet", tag=19, packed=True)
@dataclass
class ForwardTasklet(MessageBody):
    """One tasklet placed on a peer broker's provider pool.

    The origin broker stays responsible to its consumer: the peer
    executes and returns a :class:`ForwardComplete` to ``origin_broker``
    rather than talking to the consumer directly.  Re-sending the same
    forward is idempotent (the peer re-acks in-flight work and re-answers
    completed work), which is how forwards survive a dropped peer link.
    ``hops`` guards against forwarding chains: a forwarded tasklet is
    never forwarded again.
    """

    origin_broker: str
    consumer_id: str
    tasklet: dict[str, Any]  # Tasklet.to_dict()
    hops: int = 1


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
    """Terminal outcome of a forwarded tasklet, returned to the origin.

    ``executed_by`` names the broker whose providers actually executed
    the work ("" when the peer answered from its journal or result
    cache), so exactly-once accounting is auditable across the
    federation's journals.
    """

    tasklet_id: str
    consumer_id: str
    broker_id: str
    ok: bool
    value: Any = None
    error: str | None = None
    attempts: int = 0
    cost: float = 0.0
    executions: list[dict[str, Any]] = _records_of(ExecutionResult)
    executed_by: str = ""
