"""The forwarding plane: one broker's dealings with its federation peers.

:class:`ForwardingPlane` wraps the sans-IO peer table
(:class:`~repro.broker.federation.FederationCore`) with everything that
moves work between brokers: saturation forwarding and its acks, terminal
outcomes flowing back, reclaim when a peer dies or restarts, gossip, and
adoption of a dead peer's journal.  It exists only on a federated broker
and reaches the tasklet lifecycle only through the core's ``_admit`` /
``_issue`` / ``_complete``.  What is forwarded *out* is this plane's own
table — one :class:`_Forward` per tasklet a peer is working on, written
here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..common.ids import NodeId
from ..obs.trace import TraceContext
from ..transport.message import (
    Envelope,
    ForwardAck,
    ForwardComplete,
    ForwardTasklet,
    GossipDigest,
    PeerHello,
)
from .federation import (
    FORWARD_RESEND_INTERVAL_S,
    MAX_HOPS,
    PEER_CAME_UP,
    PEER_EPOCH_CHANGED,
    FederationCore,
)
from .journal import CompletionRecord, replay_journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import BrokerCore, _TaskletState


@dataclass(slots=True)
class _Forward:
    """One outbound forward: nothing runs locally until the peer answers
    or the work is reclaimed."""

    state: "_TaskletState"
    peer: NodeId
    forwarded_at: float
    acked: bool = False
    last_sent: float = 0.0
    #: The in-flight ``broker.forward`` span the peer broker parents its
    #: own ``broker.tasklet`` on (written by the observer; None when
    #: telemetry is off).
    trace_ctx: TraceContext | None = None


class ForwardingPlane:
    """Peer-facing half of a federated broker."""

    def __init__(self, core: "BrokerCore", federation: FederationCore):
        self.core = core
        self.federation = federation
        #: Outbound forwards in flight, by tasklet key.
        self.forwards: dict[str, _Forward] = {}
        #: Peer message types this plane handles (for the dispatch table).
        self.handlers: dict[type, Callable[..., list[Envelope]]] = {
            PeerHello: self.on_peer_hello,
            GossipDigest: self.on_gossip,
            ForwardTasklet: self.on_forward,
            ForwardAck: self.on_forward_ack,
            ForwardComplete: self.on_forward_complete,
        }

    # -- outbound forwards -------------------------------------------------------

    def target(self) -> str | None:
        """Peer to forward a fresh admission to, or ``None`` (keep local)."""
        if self.core.registry.free_capacity > 0:
            return None  # local capacity exists; no reason to forward
        return self.federation.choose_peer()

    def forward(self, state: "_TaskletState", peer_id: str, now: float) -> Envelope:
        """Hand a fresh admission to a peer broker with free capacity."""
        forward = self.forwards[state.key] = _Forward(state, NodeId(peer_id), now)
        self.core.observer.forwarded(forward)
        return self._envelope(forward, now)

    def _envelope(self, forward: _Forward, now: float) -> Envelope:
        """(Re-)send one forward; idempotent on the receiving peer."""
        forward.last_sent = now
        state = forward.state
        envelope = self.core._send(
            ForwardTasklet(
                origin_broker=str(self.core.node_id),
                consumer_id=str(state.consumer_id),
                tasklet=state.wire,
            ),
            forward.peer,
        )
        if forward.trace_ctx is not None:
            envelope.trace = forward.trace_ctx.to_dict()
        return envelope

    def on_forward_ack(self, body: ForwardAck, envelope: Envelope) -> list[Envelope]:
        forward = self.forwards.get(f"{body.consumer_id}/{body.tasklet_id}")
        if forward is None:
            return []
        if body.broker_id and body.broker_id != forward.peer:
            return []  # ack from a peer this tasklet was reclaimed from
        if body.accepted:
            forward.acked = True
            return []
        return self._reclaim(forward, reason=body.reason or "rejected by peer")

    def on_forward_complete(
        self, body: ForwardComplete, envelope: Envelope
    ) -> list[Envelope]:
        key = f"{body.consumer_id}/{body.tasklet_id}"
        state = self.core._tasklets.get(key)
        if state is None or state.done:
            return []  # duplicate outcome; the first one already won
        forward = self.forwards.get(key)
        if (forward is None or forward.peer != envelope.src) and state.reclaimed_from != envelope.src:
            # Only the peer the work went to may end it — or, when a reclaim
            # raced its outcome (no record now), the peer it was taken from.
            reason = f"{envelope.src} completed {key}, which it was not forwarded"
            self.core.observer.message_unreadable(envelope, reason)
            return []
        self.core.observer.forward_completed(self.forwards.pop(key, None), body.ok)
        # _complete cancels any local replicas issued by a racing reclaim,
        # so a peer outcome arriving late still resolves exactly once.
        return self.core._complete(
            state, ok=body.ok, value=body.value, error=body.error, remote=body
        )

    def forget(self, state: "_TaskletState") -> None:
        """``state`` completed: whatever a peer still holds of it is moot."""
        forward = self.forwards.pop(state.key, None)
        if forward is not None:
            self.core.observer.forward_cancelled(forward)

    def _reclaim(self, forward: _Forward, reason: str) -> list[Envelope]:
        """Take forwarded work back and run it locally.

        Only called when the forward is *known* dead — peer declared
        dead, peer restarted under a new epoch, or explicit rejection —
        never on a blind timeout, which is what preserves exactly-once.
        """
        state = forward.state
        del self.forwards[state.key]
        state.reclaimed_from = forward.peer
        self.core.observer.forward_reclaimed(forward, reason)
        return self.core._issue(state, state.qoc.redundancy)

    def _reclaim_from(self, peer_id: str, reason: str) -> list[Envelope]:
        out: list[Envelope] = []
        for forward in [f for f in self.forwards.values() if f.peer == peer_id]:
            out.extend(self._reclaim(forward, reason))
        return out

    # -- inbound forwards --------------------------------------------------------

    def on_forward(self, body: ForwardTasklet, envelope: Envelope) -> list[Envelope]:
        """Admit (or idempotently re-answer) work forwarded by a peer."""
        core = self.core
        origin = NodeId(body.origin_broker)
        admission = core._admit_wire(
            NodeId(body.consumer_id),
            body.tasklet,
            origin=origin,
            trace=envelope.trace,
            accept=lambda: self._refusal(body.hops),
        )
        # A duplicate of in-flight or finished work (the origin re-sent an
        # unacked forward) is re-acked; finished work is re-answered too.
        ack = ForwardAck(
            tasklet_id=admission.tasklet_id,
            consumer_id=body.consumer_id,
            accepted=admission.refusal is None,
            broker_id=str(core.node_id),
            reason=admission.refusal or "",
        )
        out = [core._send(ack, origin)]
        if admission.completion is not None:
            out.append(core._send(self.complete_of(admission.completion), origin))
        elif admission.state is not None:
            out.extend(core._issue(admission.state, admission.state.qoc.redundancy))
        return out

    def _refusal(self, hops: int) -> str | None:
        """Why new forwarded work cannot be taken (None = it can)."""
        if hops > MAX_HOPS:
            return f"too many hops ({hops})"
        if self.core.registry.free_capacity <= 0:
            # The gossip view the origin routed on is stale; rejecting
            # (rather than queueing) sends the work back to a broker that
            # holds the durable admission.
            return "no free capacity"
        return None

    def complete_of(
        self, completion: CompletionRecord, executions: list[dict] | None = None
    ) -> ForwardComplete:
        """Terminal outcome of forwarded work, built from its record (a
        duplicate forward is re-answered without the execution list)."""
        return ForwardComplete(
            tasklet_id=completion.tasklet_id,
            consumer_id=completion.consumer_id,
            broker_id=str(self.core.node_id),
            ok=completion.ok,
            value=completion.value,
            error=completion.error,
            attempts=completion.attempts,
            cost=completion.cost,
            executions=executions or [],
            executed_by=completion.executed_by,
        )

    # -- peers ---------------------------------------------------------------------

    def _observe_peer(self, body: PeerHello | GossipDigest) -> list[Envelope]:
        """Fold a peer sighting into the table; react to transitions."""
        out: list[Envelope] = []
        broker_id, epoch = body.broker_id, body.epoch
        for transition in self.federation.observe(
            broker_id, epoch, self.core.clock.now()
        ):
            if transition == PEER_CAME_UP:
                self.core.observer.peer_up(broker_id, epoch)
            elif transition == PEER_EPOCH_CHANGED:
                # The previous incarnation's in-memory state — including
                # everything we forwarded to it — is gone.
                out.extend(
                    self._reclaim_from(
                        broker_id, reason="peer restarted (epoch changed)"
                    )
                )
        return out

    def on_peer_hello(self, body: PeerHello, envelope: Envelope) -> list[Envelope]:
        out = self._observe_peer(body)
        if body.reply_expected:
            hello = PeerHello(
                broker_id=str(self.core.node_id), epoch=self.federation.epoch
            )
            out.append(self.core._send(hello, NodeId(body.broker_id)))
        return out

    def on_gossip(self, body: GossipDigest, envelope: Envelope) -> list[Envelope]:
        out = self._observe_peer(body)
        self.federation.update_load(
            body.broker_id,
            providers_total=body.providers_total,
            providers_alive=body.providers_alive,
            free_slots=body.free_slots,
            pending_tasklets=body.pending_tasklets,
            backlog_replicas=body.backlog_replicas,
            grades=body.grades,
        )
        self.core.observer.gossiped("in")
        return out

    def tick(self, now: float) -> list[Envelope]:
        """Gossip, peer failure detection, and unacked-forward re-sends."""
        core = self.core
        out: list[Envelope] = []
        dead, gossip_due = self.federation.tick(now)
        for peer_id in dead:
            core.observer.peer_down(peer_id)
            out.extend(self._on_peer_dead(peer_id))
        if gossip_due and self.federation.peers:
            digest = self._digest(now)
            for peer_id in self.federation.peer_ids():
                out.append(core._send(digest, NodeId(peer_id)))
                core.observer.gossiped("out")
        for forward in self.forwards.values():
            if forward.acked or now - forward.last_sent < FORWARD_RESEND_INTERVAL_S:
                continue
            peer = self.federation.peers.get(forward.peer)
            if peer is not None and peer.alive:
                # Safe to repeat: the peer admits forwards idempotently.
                out.append(self._envelope(forward, now))
        return out

    def _digest(self, now: float) -> GossipDigest:
        core = self.core
        records = core.registry.records()
        return GossipDigest(
            broker_id=str(core.node_id),
            epoch=self.federation.epoch,
            sent_at=now,
            providers_total=len(records),
            providers_alive=sum(1 for record in records if record.alive),
            free_slots=core.registry.free_capacity,
            pending_tasklets=len(core._tasklets),
            backlog_replicas=core.backlog.replicas,
            grades=core.observer.provider_grades(core.registry),
        )

    def _on_peer_dead(self, peer_id: str) -> list[Envelope]:
        out = self._reclaim_from(peer_id, reason="peer broker dead")
        journal_path = self.federation.config.peer_journals.get(peer_id)
        successor = self.federation.successor_of(peer_id)
        if journal_path and successor == str(self.core.node_id):
            out.extend(self._adopt_journal(peer_id, journal_path))
        return out

    def _adopt_journal(self, peer_id: str, path: str) -> list[Envelope]:
        """Adopt a dead peer's journal (this broker is its successor).

        Completions become re-deliverable here (consumers failing over
        get journalled outcomes instead of re-executions); pending
        admissions are re-admitted, journalled here and executed.
        """
        try:
            snapshot = replay_journal(path)
        except OSError:
            return []
        completions, pending, out = self.core._absorb(snapshot, own=False)
        self.core.observer.journal_adopted(
            peer_id, pending, completions, snapshot.malformed
        )
        return out

    # -- monitoring ------------------------------------------------------------------

    def describe(self, now: float) -> dict:
        """The ``federation`` block of the ``/healthz`` document."""
        return {
            "epoch": self.federation.epoch,
            "peers": [peer.to_dict(now) for peer in self.federation.peers.values()],
            "forwarded_pending": len(self.forwards),
        }
