"""Broker federation: the peer table and gossip bookkeeping.

A federation is a *static peer set*: every broker is configured with the
ids of its peers (and, on TCP, their addresses) and exchanges periodic
:class:`~repro.transport.message.GossipDigest` messages summarising its
registry, load, and health grades.  The digest stream doubles as the
peer failure detector — a peer whose digests stop arriving for
:data:`PEER_TOLERANCE` gossip intervals is declared dead.

:class:`FederationCore` is sans-IO state shared by the simulator and the
TCP deployment, mirroring the broker-core pattern: it never sends
anything itself, it only answers questions (*which peers are alive*,
*who has capacity*, *is gossip due*, *did a peer's epoch change*) for
:class:`~repro.broker.core.BrokerCore`, which turns the answers into
envelopes.

Epochs are incarnation ids: each broker process mints a fresh one at
start.  A peer observing a changed epoch knows the broker restarted and
that everything forwarded to the previous incarnation is gone — the
trigger for reclaiming forwarded work.  (The restarted broker itself
never re-admits peer-forwarded work from its journal: ``admitted``
records carrying an ``origin`` are the origin broker's responsibility.)
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

#: Gossip intervals of digest silence before a peer is declared dead.
PEER_TOLERANCE = 3.0
#: Seconds before an unacknowledged forward is re-sent (safe: forwards are
#: idempotent on the receiving peer).
FORWARD_RESEND_INTERVAL_S = 5.0
#: Forwarded tasklets are never forwarded again past this hop count.
MAX_HOPS = 1


@dataclass
class FederationConfig:
    """Tunable federation behaviour (attach to :class:`BrokerCore`)."""

    #: Ids of the peer brokers in the static peer set.
    peers: list[str] = field(default_factory=list)
    #: Seconds between outbound gossip digests.
    gossip_interval: float = 1.0
    #: peer broker id -> journal path.  When a peer dies and this broker
    #: is the deterministic successor (lowest live broker id), it adopts
    #: the dead peer's journal: completions become re-deliverable here
    #: and pending work is re-admitted and executed.
    peer_journals: dict[str, str] = field(default_factory=dict)
    #: Incarnation id override (tests); ``None`` mints a fresh one.
    epoch: str | None = None


@dataclass
class PeerState:
    """Last known view of one peer broker, fed by hellos and digests."""

    broker_id: str
    epoch: str = ""
    alive: bool = False
    last_seen: float = 0.0
    seen_ever: bool = False
    providers_total: int = 0
    providers_alive: int = 0
    free_slots: int = 0
    pending_tasklets: int = 0
    backlog_replicas: int = 0
    grades: dict[str, int] = field(default_factory=dict)

    def to_dict(self, now: float) -> dict:
        return {
            "broker_id": self.broker_id,
            "alive": self.alive,
            "epoch": self.epoch,
            "last_seen_age_s": (
                round(max(0.0, now - self.last_seen), 3) if self.seen_ever else None
            ),
            "providers_alive": self.providers_alive,
            "providers_total": self.providers_total,
            "free_slots": self.free_slots,
            "pending_tasklets": self.pending_tasklets,
            "backlog_replicas": self.backlog_replicas,
            "grades": dict(self.grades),
        }


#: Transitions :meth:`FederationCore.observe` reports to the broker core.
PEER_CAME_UP = "up"
PEER_EPOCH_CHANGED = "epoch_changed"


class FederationCore:
    """Peer table + gossip timing for one broker (see module docstring)."""

    def __init__(self, node_id: str, config: FederationConfig | None = None):
        self.node_id = node_id
        self.config = config or FederationConfig()
        self.epoch = self.config.epoch or uuid.uuid4().hex[:12]
        self.peers: dict[str, PeerState] = {
            peer_id: PeerState(broker_id=peer_id)
            for peer_id in self.config.peers
            if peer_id != node_id
        }
        self._last_gossip: float | None = None

    # -- observations --------------------------------------------------------

    def observe(self, broker_id: str, epoch: str, now: float) -> list[str]:
        """Fold one peer sighting (hello or digest) into the table.

        Returns the transitions it caused: :data:`PEER_CAME_UP` when a
        dead/unseen peer became alive, :data:`PEER_EPOCH_CHANGED` when a
        known peer returned under a new incarnation (its previous
        incarnation's state — including work forwarded to it — is gone).
        Unknown peers are added defensively so asymmetric configurations
        still converge.
        """
        if broker_id == self.node_id:
            return []
        peer = self.peers.get(broker_id)
        if peer is None:
            peer = PeerState(broker_id=broker_id)
            self.peers[broker_id] = peer
        transitions = []
        if peer.seen_ever and peer.epoch and epoch and peer.epoch != epoch:
            transitions.append(PEER_EPOCH_CHANGED)
        if not peer.alive:
            transitions.append(PEER_CAME_UP)
        peer.alive = True
        peer.seen_ever = True
        peer.last_seen = now
        if epoch:
            peer.epoch = epoch
        return transitions

    def update_load(
        self,
        broker_id: str,
        providers_total: int,
        providers_alive: int,
        free_slots: int,
        pending_tasklets: int,
        backlog_replicas: int,
        grades: dict[str, int],
    ) -> None:
        """Fold one digest's load/health summary into the peer table."""
        peer = self.peers.get(broker_id)
        if peer is None:
            return
        peer.providers_total = providers_total
        peer.providers_alive = providers_alive
        peer.free_slots = free_slots
        peer.pending_tasklets = pending_tasklets
        peer.backlog_replicas = backlog_replicas
        peer.grades = dict(grades)

    # -- timing ---------------------------------------------------------------

    def tick(self, now: float) -> tuple[list[str], bool]:
        """Advance timers: ``(newly dead peer ids, gossip due?)``."""
        horizon = PEER_TOLERANCE * self.config.gossip_interval
        dead = []
        for peer in self.peers.values():
            if peer.alive and now - peer.last_seen > horizon:
                peer.alive = False
                dead.append(peer.broker_id)
        gossip_due = (
            self._last_gossip is None
            or now - self._last_gossip >= self.config.gossip_interval
        )
        if gossip_due:
            self._last_gossip = now
        return dead, gossip_due

    # -- queries ---------------------------------------------------------------

    def peer_ids(self) -> list[str]:
        return sorted(self.peers)

    def alive_peers(self) -> list[PeerState]:
        return [peer for peer in self.peers.values() if peer.alive]

    def choose_peer(self) -> str | None:
        """Best forwarding target: most free capacity, ties by id.

        Only peers currently alive *and* advertising free slots qualify
        (routing on the gossiped health/load view, not blind
        round-robin); ``None`` means keep the work local.
        """
        candidates = [
            peer for peer in self.peers.values() if peer.alive and peer.free_slots > 0
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda peer: (-peer.free_slots, peer.broker_id))
        return candidates[0].broker_id

    def successor_of(self, dead_broker_id: str) -> str:
        """Deterministic adopter of a dead peer's journal.

        The lowest broker id among the live candidates (this broker and
        its currently-alive peers); every surviving broker computes the
        same answer from its own view, so exactly one adopts.
        """
        candidates = [self.node_id] + [
            peer.broker_id for peer in self.alive_peers()
            if peer.broker_id != dead_broker_id
        ]
        return min(candidates)
