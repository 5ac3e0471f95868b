"""One local TCP cluster: how experiments, smoke scripts and integration
tests start brokers, providers and consumers on loopback, wait on them,
and take them down.

``LocalCluster("b1", "b2", "b3", journal="dir/journal_{id}.jsonl")``
starts three journal-backed brokers, each naming the other two as peers
(with their journals, for handoff); ``provider`` and ``consumer`` attach
nodes; ``kill`` and ``restart`` take a broker down and bring it back on
its port with its journal; leaving the ``with`` block stops every node.
"""

from __future__ import annotations

import socket
import time

from ..broker.core import BrokerConfig
from ..broker.journal import replay_journal
from ..obs import Telemetry
from ..transport.tcp import TcpBroker, TcpConsumer, TcpProvider

#: Failure detection in fractions of a second, not the defaults' seconds.
FAST_CONFIG = BrokerConfig(
    heartbeat_interval=0.2, heartbeat_tolerance=3.0, execution_timeout=30.0
)


def free_ports(count: int) -> list[int]:
    """``count`` distinct ephemeral ports, for nodes that must know each
    other's addresses before any of them is up.  Every socket is held until
    all are picked, so the kernel cannot hand out one port twice."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def wait_until(predicate, timeout: float = 10.0, what: str = "condition"):
    """Poll ``predicate`` until it is truthy and return that value; raise
    :class:`TimeoutError` naming ``what`` after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out after {timeout}s waiting for {what}")
        time.sleep(0.02)


class LocalCluster:
    """Brokers by id on loopback, plus the providers and consumers started
    through it; a context manager that stops them all.

    ``journal`` is a journal path in which ``{id}`` stands for the broker
    id.  ``telemetry`` maps a broker id to the :class:`Telemetry` that
    broker records into; with ``obs`` every broker serves its observability
    endpoints, and peers know each other's.  Every broker runs
    :data:`FAST_CONFIG` and ``strategy``.
    """

    def __init__(
        self,
        *broker_ids: str,
        journal: str | None = None,
        telemetry: dict[str, Telemetry] | None = None,
        obs: bool = False,
        strategy: str = "qoc",
    ):
        ports = free_ports(2 * len(broker_ids) if obs else len(broker_ids))
        self.addresses = {
            bid: ("127.0.0.1", port) for bid, port in zip(broker_ids, ports)
        }
        self._obs_ports = dict(zip(broker_ids, ports[len(broker_ids):]))
        self.journals = (
            {bid: journal.format(id=bid) for bid in broker_ids} if journal else {}
        )
        self._telemetry = telemetry or {}
        self._strategy = strategy
        self.brokers: dict[str, TcpBroker] = {}
        self._providers: list[TcpProvider] = []
        self._consumers: list[TcpConsumer] = []
        try:
            for bid in broker_ids:
                self.brokers[bid] = self._start_broker(bid)
        except BaseException:
            self.close()
            raise

    @property
    def broker(self) -> TcpBroker:
        """The first broker (the only one, in a one-broker cluster)."""
        return next(iter(self.brokers.values()))

    def _start_broker(self, broker_id: str) -> TcpBroker:
        """Start ``broker_id`` on its port, retrying the bind for up to 10 s
        while a previous incarnation's socket lingers."""
        others = [bid for bid in self.addresses if bid != broker_id]
        options = dict(
            port=self.addresses[broker_id][1],
            strategy=self._strategy,
            config=FAST_CONFIG,
            telemetry=self._telemetry.get(broker_id),
            obs_port=self._obs_ports.get(broker_id),
            journal_path=self.journals.get(broker_id),
            broker_id=broker_id,
            peers={bid: self.addresses[bid] for bid in others},
            peer_journals={bid: self.journals[bid] for bid in others if bid in self.journals},
            peer_obs_urls={
                bid: f"http://127.0.0.1:{self._obs_ports[bid]}"
                for bid in others
                if bid in self._obs_ports
            },
            gossip_interval=0.2,
        )
        deadline = time.monotonic() + 10.0
        while True:
            try:
                broker = TcpBroker(**options)  # a bind failure leaves nothing open
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        return broker.start()

    def provider(self, broker_id: str, **options) -> TcpProvider:
        """Start a provider on ``broker_id`` (``TcpProvider`` options; the
        self-benchmark is skipped unless a score is given).  Returns once
        the broker has registered it and every other running broker has
        heard by gossip that ``broker_id`` has free slots."""
        options.setdefault("benchmark_score", 1e7)
        provider = TcpProvider(*self.addresses[broker_id], **options).start()
        self._providers.append(provider)
        home = self.brokers[broker_id]
        wait_until(
            lambda: provider.node_id in home.core.registry,
            what=f"{provider.node_id} to register with {broker_id}",
        )
        for other_id, other in self.brokers.items():
            if other is not home and other.state == other.RUNNING:
                wait_until(
                    lambda: _has_free_slots(other, broker_id),
                    15, f"gossip to carry {broker_id}'s capacity to {other_id}",
                )
        return provider

    def consumer(self, **options) -> TcpConsumer:
        """Start a consumer (``TcpConsumer`` options).  In a federation it
        fails over across every broker, first to last; with one broker it
        reconnects only when told to (``consumer.reconnect()``)."""
        if len(self.addresses) > 1:
            consumer = TcpConsumer(brokers=list(self.addresses.values()), **options)
        else:
            consumer = TcpConsumer(*self.broker.address, **options)
        self._consumers.append(consumer.start())
        return consumer

    def kill(self, broker_id: str) -> None:
        """Stop ``broker_id`` without a drain or a goodbye."""
        self.brokers[broker_id].stop()

    def restart(self, broker_id: str) -> TcpBroker:
        """Bring ``broker_id`` back on its port with its journal."""
        self.brokers[broker_id] = self._start_broker(broker_id)
        return self.brokers[broker_id]

    def executors(self) -> dict[str, set[str]]:
        """The cross-journal audit: tasklet id -> every broker a journal
        says executed it."""
        executors: dict[str, set[str]] = {}
        for path in self.journals.values():
            for completion in replay_journal(path).completions.values():
                if completion.executed_by:
                    executors.setdefault(completion.tasklet_id, set()).add(completion.executed_by)
        return executors

    def close(self) -> None:
        """Stop consumers, then providers, then brokers — every one even if
        an earlier stop raised; then raise the first such error."""
        first = None
        for node in [*self._consumers, *self._providers, *self.brokers.values()]:
            try:
                node.stop()
            except Exception as exc:
                first = first or exc
        if first is not None:
            raise first

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _has_free_slots(broker: TcpBroker, peer_id: str) -> bool:
    """Whether gossip has told ``broker`` that ``peer_id`` has free slots."""
    peer = broker.core.federation.peers.get(peer_id)
    return peer is not None and peer.alive and peer.free_slots > 0
