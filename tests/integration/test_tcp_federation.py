"""Integration: broker federation over real TCP.

The centerpiece kills one of three federated brokers mid-workload and
asserts the survival contract end to end: the consumer fails over on its
own, idempotent resubmission recovers every in-flight tasklet, and the
cross-journal audit shows each tasklet executed by exactly one broker.
"""

import time

import pytest

from repro.broker.core import BrokerConfig
from repro.broker.journal import replay_journal
from repro.common.errors import BrokerUnreachable, FederationExhausted
from repro.core import kernels
from repro.transport import tcp
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider

from .netutil import free_ports

CONFIG = dict(heartbeat_interval=0.2, heartbeat_tolerance=2.0, execution_timeout=30.0)


def wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            raise TimeoutError(f"timed out waiting for {message}")
        time.sleep(0.02)


def start_federation(tmp_path, ids=("b1", "b2", "b3"), gossip_interval=0.2):
    """Start len(ids) federated brokers with journals + peer journal map."""
    ports = free_ports(len(ids))
    addresses = {
        broker_id: ("127.0.0.1", port) for broker_id, port in zip(ids, ports)
    }
    journals = {
        broker_id: str(tmp_path / f"{broker_id}.jsonl") for broker_id in ids
    }
    brokers = {}
    for broker_id in ids:
        peers = {
            other: addresses[other] for other in ids if other != broker_id
        }
        peer_journals = {
            other: journals[other] for other in ids if other != broker_id
        }
        brokers[broker_id] = TcpBroker(
            host="127.0.0.1",
            port=addresses[broker_id][1],
            config=BrokerConfig(**CONFIG),
            journal_path=journals[broker_id],
            broker_id=broker_id,
            peers=peers,
            peer_journals=peer_journals,
            gossip_interval=gossip_interval,
        ).start()
    return brokers, addresses, journals


def stop_all(brokers):
    for broker in brokers.values():
        try:
            broker.stop()
        except Exception:
            pass


def peers_alive(broker, count):
    federation = broker.core.federation
    return sum(1 for peer in federation.peers.values() if peer.alive) >= count


def peer_has_slots(broker, peer_id):
    peer = broker.core.federation.peers.get(peer_id)
    return peer is not None and peer.alive and peer.free_slots > 0


def test_tasklet_forwarded_to_peer_with_capacity(tmp_path):
    brokers, addresses, _journals = start_federation(tmp_path, ids=("b1", "b2"))
    provider = None
    consumer = None
    try:
        # The only provider lives on b2; the consumer talks to b1.
        provider = TcpProvider(
            *addresses["b2"], node_id="p1", capacity=2, benchmark_score=1e7
        ).start()
        wait_until(
            lambda: peer_has_slots(brokers["b1"], "b2"),
            message="b1 to learn b2's capacity via gossip",
        )
        consumer = TcpConsumer(*addresses["b1"], node_id="c1").start()
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[300], tasklet_id="fwd-1"
        )
        assert future.result(timeout=30) == kernels.python_prime_count(300)
        assert brokers["b1"].core.stats.tasklets_forwarded == 1
        assert brokers["b2"].core.stats.forwards_received == 1
        completion = brokers["b1"].core._completed["c1/fwd-1"]
        assert completion.executed_by == "b2"
    finally:
        if consumer is not None:
            consumer.stop()
        if provider is not None:
            provider.stop()
        stop_all(brokers)


def test_broker_kill_mid_workload_loses_nothing_duplicates_nothing(tmp_path):
    brokers, addresses, journals = start_federation(tmp_path)
    providers = []
    consumer = None
    try:
        # Providers are spread across the two surviving brokers; b1 — the
        # consumer's first choice — has none, so its work is forwarded.
        for broker_id, name in (("b2", "p2"), ("b3", "p3")):
            providers.append(
                TcpProvider(
                    *addresses[broker_id], node_id=name, capacity=2,
                    benchmark_score=1e7,
                ).start()
            )
        wait_until(
            lambda: peer_has_slots(brokers["b1"], "b2")
            and peer_has_slots(brokers["b1"], "b3"),
            message="b1 to learn peer capacity via gossip",
        )
        consumer = TcpConsumer(
            node_id="c1",
            brokers=[addresses["b1"], addresses["b2"], addresses["b3"]],
        ).start()

        ids = [f"kill-{i}" for i in range(6)]
        arguments = {tid: 200 + 10 * i for i, tid in enumerate(ids)}
        futures = {
            tid: consumer.library.submit(
                kernels.PRIME_COUNT, args=[arguments[tid]], tasklet_id=tid
            )
            for tid in ids
        }
        # Kill b1 while the bag is in flight (no drain, no goodbye).
        wait_until(
            lambda: brokers["b1"].core.stats.tasklets_submitted >= 6,
            message="b1 to admit the bag",
        )
        brokers["b1"].stop()

        # In-flight futures fail loudly; the consumer fails over on its
        # own and idempotent resubmission recovers each lost tasklet.
        values = {}
        for tid, future in futures.items():
            try:
                values[tid] = future.result(timeout=30)
            except BrokerUnreachable:
                pass
        wait_until(
            lambda: consumer.connected,
            message="consumer failover to a surviving broker",
        )
        for tid in ids:
            if tid not in values:
                retry = consumer.library.submit(
                    kernels.PRIME_COUNT, args=[arguments[tid]], tasklet_id=tid
                )
                values[tid] = retry.result(timeout=60)

        for tid in ids:
            assert values[tid] == kernels.python_prime_count(arguments[tid])

        # Exactly-once audit across every journal: each tasklet was
        # executed by at most one broker, and executed at all.
        executed_by = {tid: set() for tid in ids}
        for path in journals.values():
            snapshot = replay_journal(path)
            for completion in snapshot.completions.values():
                tid = completion.tasklet_id
                if tid in executed_by and completion.executed_by:
                    executed_by[tid].add(completion.executed_by)
        for tid in ids:
            assert len(executed_by[tid]) == 1, (
                f"{tid} executed by {executed_by[tid] or 'nobody'}"
            )
        # And never by the broker that died mid-run.
        survivors = {"b2", "b3"}
        assert set().union(*executed_by.values()) <= survivors
    finally:
        if consumer is not None:
            consumer.stop()
        for provider in providers:
            provider.stop()
        stop_all(brokers)


def test_federation_exhausted_when_every_broker_is_gone(tmp_path, monkeypatch):
    monkeypatch.setattr(tcp, "FAILOVER_BACKOFF_S", 0.05)
    monkeypatch.setattr(tcp, "FAILOVER_BACKOFF_MAX_S", 0.1)
    monkeypatch.setattr(tcp, "MAX_FAILOVER_ATTEMPTS", 4)
    brokers, addresses, _journals = start_federation(tmp_path, ids=("b1", "b2"))
    consumer = None
    try:
        consumer = TcpConsumer(
            node_id="c1", brokers=[addresses["b1"], addresses["b2"]]
        ).start()
        stop_all(brokers)
        wait_until(
            lambda: consumer._link.exhausted is not None,
            message="failover attempts to exhaust",
        )
        with pytest.raises(FederationExhausted) as excinfo:
            consumer.library.submit(
                kernels.PRIME_COUNT, args=[101], tasklet_id="gone-2"
            )
        assert excinfo.value.attempts >= 4
        assert len(excinfo.value.brokers) == 2
        # The typed error is still a BrokerUnreachable for old handlers.
        assert isinstance(excinfo.value, BrokerUnreachable)
    finally:
        if consumer is not None:
            consumer.stop()
        stop_all(brokers)
