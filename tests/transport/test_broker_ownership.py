"""One thread owns each node (DESIGN.md, "Who runs what").

``TcpBroker`` takes no lock: its loop thread is the only one that touches
the core, the connection table and every send queue, and ``/healthz`` —
the one outside reader — hops onto the loop and waits.  A provider and a
consumer are the same: one loop thread each runs the core's handler and
the link, and every other thread hops.  These tests are
the invariant the locks used to stand in for, plus the driver's
lifecycle: a tick that raises, a ``start`` that fails, a loop that does
not answer.
"""

import asyncio
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.bench.cluster import FAST_CONFIG, LocalCluster, wait_until
from repro.broker.core import BrokerCore
from repro.common.ids import NodeId
from repro.consumer.core import ConsumerCore
from repro.core import kernels
from repro.dag.patterns import chain, reference_values
from repro.obs.telemetry import Telemetry
from repro.provider.core import ProviderCore
from repro.provider.executor import TaskletExecutor
from repro.transport import aio
from repro.transport.aio import AioConnection
from repro.transport.codec import encode_envelope
from repro.transport.message import Unregister
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider

from .test_broker_link import sever


def get(url, timeout=5.0):
    """GET -> (status, parsed JSON body); HTTP error statuses don't raise."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def threads_named(*names):
    return [t.name for t in threading.enumerate() if t.name in names]


class Calls:
    """Who ran what: ``Class.method`` -> ``(owner, thread ident)`` per call,
    where a connection's owner is the node whose handler it feeds and a
    core's owner is the core itself."""

    def __init__(self, monkeypatch, *methods):
        self.seen = {}
        for owner, name in methods:
            self._record(monkeypatch, owner, name)

    def _record(self, monkeypatch, owner, name):
        original = getattr(owner, name)

        def wrapper(obj, *args, **kwargs):
            node = obj._on_envelope.__self__ if isinstance(obj, AioConnection) else obj
            self.seen.setdefault(f"{owner.__name__}.{name}", []).append(
                (node, threading.get_ident())
            )
            return original(obj, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def threads(self, *nodes):
        """Every thread that ran something on behalf of ``nodes``."""
        return {ident for calls in self.seen.values() for node, ident in calls if node in nodes}

    def methods(self, *nodes):
        return {name for name, calls in self.seen.items() if any(n in nodes for n, _ in calls)}


def test_one_thread_touches_the_core_the_table_and_the_queues(monkeypatch):
    calls = Calls(
        monkeypatch,
        (BrokerCore, "handle"),
        (BrokerCore, "tick"),
        (BrokerCore, "health_snapshot"),
        (AioConnection, "send"),
        (TcpBroker, "_route"),
    )
    monkeypatch.setattr(aio, "RECONNECT_BACKOFF_S", 0.05)

    broker = TcpBroker(config=FAST_CONFIG, obs_port=0).start()
    loop_thread = broker._thread
    scrapes, done = [], threading.Event()

    def scrape():
        while not done.is_set():
            scrapes.append(get(broker.obs.url + "/healthz")[1])

    scraper = threading.Thread(target=scrape, name="scraper")
    try:
        host, port = broker.address
        provider = TcpProvider(
            host, port, node_id="p1", capacity=2, benchmark_score=1e7,
            heartbeat_interval=0.2,
        )
        with provider, TcpConsumer(host, port, node_id="c1") as consumer:
            wait_until(lambda: len(broker.core.registry) == 1, what="registration")
            scraper.start()
            futures = consumer.library.map(kernels.PRIME_COUNT, [[200 + i] for i in range(8)])
            assert consumer.library.gather(futures, timeout=60) == [
                kernels.python_prime_count(200 + i) for i in range(8)
            ]
            spec = chain(3, work=50, salt=3)
            outputs = consumer.submit_workflow(spec).result(timeout=60)
            assert outputs == {s: reference_values(spec)[s] for s in spec.sinks()}
            # The provider loses its link, redials and registers again.
            sever(provider)
            wait_until(
                lambda: broker.telemetry.events.events(kind="node_flap"),
                what="the re-registration",
            )
            future = consumer.library.submit(kernels.PRIME_COUNT, args=[300])
            assert future.result(timeout=60) == kernels.python_prime_count(300)
            wait_until(lambda: len(calls.seen.get("BrokerCore.tick", ())) >= 2, what="ticks")
            wait_until(lambda: len(scrapes) >= 5, timeout=30.0, what="scrapes")
    finally:
        done.set()
        if scraper.ident is not None:
            scraper.join(10.0)
        broker.stop()

    assert not scraper.is_alive()
    assert calls.methods(broker, broker.core) == {
        "BrokerCore.handle",
        "BrokerCore.tick",
        "BrokerCore.health_snapshot",
        "AioConnection.send",
        "TcpBroker._route",
    }
    assert calls.threads(broker, broker.core) == {loop_thread.ident}
    # Every scrape was answered by the loop, none by the give-up path.
    assert all("providers_total" in doc for doc in scrapes)
    assert all(doc["transport"]["loop_wait_ms"] >= 0.0 for doc in scrapes)
    # stop() joined the loop thread, and may be called again.
    assert not loop_thread.is_alive()
    assert broker.state == TcpBroker.STOPPED
    broker.stop()


def test_one_thread_per_client_runs_its_core_and_its_link(monkeypatch):
    """A provider and a consumer each own one loop thread: it alone runs
    the core's handler and every send and flush of the node's link — the
    application's threads and the provider's pool encode what they send,
    and reach the link only by hopping onto that loop."""
    calls = Calls(
        monkeypatch,
        (ConsumerCore, "handle"),
        (ProviderCore, "handle"),
        (AioConnection, "send"),
        (AioConnection, "send_encoded"),
        (AioConnection, "flush"),
    )
    monkeypatch.setattr(aio, "RECONNECT_BACKOFF_S", 0.05)
    monkeypatch.setattr(sys, "getswitchinterval", lambda: 0.0)  # every run on the pool
    pool_threads, app_threads = set(), set()
    real_execute = TaskletExecutor.execute

    def execute(executor, request):
        pool_threads.add(threading.get_ident())
        return real_execute(executor, request)

    monkeypatch.setattr(TaskletExecutor, "execute", execute)
    with LocalCluster("b1") as cluster:
        provider = cluster.provider("b1", node_id="p1", capacity=2, heartbeat_interval=0.05)
        consumer = cluster.consumer(node_id="c1")
        loops = {provider: provider._thread.ident, consumer: consumer._thread.ident}

        def submit(base):
            app_threads.add(threading.get_ident())
            futures = consumer.library.map(kernels.PRIME_COUNT, [[base + i] for i in range(6)])
            assert consumer.library.gather(futures, timeout=60) == [
                kernels.python_prime_count(base + i) for i in range(6)
            ]

        submitters = [threading.Thread(target=submit, args=(100 * k,)) for k in (1, 2, 3)]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(60.0)
        sever(provider)  # the redial's sends are the loop's too
        core = provider.core
        wait_until(lambda: core.epoch == 2 and core.registered, what="the re-registration")
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[300])
        assert future.result(timeout=60) == kernels.python_prime_count(300)

    assert pool_threads and app_threads
    for node, loop in loops.items():
        assert calls.threads(node, node.core) == {loop}, node.node_id
        assert {"AioConnection.send_encoded", "AioConnection.flush"} <= calls.methods(node)
    assert calls.methods(provider.core) == {"ProviderCore.handle"}
    assert calls.methods(consumer.core) == {"ConsumerCore.handle"}
    assert not (pool_threads | app_threads) & set(loops.values())
    assert not any(thread.is_alive() for thread in threading.enumerate()
                   if thread.name in ("p1-link", "c1-link"))


def test_healthz_says_the_loop_is_stuck_within_its_bound_then_recovers(monkeypatch):
    monkeypatch.setattr(aio, "HEALTH_WAIT_S", 0.3)
    with TcpBroker(obs_port=0) as broker:
        host, port = broker.address
        entered, gate = threading.Event(), threading.Event()
        real_handle = broker.core.handle

        def blocking(envelope):
            if envelope.type == "unregister":
                entered.set()
                assert gate.wait(10.0)
            return real_handle(envelope)

        broker.core.handle = blocking
        with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
            wait_until(lambda: len(broker.core.registry) == 1, what="registration")
            assert get(broker.obs.url + "/healthz")[0] == 200
            goodbye = Unregister(provider_id="p9").envelope(NodeId("p9"), NodeId("broker"))
            with socket.create_connection((host, port)) as peer:
                peer.sendall(encode_envelope(goodbye))
                assert entered.wait(5.0)  # the loop thread is parked in a handler
                try:
                    asked = time.monotonic()
                    status, document = get(broker.obs.url + "/healthz")
                    waited = time.monotonic() - asked
                finally:
                    gate.set()
            assert status == 503
            assert document["status"] == "unhealthy"
            assert document["reason"] == "event loop unresponsive"
            assert document["transport"]["loop_wait_ms"] >= 300.0
            assert waited < 2.0, "the scrape is bounded by HEALTH_WAIT_S, not the stall"
            wait_until(
                lambda: get(broker.obs.url + "/healthz")[0] == 200, what="recovery"
            )
            status, document = get(broker.obs.url + "/healthz")
            assert (status, document["status"]) == (200, "ok")


def test_a_tick_fault_is_reported_and_the_next_tick_still_runs():
    telemetry = Telemetry()
    with TcpBroker(config=FAST_CONFIG, telemetry=telemetry) as broker:
        host, port = broker.address
        real_tick, faults = broker.core.tick, []

        def faulty():
            if not faults:
                faults.append(1)
                raise RuntimeError("boom")
            return real_tick()

        broker.core.tick = faulty
        provider = TcpProvider(
            host, port, node_id="p1", benchmark_score=1e7, heartbeat_interval=0.2,
            reconnect=False,
        ).start()
        try:
            wait_until(lambda: len(broker.core.registry) == 1, what="registration")
            wait_until(lambda: telemetry.events.events(kind="tick_fault"), what="the report")
            (event,) = telemetry.events.events(kind="tick_fault")
            assert event.node == "broker"
            assert event.attrs["reason"] == "tick fault: RuntimeError: boom"
            # The provider vanishes without a goodbye; only a tick notices.
            sever(provider)
            wait_until(
                lambda: broker.core.stats.providers_failed == 1,
                timeout=10.0,
                what="the failure detector",
            )
        finally:
            provider.stop()
        assert len(telemetry.events.events(kind="tick_fault")) == 1


def test_a_failed_start_leaves_nothing_running_and_can_be_tried_again(monkeypatch):
    async def refuse(*args, **kwargs):
        raise OSError("no server for you")

    broker = TcpBroker(obs_port=0)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(asyncio.BaseEventLoop, "create_server", refuse)
            with pytest.raises(OSError, match="no server for you"):
                broker.start()
        assert threads_named("broker-aio", "obs-broker") == []
        assert broker.state == TcpBroker.STOPPED
        # The same object starts, serves and reports ready.
        broker.start()
        assert get(broker.obs.url + "/readyz") == (200, {"ready": True, "node": "broker"})
        host, port = broker.address
        with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
            with TcpConsumer(host, port) as consumer:
                future = consumer.library.submit(kernels.PRIME_COUNT, args=[300])
                assert future.result(timeout=60) == kernels.python_prime_count(300)
    finally:
        broker.stop()
    assert threads_named("broker-aio", "obs-broker") == []


def test_a_link_accepted_as_stop_begins_is_closed_not_left_open():
    """Regression: a connection accepted in the loop turn ``stop()`` began
    in got its protocol after the close sweep, and its socket was left to
    the garbage collector — the peer never saw the broker go."""
    for _ in range(10):
        broker = TcpBroker().start()
        peer = socket.create_connection(broker.address)
        broker.stop()
        peer.settimeout(2.0)
        try:
            assert peer.recv(1) == b""
        except ConnectionResetError:
            pass  # (refused from the accept queue: as good as EOF)
        finally:
            peer.close()
