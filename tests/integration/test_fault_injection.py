"""Fault injection over real TCP: killed providers, broker restarts,
severed consumer connections.

The contract under test is the PR's acceptance bar: every submitted
Tasklet's future *resolves* — with a value or a typed error — no matter
what dies underneath it, and no stop() call blocks on a sleeping loop.
"""

import time

import pytest

from repro.bench.cluster import FAST_CONFIG, wait_until
from repro.broker.core import BrokerConfig
from repro.common.errors import BrokerUnreachable
from repro.core import kernels
from repro.core.qoc import QoC
from repro.provider.process import ProviderProcess
from repro.provider.executor import TaskletExecutor
from repro.transport import aio
from repro.transport.tcp import (
    TcpBroker,
    TcpConsumer,
    TcpProvider,
)

from tests.transport.test_broker_link import sever


def test_killed_providers_mid_bag_of_tasks_every_future_resolves():
    server = TcpBroker(config=FAST_CONFIG).start()
    host, port = server.address
    victims = []
    steady = None
    consumer = None
    try:
        steady = TcpProvider(
            host,
            port,
            node_id="steady",
            capacity=2,
            benchmark_score=1e7,
            heartbeat_interval=0.2,
        ).start()
        victims = [
            ProviderProcess(
                host, port, capacity=1, node_id=f"victim-{i}", benchmark_score=1e7
            ).start()
            for i in range(2)
        ]
        wait_until(lambda: len(server.core.registry) == 3, what="registration")
        consumer = TcpConsumer(host, port).start()
        futures = consumer.library.map(
            kernels.PRIME_COUNT, [[4000]] * 8, qoc=QoC(max_attempts=5)
        )
        time.sleep(0.3)  # let executions land on the victims
        for victim in victims:
            victim.kill()  # SIGKILL: no unregister, no drain
        expected = kernels.python_prime_count(4000)
        for future in futures:
            outcome = future.wait(timeout=60)
            assert outcome.ok, f"tasklet failed: {outcome.error}"
            assert outcome.value == expected
        assert all(future.done for future in futures)
    finally:
        if consumer is not None:
            consumer.stop()
        for victim in victims:
            victim.kill()
        if steady is not None:
            steady.stop()
        server.stop()


def test_broker_restart_fails_consumer_futures_and_provider_reconnects(monkeypatch):
    monkeypatch.setattr(aio, "RECONNECT_BACKOFF_S", 0.05)
    first = TcpBroker(config=FAST_CONFIG).start()
    host, port = first.address
    provider = None
    second = None
    consumer = None
    try:
        provider = TcpProvider(
            host,
            port,
            node_id="p1",
            capacity=2,
            benchmark_score=1e7,
            heartbeat_interval=0.2,
        ).start()
        wait_until(lambda: len(first.core.registry) == 1, what="registration")
        disconnects = []
        consumer = TcpConsumer(host, port, on_disconnect=disconnects.append).start()
        futures = consumer.library.map(
            kernels.PRIME_COUNT, [[20000]] * 2, qoc=QoC(max_attempts=3)
        )
        time.sleep(0.1)
        first.stop()  # the broker crashes with work in flight

        # Consumer side: every pending future resolves promptly with a
        # typed error — nobody waits out a 60 s timeout.
        for future in futures:
            outcome = future.wait(timeout=5)
            if not outcome.ok:
                with pytest.raises(BrokerUnreachable):
                    future.result(0)
        wait_until(lambda: disconnects, timeout=5, what="on_disconnect hook")

        # Provider side: a new broker on the same address sees the
        # provider re-register all by itself (cached benchmark, backoff).
        # Rebinding the just-freed port can transiently fail while the
        # old listener's sockets drain; the retry is not the test.
        bind_deadline = time.perf_counter() + 5.0
        while True:
            try:
                second = TcpBroker(
                    host=host, port=port, config=FAST_CONFIG
                ).start()
                break
            except OSError:
                if time.perf_counter() >= bind_deadline:
                    raise
                time.sleep(0.05)
        wait_until(
            lambda: len(second.core.registry) == 1,
            timeout=15,
            what="the provider to re-register with the restarted broker",
        )
        with TcpConsumer(host, port) as fresh:
            future = fresh.library.submit(kernels.PRIME_COUNT, args=[300])
            assert future.result(timeout=60) == kernels.python_prime_count(300)
    finally:
        if consumer is not None:
            consumer.stop()
        if provider is not None:
            provider.stop()
        if second is not None:
            second.stop()
        first.stop()


def test_severed_consumer_connection_fails_futures_not_broker():
    server = TcpBroker(config=FAST_CONFIG).start()
    host, port = server.address
    try:
        with TcpProvider(
            host, port, node_id="p1", benchmark_score=1e7, heartbeat_interval=0.2
        ):
            wait_until(lambda: len(server.core.registry) == 1)
            disconnects = []
            victim = TcpConsumer(host, port, on_disconnect=disconnects.append).start()
            future = victim.library.submit(kernels.PRIME_COUNT, args=[30000])
            # Sever mid-flight, as a dead network would.
            sever(victim)
            with pytest.raises(BrokerUnreachable):
                future.result(timeout=5)
            wait_until(lambda: disconnects, timeout=5, what="on_disconnect hook")
            # The broker shrugged it off and serves new consumers.
            with TcpConsumer(host, port) as fresh:
                future = fresh.library.submit(kernels.PRIME_COUNT, args=[200])
                assert future.result(timeout=60) == kernels.python_prime_count(200)
    finally:
        server.stop()


def test_submit_after_disconnect_fails_typed_instead_of_hanging():
    # TCP quirk: the first send() after a peer close "succeeds" locally
    # (the RST only lands later), so a post-disconnect submit must not
    # trust the send — the consumer flags itself disconnected instead.
    server = TcpBroker(config=FAST_CONFIG).start()
    host, port = server.address
    consumer = None
    try:
        disconnects = []
        consumer = TcpConsumer(host, port, on_disconnect=disconnects.append).start()
        server.stop()
        wait_until(lambda: disconnects, timeout=5, what="on_disconnect hook")
        started = time.perf_counter()
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[100])
        with pytest.raises(BrokerUnreachable):
            future.result(timeout=5)
        assert time.perf_counter() - started < 1.0, "should fail fast, not hang"
    finally:
        if consumer is not None:
            consumer.stop()
        server.stop()


def test_drain_stop_flushes_in_flight_results_before_unregistering():
    server = TcpBroker(config=FAST_CONFIG).start()
    host, port = server.address
    provider = None
    consumer = None
    try:
        provider = TcpProvider(
            host,
            port,
            node_id="p1",
            capacity=1,
            benchmark_score=1e7,
            heartbeat_interval=0.2,
        ).start()
        wait_until(lambda: len(server.core.registry) == 1)
        consumer = TcpConsumer(host, port).start()
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[20000])
        wait_until(lambda: server.core.stats.executions_issued >= 1)
        # The broker has issued the work, but drain only protects what
        # the provider has actually received — wait out the assignment's
        # flight time or the unregister races past it.
        wait_until(lambda: len(provider.core.inflight) > 0, what="assignment arrival")
        provider.stop(drain=True)  # finish + flush, then unregister
        assert future.result(timeout=10) == kernels.python_prime_count(20000)
        wait_until(lambda: len(server.core.registry) == 0, timeout=5)
    finally:
        if consumer is not None:
            consumer.stop()
        if provider is not None:
            provider.stop()
        server.stop()


def test_engine_defect_frees_the_slot_and_drain_stop_is_prompt(monkeypatch):
    # Whatever an engine throws, the pool thread must reach core.finish():
    # otherwise the id stays in ``inflight`` and a draining stop() waits
    # out its whole drain_timeout.
    from repro.tvm.vm import TVM

    def defect(self, entry, args=None):
        raise IndexError("pop from empty list")

    server = TcpBroker(config=FAST_CONFIG).start()
    host, port = server.address
    provider = None
    consumer = None
    try:
        provider = TcpProvider(
            host,
            port,
            node_id="p1",
            capacity=1,
            benchmark_score=1e7,
            heartbeat_interval=0.2,
        )
        # No program cache, so no translation: straight to the portable VM.
        provider.core.executor = TaskletExecutor(cache_size=0)
        provider.start()
        wait_until(lambda: len(server.core.registry) == 1)
        consumer = TcpConsumer(host, port).start()
        monkeypatch.setattr(TVM, "run", defect)
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[100])
        outcome = future.wait(timeout=10)  # not execution_timeout per attempt
        assert not outcome.ok
        assert "IndexError: pop from empty list" in outcome.executions[-1].error
        # The result is written before the core forgets the execution.
        wait_until(lambda: not provider.core.inflight, timeout=2.0)
        started = time.perf_counter()
        provider.stop(drain=True, drain_timeout=30.0)
        assert time.perf_counter() - started < 2.0
    finally:
        if consumer is not None:
            consumer.stop()
        if provider is not None:
            provider.stop()
        server.stop()


def test_stop_returns_promptly_despite_long_intervals():
    # Both the broker tick loop and the provider heartbeat loop sleep on
    # real stop events now: stop() must not ride out an interval.
    server = TcpBroker(
        config=BrokerConfig(heartbeat_interval=5.0, heartbeat_tolerance=3.0)
    ).start()
    host, port = server.address
    provider = TcpProvider(
        host, port, node_id="p1", benchmark_score=1e7, heartbeat_interval=5.0
    ).start()
    wait_until(lambda: len(server.core.registry) == 1)

    started = time.perf_counter()
    provider.stop()
    provider_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    server.stop()
    broker_elapsed = time.perf_counter() - started

    assert provider_elapsed < 0.5, f"provider stop took {provider_elapsed:.3f}s"
    assert broker_elapsed < 0.5, f"broker stop took {broker_elapsed:.3f}s"
