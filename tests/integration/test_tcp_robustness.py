"""TCP robustness: garbage on the wire, abrupt disconnects, process providers."""

import socket
import time

import pytest

from repro.core import kernels
from repro.transport.tcp import (
    ProviderProcess,
    TcpBroker,
    TcpConsumer,
    TcpProvider,
)


@pytest.fixture
def broker():
    server = TcpBroker().start()
    yield server
    server.stop()


def _wait_registered(broker, count, timeout=15.0):
    deadline = time.perf_counter() + timeout
    while len(broker.core.registry) < count:
        if time.perf_counter() > deadline:
            raise TimeoutError("registration timeout")
        time.sleep(0.02)


def test_garbage_bytes_do_not_kill_the_broker(broker):
    host, port = broker.address
    # A client that speaks nonsense...
    rogue = socket.create_connection((host, port))
    rogue.sendall(b"\x00\x00\x00\x05hello")  # valid length, invalid JSON
    time.sleep(0.2)
    rogue.close()
    # ...must not affect well-behaved peers.
    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as consumer:
            future = consumer.library.submit(kernels.PRIME_COUNT, args=[300])
            assert future.result(timeout=30) == kernels.python_prime_count(300)


def test_oversized_length_prefix_is_contained(broker):
    host, port = broker.address
    rogue = socket.create_connection((host, port))
    rogue.sendall((2**31 - 1).to_bytes(4, "big"))  # claims a 2 GiB frame
    time.sleep(0.2)
    rogue.close()
    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)  # broker still alive and serving


def test_abrupt_consumer_disconnect_leaves_broker_healthy(broker):
    host, port = broker.address
    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)
        consumer = TcpConsumer(host, port).start()
        consumer.library.submit(kernels.PRIME_COUNT, args=[5000])
        consumer._link._connection.sock.close()  # vanish without goodbye
        time.sleep(0.3)
        # New consumers are served normally.
        with TcpConsumer(host, port) as fresh:
            future = fresh.library.submit(kernels.PRIME_COUNT, args=[200])
            assert future.result(timeout=30) == kernels.python_prime_count(200)


def test_provider_process_lifecycle(broker):
    host, port = broker.address
    process = ProviderProcess(
        host, port, capacity=1, node_id="proc-1", benchmark_score=1e7
    ).start()
    try:
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as consumer:
            future = consumer.library.submit(kernels.PRIME_COUNT, args=[400])
            assert future.result(timeout=60) == kernels.python_prime_count(400)
    finally:
        process.stop()
    assert not process._process.is_alive()


def test_two_consumers_share_one_broker(broker):
    host, port = broker.address
    with TcpProvider(host, port, node_id="p1", capacity=2, benchmark_score=1e7):
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as first, TcpConsumer(host, port) as second:
            f1 = first.library.submit(kernels.PRIME_COUNT, args=[300])
            f2 = second.library.submit(kernels.PRIME_COUNT, args=[500])
            assert f1.result(timeout=30) == kernels.python_prime_count(300)
            assert f2.result(timeout=30) == kernels.python_prime_count(500)


def test_messages_larger_than_one_recv_chunk(broker):
    # Regression: a frame spanning multiple 64 KiB recv() chunks must be
    # reassembled, not treated as a dead connection.
    host, port = broker.address
    parts = []
    for index in range(450):
        parts.append(
            f"func helper_{index}(x: float) -> float {{\n"
            f"    return x * {index}.5 + sqrt(abs(x) + {index}.0);\n"
            f"}}\n"
        )
    parts.append(
        "func main(x: float) -> float { return helper_0(x) + helper_449(x); }"
    )
    big_source = "".join(parts)
    from repro.tvm.compiler import compile_source
    from repro.transport.codec import pack_frame

    program = compile_source(big_source)
    # The assignment that ships this program exceeds one recv chunk.
    assert len(pack_frame(program.to_dict())) > 65536

    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as consumer:
            future = consumer.library.submit(program, args=[2.0])
            expected = 2.0 * 0.5 + (2.0 + 0.0) ** 0.5 + (
                2.0 * 449.5 + (2.0 + 449.0) ** 0.5
            )
            assert future.result(timeout=60) == pytest.approx(expected)
