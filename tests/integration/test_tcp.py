"""Integration: the real middleware over loopback TCP sockets.

These tests exercise the identical broker/consumer cores as the simulator
tests, but through actual sockets, threads, and wall-clock heartbeats.
They are kept small (seconds, not minutes) and deterministic in outcome,
not in timing.
"""

import time

import pytest

from repro.bench.cluster import LocalCluster
from repro.core import kernels
from repro.core.qoc import QoC
from repro.common.errors import ExecutionFailed


@pytest.fixture
def cluster():
    with LocalCluster("b1") as cluster:
        yield cluster


def test_single_tasklet_roundtrip(cluster):
    cluster.provider("b1", node_id="p1")
    consumer = cluster.consumer()
    future = consumer.library.submit(kernels.PRIME_COUNT, args=[500])
    assert future.result(timeout=30) == kernels.python_prime_count(500)


def test_bag_of_tasks_across_providers(cluster):
    cluster.provider("b1", node_id="p1")
    cluster.provider("b1", node_id="p2")
    consumer = cluster.consumer()
    futures = consumer.library.map(
        kernels.MANDELBROT_ROW,
        [[y, 20, 10, 15] for y in range(10)],
    )
    values = consumer.library.gather(futures, timeout=60)
    for y, row in enumerate(values):
        assert row == kernels.python_mandelbrot_row(y, 20, 10, 15)
    # Both providers did some of the work.
    registry = cluster.broker.core.registry
    assert all(r.completed > 0 for r in registry.alive_providers())


def test_redundant_execution_over_tcp(cluster):
    cluster.provider("b1", node_id="p1")
    cluster.provider("b1", node_id="p2")
    consumer = cluster.consumer()
    future = consumer.library.submit(
        kernels.PRIME_COUNT, args=[300], qoc=QoC.reliable(redundancy=2)
    )
    assert future.result(timeout=30) == kernels.python_prime_count(300)
    outcome = future.wait(0)
    assert len({r.provider_id for r in outcome.executions}) == 2


def test_vm_error_propagates_to_consumer(cluster):
    cluster.provider("b1", node_id="p1")
    consumer = cluster.consumer()
    future = consumer.library.submit(
        "func main(n: int) -> int { return n / 0; }", args=[1]
    )
    with pytest.raises(ExecutionFailed) as info:
        future.result(timeout=30)
    assert "VMDivisionByZero" in str(info.value)


def test_provider_disconnect_recovered_by_retry(cluster):
    flaky = cluster.provider("b1", node_id="flaky")
    consumer = cluster.consumer()
    # Submit slow work, then kill the provider mid-flight.
    futures = consumer.library.map(
        kernels.PRIME_COUNT,
        [[8000]] * 2,
        qoc=QoC(max_attempts=4),
    )
    time.sleep(0.2)
    flaky.stop()  # unregisters: outstanding work fails immediately
    # (The cluster's 30 s execution timeout is generous on purpose: the
    # recovery under test comes from Unregister, not from that timeout.)
    cluster.provider("b1", node_id="steady")
    values = consumer.library.gather(futures, timeout=120)
    assert values == [kernels.python_prime_count(8000)] * 2


def test_local_qoc_needs_no_broker_connection(cluster):
    # local_only runs on the consumer's TVM even with zero providers.
    consumer = cluster.consumer()
    future = consumer.library.submit(
        kernels.PRIME_COUNT, args=[200], qoc=QoC.private()
    )
    assert future.result(timeout=5) == kernels.python_prime_count(200)


def test_consumer_rejection_for_malformed_entry(cluster):
    cluster.provider("b1", node_id="p1")
    consumer = cluster.consumer()
    # Submitting with a bad entry is caught locally by Tasklet
    # validation before anything touches the wire.
    from repro.common.errors import TaskletError

    with pytest.raises(TaskletError):
        consumer.library.submit(
            kernels.PRIME_COUNT, entry="nosuch", args=[1]
        )
