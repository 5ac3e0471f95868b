"""LocalCluster: one bring-up and one teardown for a local TCP cluster."""

import pytest

from repro.bench.cluster import LocalCluster, wait_until
from repro.core import kernels
from repro.provider.core import ProviderCore


class Boom(Exception):
    pass


def failing_after(stop, message):
    """``stop``, then raise: a node that stopped but reported an error."""

    def stop_then_raise():
        stop()
        raise Boom(message)

    return stop_then_raise


def test_a_body_that_raises_still_stops_every_node():
    with pytest.raises(Boom, match="body"):
        with LocalCluster("b1") as cluster:
            provider = cluster.provider("b1", node_id="p1")
            consumer = cluster.consumer()
            raise Boom("body")
    assert cluster.broker.state == cluster.broker.STOPPED
    assert provider.core.state == ProviderCore.STOPPED
    assert consumer.state == consumer.CLOSED  # stopped, not just cut off


def test_a_stop_that_raises_keeps_no_other_node_running_and_is_reraised():
    with pytest.raises(Boom, match="consumer"):
        with LocalCluster("b1") as cluster:
            consumer = cluster.consumer()
            provider = cluster.provider("b1", node_id="p1")
            consumer.stop = failing_after(consumer.stop, "consumer")
            provider.stop = failing_after(provider.stop, "provider")
    assert consumer.state == consumer.CLOSED  # stopped, not just cut off
    assert provider.core.state == ProviderCore.STOPPED
    assert cluster.broker.state == cluster.broker.STOPPED


def test_restart_serves_on_the_same_port_from_the_same_journal(tmp_path):
    with LocalCluster("b1", journal=str(tmp_path / "journal.jsonl")) as cluster:
        consumer = cluster.consumer(node_id="c1")
        lost = consumer.library.submit(kernels.PRIME_COUNT, args=[100], tasklet_id="t1")
        wait_until(lambda: cluster.broker.core.pending_tasklets == 1, what="admission")
        address = cluster.broker.address
        cluster.kill("b1")
        assert not lost.wait(timeout=10).ok

        broker = cluster.restart("b1")
        assert cluster.broker is broker and broker.address == address
        assert broker.core.stats.tasklets_recovered == 1
        consumer.reconnect()
        cluster.provider("b1", node_id="p1")
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[100], tasklet_id="t1")
        assert future.result(timeout=30) == kernels.python_prime_count(100)


def test_exiting_after_a_kill_is_clean(tmp_path):
    with LocalCluster("b1", journal=str(tmp_path / "journal.jsonl")) as cluster:
        provider = cluster.provider("b1", node_id="p1")
        cluster.consumer()
        cluster.kill("b1")
    assert cluster.broker.state == cluster.broker.STOPPED
    assert cluster.broker.journal._file.closed
    assert provider.core.state == ProviderCore.STOPPED
