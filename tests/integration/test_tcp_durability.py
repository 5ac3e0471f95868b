"""Integration: broker crash recovery and memoization over real TCP.

The scenarios here kill a journal-backed :class:`TcpBroker` and restart
it on the same port, then drive the documented client recovery recipe:
``consumer.reconnect()`` followed by idempotent resubmission of the same
tasklet ids.  Nothing runs twice and nothing is lost.
"""

import pytest

from repro.bench.cluster import LocalCluster, wait_until
from repro.common.errors import BrokerUnreachable
from repro.core import kernels


def test_broker_restart_recovers_every_admitted_tasklet(tmp_path):
    with LocalCluster("b1", journal=str(tmp_path / "journal.jsonl")) as cluster:
        first = cluster.broker
        consumer = cluster.consumer(node_id="c1")
        # Admit a bag with no providers attached: everything is journalled
        # and queued, nothing can complete before the crash.
        ids = [f"bag-{i}" for i in range(4)]
        futures = [
            consumer.library.submit(kernels.PRIME_COUNT, args=[200 + i], tasklet_id=tid)
            for i, tid in enumerate(ids)
        ]
        wait_until(lambda: first.core.pending_tasklets == 4, what="4 admitted tasklets")
        cluster.kill("b1")  # crash: in-flight futures fail loudly, not silently
        for future in futures:
            with pytest.raises(BrokerUnreachable):
                future.result(timeout=10)

        second = cluster.restart("b1")
        assert second.core.stats.tasklets_recovered == 4
        # Documented recovery recipe: reconnect, resubmit same ids.
        consumer.reconnect()
        futures = [
            consumer.library.submit(kernels.PRIME_COUNT, args=[200 + i], tasklet_id=tid)
            for i, tid in enumerate(ids)
        ]
        cluster.provider("b1", node_id="p1")
        values = consumer.library.gather(futures, timeout=120)
        assert values == [kernels.python_prime_count(200 + i) for i in range(4)]
        # Exactly once: one execution per tasklet, no redundant runs.
        assert second.core.stats.executions_issued == 4
        assert second.core.stats.tasklets_completed == 4


def test_completed_result_redelivered_without_any_provider(tmp_path):
    with LocalCluster("b1", journal=str(tmp_path / "journal.jsonl")) as cluster:
        consumer = cluster.consumer(node_id="c1")
        provider = cluster.provider("b1", node_id="p1")
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[500], tasklet_id="keep-1"
        )
        expected = future.result(timeout=30)
        provider.stop()
        cluster.kill("b1")

        # The restarted broker has no providers at all: the resubmitted
        # tasklet can only be answered from the journalled completion.
        second = cluster.restart("b1")
        consumer.reconnect()
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[500], tasklet_id="keep-1"
        )
        assert future.result(timeout=30) == expected
        outcome = future.wait(0)
        assert outcome.executions == []  # served from the journal
        assert second.core.stats.completions_redelivered == 1
        assert second.core.stats.executions_issued == 0


def test_identical_submissions_served_from_result_cache(tmp_path):
    with LocalCluster("b1", journal=str(tmp_path / "journal.jsonl")) as cluster:
        consumer = cluster.consumer(node_id="c1")
        cluster.provider("b1", node_id="p1")
        first = consumer.library.submit(
            kernels.PRIME_COUNT, args=[400], seed=7, tasklet_id="memo-a"
        )
        expected = first.result(timeout=30)
        # Different tasklet id, identical computation: the broker
        # must answer from its result cache without re-executing.
        second = consumer.library.submit(
            kernels.PRIME_COUNT, args=[400], seed=7, tasklet_id="memo-b"
        )
        assert second.result(timeout=30) == expected
        outcome = second.wait(0)
        assert outcome.executions == []
        assert cluster.broker.core.stats.memo_hits == 1
        assert cluster.broker.core.stats.executions_issued == 1
