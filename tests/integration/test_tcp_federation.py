"""Integration: broker federation over real TCP.

The centerpiece kills one of three federated brokers mid-workload (F7's
``broker_kill`` scenario, which the federation smoke also runs) and
asserts the survival contract end to end: the consumer fails over on its
own, idempotent resubmission recovers every in-flight tasklet, and the
cross-journal audit shows each tasklet executed by exactly one broker.
"""

import pytest

from repro.bench.cluster import LocalCluster, wait_until
from repro.bench.experiments.exp_f7_churn import broker_kill
from repro.common.errors import BrokerUnreachable, FederationExhausted
from repro.core import kernels
from repro.transport import aio, tcp


def test_tasklet_forwarded_to_peer_with_capacity(tmp_path):
    with LocalCluster("b1", "b2", journal=str(tmp_path / "{id}.jsonl")) as cluster:
        # The only provider lives on b2; the consumer talks to b1.
        cluster.provider("b2", node_id="p1")
        consumer = cluster.consumer(node_id="c1")
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[300], tasklet_id="fwd-1"
        )
        assert future.result(timeout=30) == kernels.python_prime_count(300)
        brokers = cluster.brokers
        assert brokers["b1"].core.stats.tasklets_forwarded == 1
        assert brokers["b2"].core.stats.forwards_received == 1
        completion = brokers["b1"].core._completed["c1/fwd-1"]
        assert completion.executed_by == "b2"


def test_broker_kill_mid_workload_loses_nothing_duplicates_nothing(tmp_path):
    bag = [(f"kill-{i}", 200 + 10 * i) for i in range(6)]
    with LocalCluster("b1", "b2", "b3", journal=str(tmp_path / "{id}.jsonl")) as cluster:
        values, _lost, executed_by = broker_kill(cluster, bag)

    for tid, limit in bag:
        assert values[tid] == kernels.python_prime_count(limit)
    # Exactly-once audit across every journal: each tasklet was executed
    # by exactly one broker ...
    for tid, _ in bag:
        assert len(executed_by[tid]) == 1, f"{tid} executed by {executed_by[tid] or 'nobody'}"
    # ... and never by the broker that died mid-run.
    assert set().union(*executed_by.values()) <= {"b2", "b3"}


def test_federation_exhausted_when_every_broker_is_gone(tmp_path, monkeypatch):
    monkeypatch.setattr(aio, "RECONNECT_BACKOFF_S", 0.05)
    monkeypatch.setattr(tcp, "FAILOVER_BACKOFF_MAX_S", 0.1)
    monkeypatch.setattr(tcp, "MAX_FAILOVER_ATTEMPTS", 4)
    with LocalCluster("b1", "b2", journal=str(tmp_path / "{id}.jsonl")) as cluster:
        consumer = cluster.consumer(node_id="c1")
        cluster.kill("b1")
        cluster.kill("b2")
        wait_until(
            lambda: consumer.exhausted is not None,
            what="failover attempts to exhaust",
        )
        with pytest.raises(FederationExhausted) as excinfo:
            consumer.library.submit(
                kernels.PRIME_COUNT, args=[101], tasklet_id="gone-2"
            )
        assert excinfo.value.attempts >= 4
        assert len(excinfo.value.brokers) == 2
        # The typed error is still a BrokerUnreachable for old handlers.
        assert isinstance(excinfo.value, BrokerUnreachable)
