"""Integration: DAG workflows over real TCP, including broker restart.

A journal-backed :class:`TcpBroker` runs a workflow end-to-end, then the
crash scenario from ``scripts/dag_smoke.py`` in miniature: kill the
broker mid-graph, restart it on the same port, and drive the documented
client recovery recipe — ``reconnect()`` plus idempotent resubmission of
the same workflow — to completion with an exactly-once journal audit.
"""

import threading

import pytest

from repro.bench.cluster import LocalCluster, wait_until
from repro.broker.journal import replay_journal
from repro.common.errors import BrokerUnreachable
from repro.dag.patterns import chain, reference_values


def ok_completions(path) -> int:
    return sum(1 for c in replay_journal(str(path)).completions.values() if c.ok)


def test_workflow_end_to_end_over_tcp(tmp_path):
    spec = chain(3, work=200, salt=5)
    reference = reference_values(spec)
    with LocalCluster("b1", journal=str(tmp_path / "journal.jsonl")) as cluster:
        consumer = cluster.consumer(node_id="c1")
        cluster.provider("b1", node_id="p1")
        handle = consumer.submit_workflow(spec)
        outputs = handle.result(timeout=60)
        assert outputs == {sink: reference[sink] for sink in spec.sinks()}
        assert handle.nodes_total == 3
        assert cluster.broker.core.stats.workflows_completed == 1
        assert cluster.broker.core.pending_workflows == 0


def test_broker_restart_resumes_workflow_exactly_once(tmp_path, monkeypatch):
    journal = tmp_path / "journal.jsonl"
    # Serial chain; max_attempts=3 rides out the crash window.
    spec = chain(3, work=150_000, salt=7, max_attempts=3)
    reference = reference_values(spec)
    expected = {sink: reference[sink] for sink in spec.sinks()}

    with LocalCluster("b1", journal=str(journal)) as cluster:
        first = cluster.broker
        consumer = cluster.consumer(node_id="c1")
        provider = cluster.provider("b1", node_id="p1")
        # p1 runs the first node, then holds every later one on ``gate``
        # until the broker is gone: the plug is always pulled mid-graph,
        # however fast a node runs.
        execute, gate, ran = provider.core.executor.execute, threading.Event(), []

        def gated(request):
            if ran:
                gate.wait(timeout=30)
            ran.append(request)
            return execute(request)

        monkeypatch.setattr(provider.core.executor, "execute", gated)
        handle = consumer.submit_workflow(spec)
        wait_until(lambda: ok_completions(journal) >= 1, 60, "partial progress")
        assert first.core.pending_workflows == 1
        cluster.kill("b1")  # crash: in-flight results die with the connection
        gate.set()
        provider.stop()
        done_before = ok_completions(journal)
        assert done_before < len(spec.nodes)
        with pytest.raises(BrokerUnreachable):
            handle.result(timeout=10)

        second = cluster.restart("b1")
        assert second.core.stats.workflows_recovered == 1
        assert second.core.stats.workflow_nodes_memoized == done_before
        # Documented recovery recipe: reconnect, resubmit the same
        # workflow — the broker re-attaches it to the running graph.
        consumer.reconnect()
        handle = consumer.submit_workflow(spec)
        cluster.provider("b1", node_id="p2")
        outputs = handle.result(timeout=120)
        assert outputs == expected
        # Journalled-done nodes short-circuited; the rest ran once.
        assert (
            second.core.stats.executions_issued
            == len(spec.nodes) - done_before
        )

    # Exactly-once audit across both incarnations.
    snapshot = replay_journal(str(journal))
    assert snapshot.workflows == []  # nothing left pending
    executed = [
        record
        for record in snapshot.completions.values()
        if record.ok and record.executed_by
    ]
    assert len(executed) == len(spec.nodes)
