#!/usr/bin/env python
"""DAG-workflow durability smoke (run in CI).

Drives the broker-held DAG scheduler through a crash over real TCP:

1. a journal-backed broker admits a 3-stage workflow (a reduction tree:
   4 leaves -> 2 combines -> 1 root); the provider finishes part of the
   graph, then drains away, and the broker is killed mid-workflow;
2. a second broker incarnation replays the journal on the same port:
   the workflow is resumed, journalled-done nodes short-circuit with
   zero re-execution, and the reconnecting consumer's resubmission of
   the same workflow id re-attaches to the in-flight graph;
3. the workflow completes with outputs matching the pure-python oracle,
   and the journal's ``executed_by`` audit shows every node executed
   exactly once across both incarnations;
4. ``python -m repro journal`` renders the workflow records (the file is
   kept as a CI artifact on failure).

Exit code 0 when every assertion holds; stack trace otherwise.
"""

import argparse
import json
import sys

from repro.broker.journal import replay_journal
from repro.cli import main as cli_main
from repro.common.errors import BrokerUnreachable
from repro.common.serde import opened
from repro.dag.patterns import reference_values, tree
from repro.transport.tcp import TcpConsumer, TcpProvider

from _cluster import start_broker, wait_for

#: Per-node busy-loop iterations (~0.5s each): big enough that, with a
#: capacity-1 provider serialising the tree, the graph is guaranteed
#: still in flight when we pull the plug; small enough to keep CI fast.
WORK = 150_000


def start_provider(host: str, port: int) -> TcpProvider:
    # capacity=1 serialises the graph: after the wait below triggers,
    # the next node is mid-execution for a whole node's runtime — a wide
    # window in which the broker kill lands mid-workflow.
    return TcpProvider(
        host, port, node_id="p1", benchmark_score=1e7, capacity=1
    ).start()


def ok_completions(path: str) -> int:
    return sum(1 for c in replay_journal(path).completions.values() if c.ok)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--journal", default="dag_journal.jsonl",
        help="journal path (CI artifact on failure)",
    )
    args = parser.parse_args()

    # max_attempts=3: a node must survive transient provider loss around
    # the crash window instead of failing the whole graph.
    spec = tree(branching=2, depth=2, work=WORK, salt=5, max_attempts=3)  # 4 -> 2 -> 1
    nodes_total = len(spec.nodes)
    reference = reference_values(spec)
    expected = {sink: reference[sink] for sink in spec.sinks()}

    # -- incarnation 1: admit the DAG, finish part of it, crash -------------
    first = start_broker(args.journal)
    host, port = first.address
    consumer = TcpConsumer(host, port, node_id="dag-consumer").start()
    try:
        provider = start_provider(host, port)
        wait_for(lambda: len(first.core.registry) >= 1, 10, "registration")
        handle = consumer.submit_workflow(spec)
        wait_for(lambda: ok_completions(args.journal) >= 2, 60, "partial progress")
        # Pull the plug with the graph guaranteed unfinished: in-flight
        # results die with the connection; the journal is the only truth.
        assert first.core.pending_workflows == 1, first.core.pending_workflows
        first.stop()
        provider.stop()
        provider = None
        done_before = ok_completions(args.journal)
        assert done_before < nodes_total, "workflow finished before the kill"
        print(
            f"incarnation 1: {done_before}/{nodes_total} nodes journalled done "
            "- killed broker mid-workflow"
        )
        try:
            handle.result(timeout=10)
            raise AssertionError("workflow handle survived the crash")
        except BrokerUnreachable:
            pass  # typed, immediate — the documented failure surface
    except BaseException:
        consumer.stop()
        first.stop()
        raise

    # -- incarnation 2: replay, resume, re-attach, finish -------------------
    second = start_broker(args.journal, port=port)
    provider = None
    try:
        stats = second.core.stats
        assert stats.workflows_recovered == 1, stats.workflows_recovered
        assert second.core.pending_workflows == 1, second.core.pending_workflows
        assert stats.workflow_nodes_memoized == done_before, (
            stats.workflow_nodes_memoized, done_before
        )
        print(
            f"incarnation 2: workflow resumed from the journal, "
            f"{stats.workflow_nodes_memoized} node(s) short-circuited"
        )

        consumer.reconnect()
        handle = consumer.submit_workflow(spec)  # idempotent: re-attaches
        provider = start_provider(host, port)
        outputs = handle.result(timeout=120)
        assert outputs == expected, (outputs, expected)
        assert handle.nodes_total == nodes_total, handle.nodes_total
        remaining = nodes_total - done_before
        assert stats.executions_issued == remaining, (
            stats.executions_issued, remaining
        )
        print(
            f"recovery: outputs match the oracle; "
            f"{remaining} node(s) executed by incarnation 2, "
            f"{done_before} redelivered from the journal"
        )
    finally:
        if provider is not None:
            provider.stop()
        consumer.stop()
        second.stop()

    # -- exactly-once audit across both incarnations ------------------------
    snapshot = replay_journal(args.journal)
    executed: dict[str, int] = {}
    for completion in snapshot.completions.values():
        if completion.ok and completion.executed_by:
            executed[completion.key] = executed.get(completion.key, 0) + 1
    assert len(executed) == nodes_total, (len(executed), nodes_total)
    duplicates = {key: n for key, n in executed.items() if n != 1}
    assert not duplicates, f"nodes executed more than once: {duplicates}"
    outcome = next(iter(snapshot.workflow_completions.values()))["outcome"]
    # (The journal holds each sink's result as the bytes it crossed the wire as.)
    outputs = {sink: opened(blob) for sink, blob in outcome["outputs"].items()}
    assert outcome["ok"] and outputs == expected, outcome
    assert not snapshot.workflows, "workflow still pending after completion"
    print(
        f"audit: {nodes_total} nodes, each with exactly one executed_by "
        "completion record - zero lost, zero duplicated"
    )

    # The CLI renders the workflow records (text and JSON forms).
    assert cli_main(["journal", args.journal, "--pending"]) == 0
    from contextlib import redirect_stdout
    from io import StringIO

    buffer = StringIO()
    with redirect_stdout(buffer):
        assert cli_main(["journal", args.journal, "--format", "json"]) == 0
    document = json.loads(buffer.getvalue())
    assert document["workflows"] == [], document["workflows"]
    assert len(document["workflow_completions"]) == 1
    print("dag smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
