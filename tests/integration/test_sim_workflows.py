"""DAG workflows end-to-end in the simulator.

Covers the broker-held scheduler through the full middleware stack:
placeholder injection, pattern graphs against the pure-python oracle,
node failure fanning out to dependents, idempotent resubmits, journal
recovery, and the batch submission helper.
"""

import pytest

from repro.broker.journal import WorkJournal, replay_journal
from repro.common.errors import (
    BrokerUnreachable,
    WorkflowFailed,
    WorkflowSpecError,
)
from repro.core import kernels
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.dag.patterns import (
    butterfly,
    chain,
    reference_values,
    stencil,
    tree,
)
from repro.dag.spec import WorkflowSpec, from_node, gather
from repro.dag import WorkflowBuilder
from repro.sim.devices import make_pool
from repro.sim.runner import Simulation
from repro.transport.message import SubmitWorkflow

SQUARE = "func main(n: int) -> int { return n * n; }"
ADD = "func main(parts: array) -> int { var total: int = 0; for (var i: int = 0; i < len(parts); i = i + 1) { total = total + int(parts[i]); } return total; }"
#: Deterministic runtime failure: out-of-bounds array read.
BAD = "func main(n: int) -> int { var a: array = array(1); return int(a[5]); }"


def build(seed=7, spec=None, journal=None):
    simulation = Simulation(seed=seed, journal=journal)
    for config in make_pool(spec or {"desktop": 2, "laptop": 2}, seed=seed):
        simulation.add_provider(config)
    return simulation


def diamond(workflow_id="diamond") -> WorkflowSpec:
    builder = WorkflowBuilder(workflow_id)
    builder.node(SQUARE, args=[3], node_id="src")
    builder.node(SQUARE, args=[from_node("src")], node_id="left")
    builder.node(SQUARE, args=[from_node("src")], node_id="right")
    builder.node(ADD, args=[gather(["left", "right"])], node_id="sink")
    return builder.build()


class TestWorkflowExecution:
    def test_diamond_injects_outputs_broker_side(self):
        simulation = build()
        consumer = simulation.add_consumer()
        handle = consumer.submit_workflow(diamond())
        simulation.run(max_time=1e4)
        assert handle.result(0) == {"sink": 162}  # 81 + 81
        assert handle.nodes_total == 4
        assert handle.nodes_memoized == 0
        assert handle.node_states["sink"] == "done"
        assert simulation.broker.stats.workflows_completed == 1
        assert simulation.broker.pending_workflows == 0
        assert consumer.core.stats.workflows_completed == 1

    @pytest.mark.parametrize(
        "spec",
        [chain(4), stencil(3, 3), tree(2, 3), butterfly(4)],
        ids=["chain", "stencil", "tree", "butterfly"],
    )
    def test_patterns_match_oracle(self, spec):
        reference = reference_values(spec)
        simulation = build()
        consumer = simulation.add_consumer()
        handle = consumer.submit_workflow(spec)
        simulation.run(max_time=1e5)
        outputs = handle.result(0)
        assert outputs == {sink: reference[sink] for sink in spec.sinks()}
        assert simulation.broker.stats.workflow_nodes_completed == len(spec.nodes)

    def test_submit_batch_resolves_every_future(self):
        simulation = build()
        consumer = simulation.add_consumer()
        program = consumer.library.compile(kernels.PRIME_COUNT)
        tasklets = [
            Tasklet(
                tasklet_id=f"batch-{limit}",
                program=program,
                entry="main",
                args=[limit],
                qoc=QoC(),
                seed=1,
            )
            for limit in (100, 200, 300)
        ]
        futures = consumer.submit_tasklets(tasklets)
        simulation.run(max_time=1e4)
        assert [f.result(0) for f in futures] == [
            kernels.python_prime_count(limit) for limit in (100, 200, 300)
        ]
        assert consumer.core.stats.submitted == 3


class TestWorkflowFailure:
    def test_node_failure_fails_workflow_with_dependents(self):
        builder = WorkflowBuilder("doomed")
        builder.node(SQUARE, args=[3], node_id="src")
        builder.node(BAD, args=[from_node("src")], node_id="bad")
        builder.node(SQUARE, args=[from_node("bad")], node_id="sink")
        simulation = build()
        consumer = simulation.add_consumer()
        handle = consumer.submit_workflow(builder.build())
        simulation.run(max_time=1e4)
        with pytest.raises(WorkflowFailed) as info:
            handle.result(0)
        assert info.value.node_id == "bad"
        assert info.value.dependents == ["sink"]
        assert "VMIndexError" in str(info.value)
        assert handle.node_states["bad"] == "failed"
        assert simulation.broker.stats.workflows_failed == 1
        assert simulation.broker.pending_workflows == 0
        # The dependent never ran: only src and bad reached a terminal state.
        assert simulation.broker.stats.workflow_nodes_completed == 2

    def test_fail_all_pending_fails_workflow_handles(self):
        simulation = build()
        consumer = simulation.add_consumer()
        handle = consumer.submit_workflow(diamond())
        assert consumer.core.fail_all_pending("link down") == 0  # no futures
        with pytest.raises(BrokerUnreachable, match="link down"):
            handle.result(0)
        assert consumer.core.stats.workflows_failed == 1


class TestIdempotentResubmit:
    def test_completed_workflow_resubmit_redelivers_outcome(self):
        simulation = build()
        consumer = simulation.add_consumer()
        spec = diamond()
        first = consumer.submit_workflow(spec)
        simulation.run(max_time=1e4)
        outputs = first.result(0)
        issued = simulation.broker.stats.executions_issued
        again = consumer.submit_workflow(spec)
        simulation.run(max_time=1e4)
        assert again.result(0) == outputs
        # Served entirely from the stored outcome: nothing re-executed.
        assert simulation.broker.stats.executions_issued == issued

    def test_inflight_duplicate_same_spec_reattaches(self):
        simulation = build()
        consumer = simulation.add_consumer()
        spec = diamond()
        handle = consumer.submit_workflow(spec)
        # A retry of the same submission (e.g. after a reconnect) while
        # the graph is still running: re-acked, not rejected.
        simulation.dispatch(
            SubmitWorkflow(workflow=spec.to_dict()).envelope(
                src=consumer.core.node_id, dst=simulation.broker.node_id
            )
        )
        simulation.run(max_time=1e4)
        assert handle.result(0) == {"sink": 162}
        assert simulation.broker.stats.workflows_submitted == 2
        assert simulation.broker.stats.workflows_completed == 1

    def test_inflight_different_spec_same_id_rejected(self):
        simulation = build()
        consumer = simulation.add_consumer()
        # The broker already owns a graph under this id (submitted by a
        # previous consumer incarnation; this core never saw it).
        simulation.dispatch(
            SubmitWorkflow(workflow=diamond("clash").to_dict()).envelope(
                src=consumer.core.node_id, dst=simulation.broker.node_id
            )
        )
        builder = WorkflowBuilder("clash")
        builder.node(SQUARE, args=[5], node_id="other")
        handle = consumer.submit_workflow(builder.build())
        simulation.run(max_time=1e4)
        with pytest.raises(WorkflowSpecError, match="duplicate workflow id"):
            handle.result(0)

    def test_resubmit_while_locally_in_flight_raises(self):
        simulation = build()
        consumer = simulation.add_consumer()
        spec = diamond()
        consumer.submit_workflow(spec)
        with pytest.raises(WorkflowSpecError, match="already in flight"):
            consumer.submit_workflow(spec)


class TestJournalRecovery:
    def test_workflow_survives_broker_restart(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        spec = chain(4, work=400, salt=11)
        reference = reference_values(spec)

        simulation = build(journal=WorkJournal(path))
        consumer = simulation.add_consumer(name="wf-cons")
        consumer.submit_workflow(spec)
        for _ in range(200):
            simulation.run_for(0.01)
            if replay_journal(path).completions:
                break
        simulation.broker.journal.close()
        done_before = len(replay_journal(path).completions)
        assert 0 < done_before < len(spec.nodes)  # crashed mid-flight

        revived = build(seed=8, journal=WorkJournal(path))
        assert revived.broker.stats.workflows_recovered == 1
        assert revived.broker.stats.workflow_nodes_memoized == done_before
        # Same consumer identity re-attaches to the running instance.
        consumer = revived.add_consumer(name="wf-cons")
        handle = consumer.submit_workflow(spec)
        revived.run(max_time=1e5)
        outputs = handle.result(0)
        assert outputs == {sink: reference[sink] for sink in spec.sinks()}
        revived.broker.journal.close()

        # Exactly-once audit across both broker lifetimes.
        snapshot = replay_journal(path)
        assert snapshot.workflows == []
        executed = [
            record
            for record in snapshot.completions.values()
            if record.ok and record.executed_by
        ]
        assert len(executed) == len(spec.nodes)

    def test_identical_workflow_memoized_from_journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        simulation = build(journal=WorkJournal(path))
        consumer = simulation.add_consumer()
        first = consumer.submit_workflow(chain(3, work=150, salt=3))
        simulation.run(max_time=1e5)
        first.result(0)

        rerun = WorkflowSpec.from_dict(
            {**chain(3, work=150, salt=3).to_dict(), "workflow_id": "wf-rerun"}
        )
        handle = consumer.submit_workflow(rerun)
        simulation.run(max_time=1e5)
        assert handle.result(0) == first.result(0)
        assert handle.nodes_memoized == handle.nodes_total == 3
        simulation.broker.journal.close()


class TestWorkflowTracing:
    """One workflow = one trace, reconstructable from the shared store."""

    def _traced_run(self, spec):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        simulation = Simulation(seed=7, telemetry=telemetry)
        for config in make_pool({"desktop": 2, "laptop": 2}, seed=7):
            simulation.add_provider(config)
        consumer = simulation.add_consumer()
        handle = consumer.submit_workflow(spec)
        simulation.run(max_time=1e5)
        return handle, telemetry.spans.spans()

    def test_diamond_produces_one_connected_trace(self):
        from repro.obs import build_trace_tree, find_workflow_trace

        handle, spans = self._traced_run(diamond())
        assert handle.result(0) == {"sink": 162}
        trace_id = find_workflow_trace(spans, "diamond")
        assert trace_id is not None
        trace_spans = [s for s in spans if s.trace_id == trace_id]
        names = {s.name for s in trace_spans}
        assert names >= {
            "workflow",
            "broker.workflow",
            "wf.node",
            "broker.tasklet",
            "broker.assign",
            "provider.execute",
        }
        # Every node span landed in the same trace, exactly once each.
        node_ids = sorted(
            s.attrs["node_id"] for s in trace_spans if s.name == "wf.node"
        )
        assert node_ids == ["left", "right", "sink", "src"]
        # The tree is fully connected: one root, the consumer's span.
        roots = build_trace_tree(trace_spans)
        assert len(roots) == 1
        assert roots[0].span.name == "workflow"
        assert roots[0].span.attrs.get("evicted") is None

    def test_analysis_reconstructs_critical_path(self):
        from repro.obs import analyze_workflow

        handle, spans = self._traced_run(diamond())
        handle.result(0)
        analysis = analyze_workflow(spans, "diamond")
        assert analysis is not None
        assert analysis.critical_path[0] == "src"
        assert analysis.critical_path[-1] == "sink"
        assert len(analysis.critical_path) == 3
        # Acceptance criterion: critical-path phase times sum to within
        # 10% of the workflow makespan.
        total = sum(analysis.phase_totals().values())
        assert analysis.makespan > 0
        assert abs(total - analysis.makespan) / analysis.makespan < 0.10
        providers = analysis.provider_attribution()
        assert providers and all(row["provider"] for row in providers)

    def test_memoized_rerun_records_memoized_node_spans(self):
        from repro.obs import Telemetry, find_workflow_trace

        telemetry = Telemetry()
        simulation = Simulation(seed=7, telemetry=telemetry)
        for config in make_pool({"desktop": 2}, seed=7):
            simulation.add_provider(config)
        consumer = simulation.add_consumer()
        spec = diamond()
        first = consumer.submit_workflow(spec)
        simulation.run(max_time=1e5)
        first.result(0)

        rerun = WorkflowSpec.from_dict(
            {**spec.to_dict(), "workflow_id": "diamond-rerun"}
        )
        handle = consumer.submit_workflow(rerun)
        simulation.run(max_time=1e5)
        assert handle.nodes_memoized == handle.nodes_total
        spans = telemetry.spans.spans()
        trace_id = find_workflow_trace(spans, "diamond-rerun")
        node_spans = [
            s
            for s in spans
            if s.trace_id == trace_id and s.name == "wf.node"
        ]
        assert len(node_spans) == 4
        assert all(s.status == "memoized" for s in node_spans)

    def test_failed_workflow_trace_marks_failed_and_cancelled_nodes(self):
        from repro.obs import find_workflow_trace

        builder = WorkflowBuilder("doomed")
        builder.node(BAD, args=[1], node_id="bad")
        builder.node(SQUARE, args=[from_node("bad")], node_id="dependent")
        handle, spans = self._traced_run(builder.build())
        with pytest.raises(WorkflowFailed):
            handle.result(0)
        trace_id = find_workflow_trace(spans, "doomed")
        by_node = {
            s.attrs["node_id"]: s
            for s in spans
            if s.trace_id == trace_id and s.name == "wf.node"
        }
        assert by_node["bad"].status == "failed"
        assert by_node["dependent"].status == "failed"
