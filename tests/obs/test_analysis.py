"""Workflow trace analytics: critical path, phases, Chrome export."""

import json

from repro.obs.analysis import (
    analyze_workflow,
    chrome_trace_json,
    find_workflow_trace,
    latency_summary,
    to_chrome_trace,
)
from repro.obs.trace import Span


def span(span_id, parent_id, name, start, end, node="b1", status="ok",
         trace_id="t1", **attrs):
    return Span(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        node=node,
        start=start,
        end=end,
        status=status,
        attrs=attrs,
    )


def chain_workflow_spans():
    """wf-1: a -> {b, c}; b is the long branch (critical path a -> b)."""
    wf = {"workflow_id": "wf-1"}
    spans = [
        span("c-root", None, "workflow", 0.0, 10.0, node="c1", **wf),
        span("bw", "c-root", "broker.workflow", 0.1, 9.9, nodes_total=3, **wf),
        # node a: released at 0.1, terminal at 4.0
        span("na", "bw", "wf.node", 0.1, 4.0, node_id="a", deps=[], **wf),
        span("ta", "na", "broker.tasklet", 0.2, 3.9, tasklet_id="tl-a"),
        span("aa", "ta", "broker.assign", 1.0, 3.8),
        span("ea", "aa", "provider.execute", 1.5, 3.5, node="p1"),
        # node b: the long dependent branch
        span("nb", "bw", "wf.node", 4.0, 9.0, node_id="b", deps=["a"], **wf),
        span("tb", "nb", "broker.tasklet", 4.1, 8.9, tasklet_id="tl-b"),
        span("ab", "tb", "broker.assign", 5.0, 8.8),
        span("eb", "ab", "provider.execute", 5.5, 8.5, node="p2"),
        # node c: short parallel dependent
        span("nc", "bw", "wf.node", 4.0, 6.0, node_id="c", deps=["a"], **wf),
        span("tc", "nc", "broker.tasklet", 4.1, 5.9, tasklet_id="tl-c"),
        span("ac", "tc", "broker.assign", 4.5, 5.8),
        span("ec", "ac", "provider.execute", 4.7, 5.6, node="p1"),
    ]
    return spans


class TestWorkflowDiscovery:
    def test_find_workflow_trace(self):
        spans = chain_workflow_spans()
        assert find_workflow_trace(spans, "wf-1") == "t1"
        assert find_workflow_trace(spans, "nope") is None

    def test_non_workflow_spans_are_ignored(self):
        only_tasklets = [span("t", None, "broker.tasklet", 0.0, 1.0)]
        assert find_workflow_trace(only_tasklets, "wf-1") is None
        assert analyze_workflow(only_tasklets, "wf-1") is None


class TestAnalyzeWorkflow:
    def test_critical_path_follows_latest_finishing_dep(self):
        analysis = analyze_workflow(chain_workflow_spans(), "wf-1")
        assert analysis is not None
        assert analysis.critical_path == ["a", "b"]
        assert [n.node_id for n in analysis.critical_nodes()] == ["a", "b"]

    def test_envelope_is_broker_workflow_span(self):
        analysis = analyze_workflow(chain_workflow_spans(), "wf-1")
        assert analysis.trace_id == "t1"
        assert analysis.start == 0.1 and analysis.end == 9.9
        assert abs(analysis.makespan - 9.8) < 1e-9

    def test_phases_sum_to_each_node_duration(self):
        analysis = analyze_workflow(chain_workflow_spans(), "wf-1")
        for node in analysis.nodes:
            assert abs(sum(node.phases.values()) - node.duration) < 1e-9
            assert all(value >= 0.0 for value in node.phases.values())

    def test_node_a_phase_attribution(self):
        analysis = analyze_workflow(chain_workflow_spans(), "wf-1")
        a = next(n for n in analysis.nodes if n.node_id == "a")
        assert abs(a.phases["vm"] - 2.0) < 1e-9       # execute 1.5 -> 3.5
        assert abs(a.phases["wire"] - 0.8) < 1e-9     # assign 2.8 - vm
        assert abs(a.phases["queue"] - 0.8) < 1e-9    # 1.0 - tasklet 0.2
        assert abs(a.phases["scheduling"] - 0.3) < 1e-9
        assert a.provider == "p1"
        assert a.broker == "b1"

    def test_critical_phase_totals_track_makespan(self):
        # Acceptance criterion: critical-path phase times sum to within
        # 10% of the workflow makespan.
        analysis = analyze_workflow(chain_workflow_spans(), "wf-1")
        total = sum(analysis.phase_totals().values())
        assert abs(total - analysis.makespan) / analysis.makespan < 0.10

    def test_provider_attribution_sorted_by_critical_share(self):
        analysis = analyze_workflow(chain_workflow_spans(), "wf-1")
        rows = analysis.provider_attribution()
        assert [row["provider"] for row in rows] == ["p2", "p1"]
        p1 = rows[1]
        assert p1["nodes"] == 2           # executed a and c
        assert p1["critical_nodes"] == 1  # only a is critical
        p2 = rows[0]
        assert abs(p2["critical_s"] - 5.0) < 1e-9  # node b duration

    def test_to_dict_is_json_safe(self):
        analysis = analyze_workflow(chain_workflow_spans(), "wf-1")
        doc = json.loads(json.dumps(analysis.to_dict()))
        assert doc["workflow_id"] == "wf-1"
        assert doc["critical_path"] == ["a", "b"]
        assert len(doc["nodes"]) == 3
        assert set(doc["phase_totals"]) == {"scheduling", "queue", "wire", "vm"}

    def test_forwarded_node_attributes_to_peer_provider(self):
        # A node whose tasklet was forwarded: the execute lives under the
        # peer broker's tasklet, below a broker.forward span.
        wf = {"workflow_id": "wf-f"}
        spans = [
            span("bw", None, "broker.workflow", 0.0, 5.0, trace_id="tf", **wf),
            span("n", "bw", "wf.node", 0.0, 5.0, trace_id="tf",
                 node_id="x", deps=[], **wf),
            span("t1", "n", "broker.tasklet", 0.1, 4.9, trace_id="tf"),
            span("fw", "t1", "broker.forward", 0.2, 4.8, trace_id="tf",
                 peer="b2"),
            span("t2", "fw", "broker.tasklet", 0.5, 4.5, trace_id="tf",
                 node="b2"),
            span("as", "t2", "broker.assign", 1.0, 4.4, trace_id="tf",
                 node="b2"),
            span("ex", "as", "provider.execute", 1.5, 4.0, trace_id="tf",
                 node="p9"),
        ]
        analysis = analyze_workflow(spans, "wf-f")
        (node,) = analysis.nodes
        assert node.provider == "p9"
        assert abs(node.phases["vm"] - 2.5) < 1e-9
        # queue measured against the owning (peer) tasklet.
        assert abs(node.phases["queue"] - 0.5) < 1e-9
        assert abs(sum(node.phases.values()) - node.duration) < 1e-9

    def test_failed_node_without_execution_is_all_scheduling(self):
        wf = {"workflow_id": "wf-x"}
        spans = [
            span("bw", None, "broker.workflow", 0.0, 2.0, trace_id="tx",
                 status="failed", **wf),
            span("n", "bw", "wf.node", 0.0, 2.0, trace_id="tx",
                 status="failed", node_id="only", deps=[], **wf),
        ]
        analysis = analyze_workflow(spans, "wf-x")
        (node,) = analysis.nodes
        assert node.status == "failed"
        assert node.provider == ""
        assert node.phases == {
            "scheduling": 2.0, "queue": 0.0, "wire": 0.0, "vm": 0.0,
        }


class TestLatencySummary:
    def test_summary_counts_and_percentiles(self):
        summary = latency_summary(chain_workflow_spans())
        assert summary["workflows"] == 1
        assert summary["nodes"] == 3
        assert summary["queue_p50_s"] >= 0.0
        assert summary["makespan_p50_s"] == summary["makespan_p95_s"]
        assert abs(summary["makespan_p50_s"] - 9.8) < 1e-9

    def test_empty_spans_omit_percentiles(self):
        summary = latency_summary([])
        assert summary == {"workflows": 0, "nodes": 0}


class TestChromeExport:
    def test_events_are_structurally_valid(self):
        doc = to_chrome_trace(chain_workflow_spans())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events, "no events emitted"
        for event in events:
            assert set(event) >= {"name", "ph", "pid", "tid"}
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert event["args"]["trace_id"] == "t1"

    def test_nodes_become_named_processes(self):
        doc = to_chrome_trace(chain_workflow_spans())
        process_names = {
            event["args"]["name"]
            for event in doc["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert {"c1", "b1", "p1", "p2"} <= process_names

    def test_complete_events_carry_microsecond_times(self):
        doc = to_chrome_trace([span("s", None, "op", 1.0, 3.5)])
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == 1.0e6
        assert complete[0]["dur"] == 2.5e6

    def test_json_serialization_round_trips(self):
        text = chrome_trace_json(chain_workflow_spans())
        doc = json.loads(text)
        assert doc["traceEvents"]
