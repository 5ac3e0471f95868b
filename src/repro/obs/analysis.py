"""Workflow trace analytics: critical path, phase attribution, Chrome export.

Built entirely on recorded spans (:mod:`repro.obs.trace`) — no scheduler
state is consulted, so the same analysis works on a live broker's span
store, on spans merged from several brokers' ObsServers, or on a span
dump loaded from disk.  The span vocabulary it understands::

    workflow                     (consumer: submit -> resolved handle)
    └─ broker.workflow           (broker: admission -> terminal)
       └─ wf.node                (per node: released -> terminal; attrs
          │                       carry node_id + deps, so the DAG is
          │                       reconstructable from spans alone)
          └─ broker.tasklet      (admission -> voted completion)
             ├─ broker.assign    (issue -> result)      × replicas
             │  └─ provider.execute
             └─ broker.forward   (origin: forwarded -> ForwardComplete)
                └─ broker.tasklet   (peer broker, same shape)

Per-node wall-clock is attributed to four phases that sum to the node
span's duration: ``vm`` (the winning execution's time on the provider),
``wire`` (assignment round-trip minus execution — transfer + codec +
transport), ``queue`` (admission until the first assignment left), and
``scheduling`` (the residual: release bookkeeping, forwarding hops,
vote folding).  Everything here is stdlib-only, like the rest of obs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..common.stats import percentile
from .trace import Span

#: Span names whose ``attrs["workflow_id"]`` identifies a workflow trace.
_WORKFLOW_SPAN_NAMES = ("workflow", "broker.workflow", "wf.node")


def find_workflow_trace(spans: Iterable[Span], workflow_id: str) -> str | None:
    """Trace id of the given workflow, or None if no span mentions it."""
    for span in spans:
        if (
            span.name in _WORKFLOW_SPAN_NAMES
            and str(span.attrs.get("workflow_id", "")) == workflow_id
        ):
            return span.trace_id
    return None


@dataclass
class NodeTiming:
    """One workflow node's place on the timeline, with phase attribution."""

    node_id: str
    start: float
    end: float
    status: str
    attempts: int
    deps: list[str]
    #: Provider that ran the winning execution ("" if memoized/failed).
    provider: str
    #: Broker that owned the node span.
    broker: str
    #: Wall-clock attribution; keys scheduling/queue/wire/vm sum to
    #: ``duration`` (each clamped to >= 0).
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attempts": self.attempts,
            "deps": list(self.deps),
            "provider": self.provider,
            "broker": self.broker,
            "phases": dict(self.phases),
        }


@dataclass
class WorkflowTraceAnalysis:
    """A finished workflow's reassembled timeline."""

    workflow_id: str
    trace_id: str
    start: float
    end: float
    nodes: list[NodeTiming]
    #: Node ids of the longest dependency chain, in execution order.
    critical_path: list[str]

    @property
    def makespan(self) -> float:
        return self.end - self.start

    def critical_nodes(self) -> list[NodeTiming]:
        by_id = {node.node_id: node for node in self.nodes}
        return [by_id[node_id] for node_id in self.critical_path if node_id in by_id]

    def phase_totals(self) -> dict[str, float]:
        """Per-phase time summed along the critical path."""
        totals = {"scheduling": 0.0, "queue": 0.0, "wire": 0.0, "vm": 0.0}
        for node in self.critical_nodes():
            for phase, value in node.phases.items():
                totals[phase] = totals.get(phase, 0.0) + value
        return totals

    def provider_attribution(self) -> list[dict[str, Any]]:
        """Per-provider totals: who executed what, and how much of the
        critical path they account for.  Sorted by critical-path share."""
        critical = set(self.critical_path)
        table: dict[str, dict[str, Any]] = {}
        for node in self.nodes:
            if not node.provider:
                continue
            row = table.setdefault(
                node.provider,
                {"provider": node.provider, "nodes": 0, "vm_s": 0.0,
                 "critical_nodes": 0, "critical_s": 0.0},
            )
            row["nodes"] += 1
            row["vm_s"] += node.phases.get("vm", 0.0)
            if node.node_id in critical:
                row["critical_nodes"] += 1
                row["critical_s"] += node.duration
        return sorted(
            table.values(), key=lambda row: (-row["critical_s"], row["provider"])
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workflow_id": self.workflow_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "makespan": self.makespan,
            "nodes": [node.to_dict() for node in self.nodes],
            "critical_path": list(self.critical_path),
            "phase_totals": self.phase_totals(),
            "providers": self.provider_attribution(),
        }


def _children_index(spans: Sequence[Span]) -> dict[str, list[Span]]:
    index: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent_id:
            index.setdefault(span.parent_id, []).append(span)
    return index


def _descendants(
    root: Span, children: dict[str, list[Span]]
) -> Iterable[Span]:
    stack = list(children.get(root.span_id, ()))
    seen: set[str] = set()
    while stack:
        span = stack.pop()
        if span.span_id in seen:
            continue  # defensive: malformed parent links must not loop
        seen.add(span.span_id)
        yield span
        stack.extend(children.get(span.span_id, ()))


def _node_timing(node_span: Span, children: dict[str, list[Span]]) -> NodeTiming:
    below = list(_descendants(node_span, children))
    tasklets = sorted(
        (s for s in below if s.name == "broker.tasklet"), key=lambda s: s.start
    )
    assigns = sorted(
        (s for s in below if s.name == "broker.assign"), key=lambda s: s.start
    )
    executes = [s for s in below if s.name == "provider.execute"]
    # The winning execution: prefer an ok one, break ties on latest end
    # (the one whose result actually decided the vote).
    winner: Span | None = None
    for candidate in executes:
        if winner is None:
            winner = candidate
            continue
        if (candidate.status == "ok", candidate.end) > (
            winner.status == "ok",
            winner.end,
        ):
            winner = candidate
    duration = max(0.0, node_span.end - node_span.start)
    vm = max(0.0, winner.duration) if winner is not None else 0.0
    wire = 0.0
    queue = 0.0
    if winner is not None:
        winning_assign = next(
            (a for a in assigns if a.span_id == winner.parent_id), None
        )
        if winning_assign is not None:
            wire = max(0.0, winning_assign.duration - vm)
            owner = next(
                (t for t in tasklets if t.span_id == winning_assign.parent_id),
                tasklets[0] if tasklets else None,
            )
            if owner is not None:
                queue = max(0.0, winning_assign.start - owner.start)
    # Clamp each phase into the node's own window, then let scheduling
    # absorb the residual so the four phases sum to the node duration.
    vm = min(vm, duration)
    wire = min(wire, duration - vm)
    queue = min(queue, duration - vm - wire)
    scheduling = max(0.0, duration - vm - wire - queue)
    return NodeTiming(
        node_id=str(node_span.attrs.get("node_id", "")),
        start=node_span.start,
        end=node_span.end,
        status=node_span.status,
        attempts=int(node_span.attrs.get("attempts", 0) or 0),
        deps=[str(dep) for dep in node_span.attrs.get("deps", ()) or ()],
        provider=winner.node if winner is not None else "",
        broker=node_span.node,
        phases={
            "scheduling": scheduling,
            "queue": queue,
            "wire": wire,
            "vm": vm,
        },
    )


def _critical_path(nodes: Sequence[NodeTiming]) -> list[str]:
    """Longest finishing chain: walk back from the last-ending node,
    at each step following the dependency that finished last."""
    if not nodes:
        return []
    by_id = {node.node_id: node for node in nodes}
    current = max(nodes, key=lambda node: (node.end, node.node_id))
    path = [current.node_id]
    seen = {current.node_id}
    while True:
        deps = [by_id[d] for d in current.deps if d in by_id and d not in seen]
        if not deps:
            break
        current = max(deps, key=lambda node: (node.end, node.node_id))
        path.append(current.node_id)
        seen.add(current.node_id)
    path.reverse()
    return path


def analyze_workflow(
    spans: Iterable[Span], workflow_id: str
) -> WorkflowTraceAnalysis | None:
    """Reassemble one workflow's timeline from (possibly merged) spans.

    Returns None when no span mentions ``workflow_id``.  Spans from
    other traces are ignored, so the caller may pass a whole store.
    """
    all_spans = list(spans)
    trace_id = find_workflow_trace(all_spans, workflow_id)
    if trace_id is None:
        return None
    trace_spans = [s for s in all_spans if s.trace_id == trace_id]
    children = _children_index(trace_spans)
    node_spans = [
        s
        for s in trace_spans
        if s.name == "wf.node"
        and str(s.attrs.get("workflow_id", "")) == workflow_id
    ]
    nodes = sorted(
        (_node_timing(s, children) for s in node_spans),
        key=lambda node: (node.start, node.node_id),
    )
    # The workflow's envelope: the broker.workflow span when present
    # (admission -> terminal), else the consumer's root, else node bounds.
    envelope = next(
        (
            s
            for s in trace_spans
            if s.name == "broker.workflow"
            and str(s.attrs.get("workflow_id", "")) == workflow_id
        ),
        None,
    ) or next(
        (
            s
            for s in trace_spans
            if s.name == "workflow"
            and str(s.attrs.get("workflow_id", "")) == workflow_id
        ),
        None,
    )
    if envelope is not None:
        start, end = envelope.start, envelope.end
    elif nodes:
        start = min(node.start for node in nodes)
        end = max(node.end for node in nodes)
    else:
        start = end = 0.0
    return WorkflowTraceAnalysis(
        workflow_id=workflow_id,
        trace_id=trace_id,
        start=start,
        end=end,
        nodes=nodes,
        critical_path=_critical_path(nodes),
    )


def latency_summary(spans: Iterable[Span]) -> dict[str, Any]:
    """Cluster-wide workflow latency digest for ``repro top``.

    Queue times come from every node's winning-assign wait; makespans
    from ``broker.workflow`` spans.  All values in seconds.
    """
    all_spans = list(spans)
    children = _children_index(all_spans)
    queues: list[float] = []
    for span in all_spans:
        if span.name != "wf.node":
            continue
        timing = _node_timing(span, children)
        queues.append(timing.phases["queue"])
    makespans = [
        span.duration for span in all_spans if span.name == "broker.workflow"
    ]
    summary: dict[str, Any] = {
        "workflows": len(makespans),
        "nodes": len(queues),
    }
    if queues:
        summary["queue_p50_s"] = percentile(queues, 50.0)
        summary["queue_p95_s"] = percentile(queues, 95.0)
    if makespans:
        summary["makespan_p50_s"] = percentile(makespans, 50.0)
        summary["makespan_p95_s"] = percentile(makespans, 95.0)
    return summary


# -- Chrome trace-event export ------------------------------------------------


def to_chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Spans as a Chrome trace-event JSON object (Perfetto-loadable).

    Each span becomes one complete event (``ph: "X"``, microsecond
    timestamps); each recording node becomes a process with a
    ``process_name`` metadata event, and each span name a named thread
    lane within it, so Perfetto groups the timeline by node.
    """
    events: list[dict[str, Any]] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[int, str], int] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        pid = pids.get(span.node)
        if pid is None:
            pid = len(pids) + 1
            pids[span.node] = pid
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": span.node},
                }
            )
        tid = tids.get((pid, span.name))
        if tid is None:
            tid = len([key for key in tids if key[0] == pid]) + 1
            tids[(pid, span.name)] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": span.name},
                }
            )
        label = span.name
        node_id = span.attrs.get("node_id")
        if node_id:
            label = f"{span.name} {node_id}"
        events.append(
            {
                "name": label,
                "cat": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(0.0, span.duration) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "status": span.status,
                    **{str(k): v for k, v in span.attrs.items()},
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Iterable[Span]) -> str:
    """:func:`to_chrome_trace` serialized (values coerced to be JSON-safe)."""
    return json.dumps(to_chrome_trace(spans), default=str)
