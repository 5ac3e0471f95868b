"""Broker backlog scaling: placement work follows free slots, not queue depth.

Drives a sans-IO :class:`~repro.broker.core.BrokerCore` on a
``VirtualClock`` — two providers of four slots, the shape of
``benchmarks/e2e`` — with 256, 2,048 and 16,384 ``x + 1`` tasklets queued
behind the eight that run, and records in ``BENCH_scale.json`` at the
repo root what one message costs at each depth:

* a heartbeat while no slot is free (the drain must not look at the
  queue: **0** ``strategy.select`` calls, an exact count);
* the closed loop the end-to-end benchmark runs — a result comes back,
  the drain places the oldest queued tasklet, the consumer submits a new
  one — (**<= 2** ``select`` calls per placement, an exact count);
* a maintenance tick with nothing overdue.

The guard: the counts hold at every depth, and the mean time of
``handle(result)`` and of ``tick()`` at 16,384 queued is at most
``RATIO_CEILING`` times that at 256.  Before the drain was bounded by free
capacity every message made one ``select`` call per queued tasklet and
summed the queue once per call: ``handle(result)`` took 3.3 ms at 256
queued and 130 ms at 2,048 (40x) on the box that now reads ~45 us at
every depth.

The workflow row asks the same of a graph's size: the broker time
(``handle``) per node of one ``dag.patterns`` stencil — its
``submit_workflow`` plus the result of every node — at 64, 256 and 1,024
nodes, each node answered with its true value by one provider with a slot
per column.  The guard: per node, 1,024 costs at most
``WORKFLOW_RATIO_CEILING`` times 64.  While the broker re-walked the graph
(list-backed Kahn order, a linear ``spec.node`` per released node, a
``finished`` test over every node per result, a JSON hash of every node
per submit) a 1,024-node stencil cost ~1.6x a 64-node one per node.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_micro_backlog.py``,
the CI ``broker-scale-perf`` job) or under pytest
(``pytest benchmarks/bench_micro_backlog.py``).
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import deque
from pathlib import Path

try:
    from repro.broker.core import BrokerCore
except ImportError:  # running as a plain script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.broker.core import BrokerCore

from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import opened, packed
from repro.core.tasklet import Tasklet
from repro.dag.patterns import python_dag_kernel, stencil
from repro.transport.message import (
    ExecutionResult,
    Heartbeat,
    RegisterProvider,
    SubmitTasklet,
    SubmitWorkflow,
)
from repro.tvm.compiler import compile_source

DEPTHS = (256, 2_048, 16_384)
PROVIDERS = ("p0", "p1")
SLOTS_EACH = 4
#: Mean ``handle(result)`` / ``tick()`` time at the deepest backlog may be
#: at most this many times the time at the shallowest.
RATIO_CEILING = 3.0
#: Timed operations per batch, batches per depth; the best batch counts,
#: which keeps a noisy neighbour out of a ratio of microseconds.
BATCH = 400
BATCHES = 5
#: Stencil sizes (square: width = depth) of the workflow row, and the
#: ceiling on per-node broker time at the largest over the smallest.
WORKFLOW_NODES = (64, 256, 1_024)
WORKFLOW_RATIO_CEILING = 1.3

PROGRAM = compile_source("func main(x: int) -> int { return x + 1; }")


class _Loop:
    """One broker, its queue kept at ``depth`` by a closed loop."""

    def __init__(self, depth: int):
        self.clock = VirtualClock()
        self.broker = BrokerCore(clock=self.clock)
        self.select_calls = 0
        self.placements = 0
        self.submitted = 0
        #: ``(execution_id, provider, expected value)``, oldest first.
        self.running: deque[tuple[str, str, int]] = deque()
        self._count_select_calls()
        for provider in PROVIDERS:
            self.deliver(
                RegisterProvider(
                    provider_id=provider, device_class="bench",
                    capacity=SLOTS_EACH, benchmark_score=1e8,
                ),
                provider,
            )
        for _ in range(len(PROVIDERS) * SLOTS_EACH + depth):
            self.submit()
        assert self.broker.backlog.replicas == depth
        assert self.broker.registry.free_capacity == 0

    def _count_select_calls(self) -> None:
        strategy = self.broker.strategy
        original = strategy.select

        def counting(views, count, qoc):
            self.select_calls += 1
            return original(views, count, qoc)

        strategy.select = counting  # the core looks it up per call

    def deliver(self, body, src: str) -> None:
        out = self.broker.handle(body.envelope(NodeId(src), self.broker.node_id))
        for envelope in out:
            if envelope.type == "assign_execution":
                payload = envelope.payload
                self.placements += 1
                self.running.append(
                    (payload["execution_id"], str(envelope.dst), opened(payload["args"])[0] + 1)
                )
            elif envelope.type == "tasklet_complete":
                assert envelope.payload["ok"], envelope.payload

    def submit(self) -> None:
        self.submitted += 1
        tasklet = Tasklet(
            tasklet_id=TaskletId(f"tl-{self.submitted}"), program=PROGRAM,
            entry="main", args=[self.submitted],
        )
        self.deliver(SubmitTasklet(tasklet=tasklet.to_dict()), "c0")

    def heartbeat(self) -> None:
        self.deliver(Heartbeat(provider_id=PROVIDERS[0], free_slots=0), PROVIDERS[0])

    def result(self) -> None:
        execution_id, provider, value = self.running.popleft()
        now = self.clock.now()
        self.deliver(
            ExecutionResult(
                execution_id=execution_id, tasklet_id="", provider_id=provider,
                status="success", value=packed(value), instructions=4,
                started_at=now, finished_at=now + 1e-4,
            ),
            provider,
        )


def _best_mean_us(operation, between=None) -> float:
    """Mean time of one ``operation`` over the best of ``BATCHES`` batches
    (``between`` runs untimed after each, to restore the state)."""
    best = float("inf")
    for _ in range(BATCHES):
        spent = 0
        for _ in range(BATCH):
            start = time.perf_counter_ns()
            operation()
            spent += time.perf_counter_ns() - start
            if between is not None:
                between()
        best = min(best, spent / BATCH)
    return best / 1e3


def measure_depth(depth: int) -> dict:
    loop = _Loop(depth)
    broker = loop.broker
    rounds = BATCH * BATCHES
    gc.collect()
    gc.disable()
    try:
        loop.select_calls = 0
        heartbeat_us = _best_mean_us(loop.heartbeat)
        heartbeat_selects = loop.select_calls

        def tick():
            loop.clock.advance(1e-3)
            broker.tick()

        tick_us = _best_mean_us(tick)

        loop.select_calls = loop.placements = 0
        result_us = _best_mean_us(loop.result, between=loop.submit)
    finally:
        gc.enable()
    assert broker.backlog.replicas == depth  # the loop held the queue steady
    assert broker.stats.tasklets_failed == 0
    assert broker.stats.tasklets_completed == rounds
    return {
        "queued": depth,
        "heartbeat_no_capacity_us": round(heartbeat_us, 2),
        "select_calls_per_no_capacity_heartbeat": heartbeat_selects / rounds,
        "tick_nothing_overdue_us": round(tick_us, 2),
        "result_us": round(result_us, 2),
        "placements": loop.placements,
        "select_calls_per_placement": loop.select_calls / loop.placements,
    }


class _Workflows:
    """One broker and one provider with a slot per stencil column, which
    answers every assignment with the node's true value."""

    def __init__(self, width: int):
        self.clock = VirtualClock()
        self.broker = BrokerCore(clock=self.clock)
        self.width = width
        self.runs = 0
        self._deliver(
            RegisterProvider(
                provider_id="p0", device_class="bench", capacity=width,
                benchmark_score=1e8,
            ),
            "p0",
        )

    def _deliver(self, body, src: str) -> tuple[list, int]:
        """``handle`` one message: what it sent, and the ns it took."""
        envelope = body.envelope(NodeId(src), self.broker.node_id)
        start = time.perf_counter_ns()
        out = self.broker.handle(envelope)
        return out, time.perf_counter_ns() - start

    def run(self) -> int:
        """One whole stencil through the broker; the ns its ``handle`` calls
        took.  Salts differ per run, so the result memo never answers."""
        self.runs += 1
        nodes = self.width * self.width
        spec = stencil(self.width, self.width, work=1, salt=self.runs * nodes)
        spec.workflow_id = f"wf-{self.runs}"
        out, spent = self._deliver(SubmitWorkflow(workflow=spec.to_dict()), "c0")
        pending, completed = deque(out), 0
        while pending:
            envelope = pending.popleft()
            if envelope.type == "workflow_complete":
                assert envelope.payload["ok"], envelope.payload
                completed += 1
            if envelope.type != "assign_execution":
                continue
            payload, now = envelope.payload, self.clock.now()
            inputs, work, salt = opened(payload["args"])
            value = python_dag_kernel(list(inputs), work, salt)
            out, took = self._deliver(
                ExecutionResult(
                    execution_id=payload["execution_id"], tasklet_id=payload["tasklet_id"],
                    provider_id="p0", status="success", value=packed(value, fold_nan=True),
                    instructions=4, started_at=now, finished_at=now + 1e-4,
                ),
                "p0",
            )
            spent += took
            pending.extend(out)
        assert completed == 1
        return spent


def measure_workflows() -> dict:
    """Best per-node time of ``BATCHES`` runs per size — the sizes taken in
    turn, so a noisy stretch of the host slows all of them, not one."""
    loops = {}
    for nodes in WORKFLOW_NODES:
        width = int(round(nodes ** 0.5))
        assert width * width == nodes
        loops[nodes] = _Workflows(width)
        loops[nodes].run()  # the program is opened once per broker: not what is measured
    best = dict.fromkeys(WORKFLOW_NODES, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(BATCHES):
            for nodes, workflows in loops.items():
                best[nodes] = min(best[nodes], workflows.run())
    finally:
        gc.enable()
    for workflows in loops.values():
        assert workflows.broker.stats.memo_hits == 0
        assert workflows.broker.stats.workflows_completed == BATCHES + 1
    return {
        str(nodes): {"nodes": nodes, "handle_us_per_node": round(best[nodes] / nodes / 1e3, 2)}
        for nodes in WORKFLOW_NODES
    }


def measure() -> dict:
    depths = {str(depth): measure_depth(depth) for depth in DEPTHS}
    shallow, deep = depths[str(DEPTHS[0])], depths[str(DEPTHS[-1])]
    workflow = measure_workflows()
    small, large = workflow[str(WORKFLOW_NODES[0])], workflow[str(WORKFLOW_NODES[-1])]
    return {
        "benchmark": "broker_backlog_scale",
        "slots": len(PROVIDERS) * SLOTS_EACH,
        "operations_per_batch": BATCH,
        "batches": BATCHES,
        "depths": depths,
        "result_time_ratio": round(deep["result_us"] / shallow["result_us"], 2),
        "tick_time_ratio": round(
            deep["tick_nothing_overdue_us"] / shallow["tick_nothing_overdue_us"], 2
        ),
        "ratio_ceiling": RATIO_CEILING,
        "workflow": workflow,
        "workflow_time_ratio": round(
            large["handle_us_per_node"] / small["handle_us_per_node"], 2
        ),
        "workflow_ratio_ceiling": WORKFLOW_RATIO_CEILING,
    }


def write_report(payload: dict) -> Path:
    path = Path(__file__).resolve().parents[1] / "BENCH_scale.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check(payload: dict) -> None:
    """The perf guard: exact counts at every depth, bounded time ratios."""
    for depth, row in payload["depths"].items():
        assert row["select_calls_per_no_capacity_heartbeat"] == 0, (
            f"{depth} queued: a heartbeat with no free slot made "
            f"{row['select_calls_per_no_capacity_heartbeat']} select calls"
        )
        assert row["placements"] == BATCH * BATCHES, (depth, row["placements"])
        assert row["select_calls_per_placement"] <= 2, (
            f"{depth} queued: {row['select_calls_per_placement']} select "
            "calls per placement (ceiling 2)"
        )
    for name in ("result_time_ratio", "tick_time_ratio"):
        assert payload[name] <= RATIO_CEILING, (
            f"{name} {payload[name]}x between {DEPTHS[0]} and {DEPTHS[-1]} "
            f"queued exceeds the {RATIO_CEILING}x ceiling"
        )
    assert payload["workflow_time_ratio"] <= WORKFLOW_RATIO_CEILING, (
        f"broker time per workflow node {payload['workflow_time_ratio']}x between "
        f"{WORKFLOW_NODES[0]} and {WORKFLOW_NODES[-1]} nodes exceeds the "
        f"{WORKFLOW_RATIO_CEILING}x ceiling"
    )


def test_backlog_cost_is_independent_of_depth():
    """Pytest entry point: measure, record, and enforce the guard."""
    payload = measure()
    write_report(payload)
    check(payload)


def main() -> int:
    payload = measure()
    path = write_report(payload)
    print(
        f"{'queued':>7} {'heartbeat':>10} {'tick':>9} {'result':>9} "
        f"{'select/hb':>10} {'select/placement':>17}"
    )
    for row in payload["depths"].values():
        print(
            f"{row['queued']:>7} {row['heartbeat_no_capacity_us']:>8.1f}us "
            f"{row['tick_nothing_overdue_us']:>7.1f}us {row['result_us']:>7.1f}us "
            f"{row['select_calls_per_no_capacity_heartbeat']:>10.0f} "
            f"{row['select_calls_per_placement']:>17.2f}"
        )
    print(
        f"result {payload['result_time_ratio']}x, tick {payload['tick_time_ratio']}x "
        f"from {DEPTHS[0]} to {DEPTHS[-1]} queued (ceiling {RATIO_CEILING}x)"
    )
    print(f"{'nodes':>7} {'handle/node':>12}")
    for row in payload["workflow"].values():
        print(f"{row['nodes']:>7} {row['handle_us_per_node']:>10.1f}us")
    print(
        f"workflow {payload['workflow_time_ratio']}x per node from {WORKFLOW_NODES[0]} "
        f"to {WORKFLOW_NODES[-1]} nodes (ceiling {WORKFLOW_RATIO_CEILING}x) -> {path}"
    )
    try:
        check(payload)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
