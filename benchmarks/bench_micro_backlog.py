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
from repro.transport.message import (
    ExecutionResult,
    Heartbeat,
    RegisterProvider,
    SubmitTasklet,
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


def measure() -> dict:
    depths = {str(depth): measure_depth(depth) for depth in DEPTHS}
    shallow, deep = depths[str(DEPTHS[0])], depths[str(DEPTHS[-1])]
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
        f"from {DEPTHS[0]} to {DEPTHS[-1]} queued (ceiling {RATIO_CEILING}x) -> {path}"
    )
    try:
        check(payload)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
