"""A5 — Ablation: pipelined dispatch vs assign-on-free-slot.

With plain assign-on-free-slot dispatch, every Tasklet pays a full
result→assign network round trip of provider idleness — crippling for
fine-grained Tasklets whose compute time is comparable to the network
latency (the F2 granularity story, seen from the scheduler's side).
``pipeline_depth`` lets the broker keep extra executions in flight per
provider; the provider queues them locally and starts the next one the
moment a slot frees.

Shape claims: for fine-grained Tasklets, pipelining cuts makespan
substantially (>= 1.3x at depth 4) and raises pool utilization; for
coarse Tasklets (compute >> round trip) the effect is negligible (< 10%)
— so the default of 0 is safe and the knob matters exactly when F2 says
granularity hurts.
"""

from __future__ import annotations

from ...broker.core import BrokerConfig
from ...core.qoc import QoC
from ...sim.devices import make_config
from ...sim.workloads import prime_count
from ..harness import Experiment, Table, monotone_increasing
from ..simlib import mandelbrot, run_workload


def _run(workload, depth: int):
    return run_workload(
        workload,
        pool=[make_config("desktop"), make_config("desktop")],
        qoc=QoC(),
        seed=44,
        broker_config=BrokerConfig(
            execution_timeout=None, pipeline_depth=depth
        ),
    )


def run(quick: bool = True) -> Experiment:
    depths = [0, 1, 2, 4]
    fine = mandelbrot(width=32, height=48 if quick else 96, max_iter=32)
    coarse = prime_count(tasks=10 if quick else 24, limit=20000)
    table = Table(
        title="A5: pipelined dispatch vs task granularity",
        columns=[
            "pipeline depth",
            "fine makespan s",
            "fine utilization",
            "coarse makespan s",
        ],
    )
    fine_makespans = []
    fine_utilizations = []
    coarse_makespans = []
    for depth in depths:
        fine_outcome = _run(fine, depth)
        coarse_outcome = _run(coarse, depth)
        assert fine_outcome.failed == 0 and coarse_outcome.failed == 0
        fine_makespans.append(fine_outcome.makespan)
        fine_utilizations.append(fine_outcome.pool_busy_utilization)
        coarse_makespans.append(coarse_outcome.makespan)
        table.add_row(
            depth,
            fine_outcome.makespan,
            fine_outcome.pool_busy_utilization,
            coarse_outcome.makespan,
        )
    table.add_note(
        "fine: mandelbrot rows (~0.5ms compute vs 10ms round trip); "
        "coarse: prime_count(20000) (~50ms compute); 2 desktop providers"
    )

    experiment = Experiment("A5", table)
    speedup = fine_makespans[0] / fine_makespans[-1]
    experiment.check(
        "pipelining speeds fine-grained Tasklets >= 1.3x at depth 4",
        speedup >= 1.3,
        detail=f"{speedup:.2f}x",
    )
    experiment.check(
        "fine-grained utilization rises with depth",
        monotone_increasing(fine_utilizations, tolerance=0.02),
        detail=" -> ".join(f"{u:.0%}" for u in fine_utilizations),
    )
    coarse_change = abs(coarse_makespans[-1] - coarse_makespans[0]) / coarse_makespans[0]
    experiment.check(
        "coarse Tasklets are unaffected (< 10% makespan change)",
        coarse_change < 0.10,
        detail=f"{coarse_change:.1%}",
    )
    return experiment
