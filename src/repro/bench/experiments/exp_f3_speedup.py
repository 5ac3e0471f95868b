"""F3 — Speedup versus number of providers.

The headline scalability figure: a Mandelbrot bag-of-tasks on a
homogeneous desktop pool, makespan measured as the pool grows.

Shape claims: speedup is monotone in pool size, near-linear while the
task count comfortably exceeds the slot count, and efficiency degrades
gracefully once the pool approaches the task-granularity limit (a
128-row image cannot use more than 128 slots).
"""

from __future__ import annotations

from ...broker.core import BrokerConfig
from ...core.qoc import QoC
from ...sim.devices import make_config
from ..harness import Experiment, Table, monotone_increasing
from ..simlib import mandelbrot, run_workload


def run(quick: bool = True) -> Experiment:
    pool_sizes = [1, 2, 4, 8] if quick else [1, 2, 4, 8, 16, 32]
    height = 48 if quick else 96
    width = 48 if quick else 128
    workload = mandelbrot(width=width, height=height, max_iter=48)
    table = Table(
        title="F3: speedup vs number of providers (homogeneous desktops)",
        columns=[
            "providers", "slots", "makespan s", "speedup", "efficiency",
            "pool utilization",
        ],
    )
    makespans = []
    speedups = []
    utilizations = []
    for index, count in enumerate(pool_sizes):
        pool = [make_config("desktop") for _ in range(count)]
        outcome = run_workload(
            workload,
            pool=pool,
            qoc=QoC(),
            seed=20,  # identical seed: only the pool size varies
            broker_config=BrokerConfig(execution_timeout=None),
        )
        assert outcome.failed == 0, "F3 assumes a failure-free pool"
        makespans.append(outcome.makespan)
        speedup = makespans[0] / outcome.makespan
        speedups.append(speedup)
        utilizations.append(outcome.pool_busy_utilization)
        slots = count * pool[0].capacity
        table.add_row(
            count, slots, outcome.makespan, speedup, speedup / count,
            outcome.pool_busy_utilization,
        )
    table.add_note(f"workload: {workload.name} ({len(workload)} row Tasklets)")

    experiment = Experiment("F3", table)
    experiment.check(
        "speedup is monotone in pool size",
        monotone_increasing(speedups, tolerance=0.02),
        detail=" -> ".join(f"{s:.2f}" for s in speedups),
    )
    experiment.check(
        "doubling 1->2 providers yields >= 1.6x",
        speedups[1] >= 1.6,
        detail=f"{speedups[1]:.2f}x",
    )
    experiment.check(
        "4 providers yield >= 2.8x",
        speedups[2] >= 2.8,
        detail=f"{speedups[2]:.2f}x",
    )
    experiment.check(
        "efficiency never exceeds 1 (no superlinear artefacts)",
        all(s / n <= 1.05 for s, n in zip(speedups, pool_sizes)),
    )
    experiment.check(
        "utilization falls as the pool outgrows the workload "
        "(the efficiency loss is idle slots, not overhead)",
        utilizations[0] > utilizations[-1],
        detail=" -> ".join(f"{u:.0%}" for u in utilizations),
    )
    return experiment
