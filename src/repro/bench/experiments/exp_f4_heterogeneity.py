"""F4 — Scheduling strategies under heterogeneity.

The system's raison d'être: a pool spanning servers to single-board
computers, a long-tailed mixed workload, and the question of whether
benchmark-aware scheduling beats heterogeneity-oblivious placement.

Shape claims: speed-aware strategies (fastest_first, qoc with the speed
goal) achieve lower makespan than random placement; random is the worst
or near-worst; the win comes from keeping the long tasks off the slow
devices (straggler avoidance).
"""

from __future__ import annotations

import random

from ...broker.core import BrokerConfig
from ...core import kernels
from ...core.programs import compiled
from ...core.qoc import QoC
from ...sim.devices import make_pool
from ...sim.workloads import Workload
from ..harness import Experiment, Table
from ..simlib import run_workload

_POOL_SPEC = {"server": 1, "desktop": 2, "laptop": 2, "smartphone": 4, "sbc": 3}
_STRATEGIES = ["random", "round_robin", "least_loaded", "fastest_first", "qoc"]


def mixed(seed: int = 0, scale: int = 1) -> Workload:
    """A shuffled mix of small and large prime-count tasks.

    Models the long-tailed task-size distributions of real deployments:
    the large tasks are the stragglers a strategy must keep off slow
    devices.
    """
    rng = random.Random(seed)
    program = compiled(kernels.PRIME_COUNT)
    sizes = [800] * (24 * scale) + [4000] * (8 * scale) + [12000] * (2 * scale)
    rng.shuffle(sizes)
    return Workload(
        name=f"mixed-{scale}",
        program=program,
        entry="main",
        args_list=[[size] for size in sizes],
    )


def run(quick: bool = True) -> Experiment:
    scale = 1 if quick else 3
    repeats = 3 if quick else 5
    table = Table(
        title="F4: makespan by scheduling strategy (heterogeneous pool)",
        columns=["strategy", "mean makespan s", "worst s", "vs random"],
    )
    mean_makespan: dict[str, float] = {}
    worst: dict[str, float] = {}
    for strategy in _STRATEGIES:
        samples = []
        for repeat in range(repeats):
            workload = mixed(seed=77 + repeat, scale=scale)
            qoc = QoC.fast() if strategy in ("fastest_first", "qoc") else QoC()
            outcome = run_workload(
                workload,
                pool=make_pool(_POOL_SPEC, seed=4),
                qoc=qoc,
                strategy=strategy,
                seed=repeat,
                broker_config=BrokerConfig(execution_timeout=None),
            )
            assert outcome.failed == 0
            samples.append(outcome.makespan)
        mean_makespan[strategy] = sum(samples) / len(samples)
        worst[strategy] = max(samples)
    for strategy in _STRATEGIES:
        table.add_row(
            strategy,
            mean_makespan[strategy],
            worst[strategy],
            mean_makespan["random"] / mean_makespan[strategy],
        )
    table.add_note(
        f"pool: {_POOL_SPEC}; workload: long-tailed mixed prime-count tasks, "
        f"{repeats} repeats"
    )

    experiment = Experiment("F4", table)
    experiment.check(
        "benchmark-aware (fastest_first) beats random",
        mean_makespan["fastest_first"] < mean_makespan["random"],
        detail=f"{mean_makespan['random'] / mean_makespan['fastest_first']:.2f}x",
    )
    experiment.check(
        "the QoC composite matches fastest_first within 15%",
        mean_makespan["qoc"] <= mean_makespan["fastest_first"] * 1.15,
    )
    experiment.check(
        "a speed-aware strategy is the overall winner (within 5% of best)",
        min(mean_makespan["fastest_first"], mean_makespan["qoc"])
        <= min(mean_makespan.values()) * 1.05,
    )
    experiment.check(
        "speed-aware worst case beats oblivious worst case",
        min(worst["fastest_first"], worst["qoc"])
        <= min(worst["random"], worst["round_robin"], worst["least_loaded"]),
        detail=(
            f"aware={min(worst['fastest_first'], worst['qoc']):.3f}s, "
            f"oblivious={min(worst['random'], worst['round_robin'], worst['least_loaded']):.3f}s"
        ),
    )
    return experiment
