"""Shared simulation plumbing for the experiments.

Each experiment boils down to: build a pool, submit a workload with some
QoC, run, and summarise.  :func:`run_workload` is that one recipe with
every knob the experiments sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..broker.core import BrokerConfig
from ..broker.scheduling import Strategy
from ..common.stats import percentile
from ..core import kernels
from ..core.programs import compiled
from ..core.qoc import QoC
from ..provider.core import ProviderConfig
from ..provider.failure import ExecutionFailureModel
from ..sim.churn import ChurnModel
from ..sim.network import NetworkModel
from ..sim.runner import Simulation
from ..sim.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry


@dataclass
class RunOutcome:
    """Summary of one simulated workload run."""

    makespan: float  # virtual time from first submit to last completion
    succeeded: int
    failed: int
    latencies: list[float] = field(default_factory=list)
    provider_seconds: float = 0.0
    executions_issued: int = 0
    executions_failed: int = 0
    messages: int = 0
    messages_dropped: int = 0
    correct: bool | None = None  # vs workload oracle, when available
    wrong_values: int = 0  # successful results that contradict the oracle
    pool_busy_utilization: float | None = None  # exact: busy-s / slot-s

    @property
    def success_rate(self) -> float:
        total = self.succeeded + self.failed
        return self.succeeded / total if total else 0.0

    @property
    def latency_p50(self) -> float:
        return percentile(self.latencies, 50.0) if self.latencies else 0.0

    @property
    def latency_p95(self) -> float:
        return percentile(self.latencies, 95.0) if self.latencies else 0.0


def mandelbrot(width: int = 128, height: int = 96, max_iter: int = 64) -> Workload:
    """Fractal rendering: one Tasklet per image row (heterogeneous task
    sizes — rows near the set's interior iterate far more)."""
    program = compiled(kernels.MANDELBROT_ROW)
    args_list = [[y, width, height, max_iter] for y in range(height)]
    return Workload(
        name=f"mandelbrot-{width}x{height}i{max_iter}",
        program=program,
        entry="main",
        args_list=args_list,
    )


def run_workload(
    workload: Workload,
    pool: Sequence[ProviderConfig],
    qoc: QoC | None = None,
    strategy: Strategy | str = "qoc",
    seed: int = 0,
    broker_config: BrokerConfig | None = None,
    network: NetworkModel | None = None,
    churn_for: "dict[int, ChurnModel] | None" = None,
    failure_for: "dict[int, ExecutionFailureModel] | None" = None,
    max_time: float = 1e5,
    telemetry: "Telemetry | None" = None,
) -> RunOutcome:
    """Simulate one workload on one pool; returns the run summary.

    ``churn_for`` / ``failure_for`` map *pool indices* to per-provider
    models, so experiments can make exactly provider 0 flaky.

    ``telemetry`` (an :class:`~repro.obs.telemetry.Telemetry`) is shared
    by every node of the simulated deployment, whose counters its registry
    reads; a :class:`~repro.sim.metrics.MetricsCollector` samples the run
    and publishes its summary there too.
    """
    simulation = Simulation(
        seed=seed,
        strategy=strategy,
        broker_config=broker_config,
        network=network,
        telemetry=telemetry,
    )
    for index, config in enumerate(pool):
        simulation.add_provider(
            config,
            churn=(churn_for or {}).get(index),
            failure_model=(failure_for or {}).get(index),
        )
    collector = None
    if telemetry is not None:
        from ..sim.metrics import MetricsCollector

        collector = MetricsCollector(simulation, interval=0.01)
    consumer = simulation.add_consumer()
    start = simulation.now
    futures = consumer.library.map(
        workload.program, workload.args_list, entry=workload.entry, qoc=qoc
    )
    simulation.run(max_time=max_time)

    results = [future.wait(0) if future.done else None for future in futures]
    succeeded = sum(1 for result in results if result is not None and result.ok)
    failed = len(results) - succeeded
    completed_times = [
        result.completed_at for result in results if result is not None and result.ok
    ]
    makespan = (max(completed_times) - start) if completed_times else float("inf")
    latencies = [
        result.latency for result in results if result is not None and result.ok
    ]
    provider_seconds = sum(
        result.provider_seconds for result in results if result is not None
    )
    correct = None
    wrong_values = 0
    if workload.expected is not None:
        wrong_values = sum(
            1
            for result, expected in zip(results, workload.expected)
            if result is not None and result.ok and result.value != expected
        )
        correct = wrong_values == 0
    if collector is not None:
        collector.stop()
        collector.summary().publish(telemetry.registry)
    # Exact utilization from the providers' own busy-time accounting:
    # immune to the sampling aliasing that short task bursts cause.
    total_slots = sum(config.capacity for config in pool)
    busy = sum(
        provider.driver.stats.busy_seconds
        for provider in simulation.providers.values()
    )
    pool_busy_utilization = None
    if makespan not in (0.0, float("inf")) and total_slots:
        pool_busy_utilization = busy / (makespan * total_slots)
    return RunOutcome(
        makespan=makespan,
        succeeded=succeeded,
        failed=failed,
        latencies=latencies,
        provider_seconds=provider_seconds,
        executions_issued=simulation.broker.stats.executions_issued,
        executions_failed=simulation.broker.stats.executions_failed,
        messages=simulation.messages_delivered,
        messages_dropped=simulation.messages_dropped,
        correct=correct,
        wrong_values=wrong_values,
        pool_busy_utilization=pool_busy_utilization,
    )
