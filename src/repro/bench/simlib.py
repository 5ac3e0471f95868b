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
from ..common.stats import summarize
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
    pool_utilization: float | None = None  # sampled mean (timeline-based)
    pool_busy_utilization: float | None = None  # exact: busy-s / slot-s

    @property
    def success_rate(self) -> float:
        total = self.succeeded + self.failed
        return self.succeeded / total if total else 0.0

    @property
    def latency_p50(self) -> float:
        return summarize(self.latencies).p50 if self.latencies else 0.0

    @property
    def latency_p95(self) -> float:
        return summarize(self.latencies).p95 if self.latencies else 0.0


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
    collect_metrics: bool = False,
    telemetry: "Telemetry | None" = None,
) -> RunOutcome:
    """Simulate one workload on one pool; returns the run summary.

    ``churn_for`` / ``failure_for`` map *pool indices* to per-provider
    models, so experiments can make exactly provider 0 flaky.

    ``telemetry`` (an :class:`~repro.obs.telemetry.Telemetry`) is shared
    by every node of the simulated deployment; after the run the broker's
    end-of-run counters — and, with ``collect_metrics``, the timeline
    summary — are published into its registry via :mod:`repro.obs.bridge`.
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
    if collect_metrics:
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
    if telemetry is not None:
        from ..obs.bridge import publish_broker_stats

        publish_broker_stats(telemetry.registry, simulation.broker.stats)
    pool_utilization = None
    pool_busy_utilization = None
    if collector is not None:
        collector.stop()
        summary = collector.summary()
        if telemetry is not None:
            summary.publish(telemetry.registry)
        pool_utilization = summary.pool_mean_utilization
        # Exact utilization from the providers' own busy-time accounting:
        # immune to the sampling aliasing that short task bursts cause.
        total_slots = sum(config.capacity for config in pool)
        busy = sum(
            provider.driver.stats.busy_seconds
            for provider in simulation.providers.values()
        )
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
        pool_utilization=pool_utilization,
        pool_busy_utilization=pool_busy_utilization,
    )
