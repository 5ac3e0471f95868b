"""Simulation observability: sampled gauges and end-of-run summaries.

Attach a :class:`MetricsCollector` to a :class:`~repro.sim.runner.Simulation`
before running it and it samples, at a fixed virtual-time cadence:

* per-provider busy slots (→ utilization timelines),
* the broker's pending-tasklet count and queued-replica backlog,
* which providers are up (churn visibility).

After the run, :meth:`summary` reduces the timelines to the numbers
experiments report: mean/peak utilization per provider and pool-wide,
peak backlog, availability ratios.  Sampling at a cadence (instead of
per-event tracing) keeps overhead proportional to virtual time, not to
message volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.ids import NodeId
from .runner import Simulation


@dataclass
class GaugeSeries:
    """One sampled time series."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class ProviderSummary:
    provider_id: NodeId
    mean_utilization: float  # busy slots / capacity, averaged over samples
    peak_utilization: float
    availability: float  # fraction of samples the provider was up
    busy_seconds: float  # from the provider's own accounting
    executed: int


@dataclass
class MetricsSummary:
    """End-of-run reduction of every timeline."""

    providers: dict[NodeId, ProviderSummary]
    pool_mean_utilization: float
    peak_backlog: float
    peak_pending_tasklets: float
    samples: int
    message_type_counts: dict[str, int]

    def busiest_provider(self) -> ProviderSummary | None:
        if not self.providers:
            return None
        return max(self.providers.values(), key=lambda p: p.mean_utilization)

    def publish(self, registry) -> None:
        """Publish this summary into an obs registry (``repro_sim_*``).

        ``registry`` is a :class:`~repro.obs.metrics.MetricsRegistry`; the
        summary lands next to the live instrumentation so one Prometheus
        exposition covers both.
        """
        from ..obs.bridge import publish_summary

        publish_summary(registry, self)


class MetricsCollector:
    """Samples a simulation's state on a virtual-time cadence."""

    def __init__(self, simulation: Simulation, interval: float = 0.05):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.simulation = simulation
        self.interval = interval
        self.utilization: dict[NodeId, GaugeSeries] = {}
        self.availability: dict[NodeId, GaugeSeries] = {}
        self.backlog = GaugeSeries()
        self.pending = GaugeSeries()
        self._stop = simulation.loop.every(interval, self._sample)

    def stop(self) -> None:
        """Stop sampling (timelines are kept)."""
        self._stop()

    # -- sampling ----------------------------------------------------------

    def _sample(self) -> None:
        now = self.simulation.now
        for node_id, sim_provider in self.simulation.providers.items():
            driver = sim_provider.driver
            capacity = driver.config.capacity
            busy = capacity - driver.free_slots()
            self.utilization.setdefault(node_id, GaugeSeries()).record(
                now, busy / capacity
            )
            self.availability.setdefault(node_id, GaugeSeries()).record(
                now, 1.0 if sim_provider.up else 0.0
            )
        self.backlog.record(now, self.simulation.broker.backlog.replicas)
        self.pending.record(now, self.simulation.broker.pending_tasklets)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> MetricsSummary:
        providers: dict[NodeId, ProviderSummary] = {}
        for node_id, series in self.utilization.items():
            sim_provider = self.simulation.providers[node_id]
            availability_series = self.availability[node_id]
            providers[node_id] = ProviderSummary(
                provider_id=node_id,
                mean_utilization=series.mean,
                peak_utilization=series.peak,
                availability=availability_series.mean,
                busy_seconds=sim_provider.driver.stats.busy_seconds,
                executed=sim_provider.driver.stats.executed,
            )
        pool_mean = (
            sum(p.mean_utilization for p in providers.values()) / len(providers)
            if providers
            else 0.0
        )
        return MetricsSummary(
            providers=providers,
            pool_mean_utilization=pool_mean,
            peak_backlog=self.backlog.peak,
            peak_pending_tasklets=self.pending.peak,
            samples=len(self.backlog),
            message_type_counts=dict(self.simulation.message_type_counts),
        )
