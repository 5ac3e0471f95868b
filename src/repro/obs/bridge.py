"""Feed simulator and bench-harness summaries into a metrics registry.

The simulator's :class:`~repro.sim.metrics.MetricsCollector` samples
virtual-time gauges and reduces them to a
:class:`~repro.sim.metrics.MetricsSummary`; the broker keeps raw
:class:`~repro.broker.observer.BrokerStats` counters.  This module publishes
both into the same :class:`~repro.obs.metrics.MetricsRegistry` the live
instrumentation writes to, so one exposition covers live and simulated
runs alike (and the bench harness can scrape its own runs).

Published names live under ``repro_sim_*`` to keep post-run summary
values visually distinct from live counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..broker.observer import BrokerStats
    from ..sim.metrics import MetricsSummary


def publish_broker_stats(registry: MetricsRegistry, stats: "BrokerStats") -> None:
    """Publish end-of-run broker counters as ``repro_sim_broker_*`` gauges."""
    family = registry.gauge(
        "repro_sim_broker_stat",
        "End-of-run broker counter, by name",
        labelnames=("name",),
    )
    for name, value in vars(stats).items():
        family.labels(name=name).set(float(value))


def publish_summary(registry: MetricsRegistry, summary: "MetricsSummary") -> None:
    """Publish a reduced simulation timeline summary as gauges."""
    utilization = registry.gauge(
        "repro_sim_provider_utilization",
        "Mean sampled utilization per simulated provider",
        labelnames=("provider",),
    )
    availability = registry.gauge(
        "repro_sim_provider_availability",
        "Fraction of samples each simulated provider was up",
        labelnames=("provider",),
    )
    executed = registry.gauge(
        "repro_sim_provider_executed",
        "Executions run per simulated provider",
        labelnames=("provider",),
    )
    for node_id, provider in summary.providers.items():
        utilization.labels(provider=node_id).set(provider.mean_utilization)
        availability.labels(provider=node_id).set(provider.availability)
        executed.labels(provider=node_id).set(float(provider.executed))
    registry.gauge(
        "repro_sim_pool_mean_utilization",
        "Pool-wide mean sampled utilization",
    ).set(summary.pool_mean_utilization)
    registry.gauge(
        "repro_sim_peak_backlog",
        "Peak queued-replica backlog over the run",
    ).set(summary.peak_backlog)
    registry.gauge(
        "repro_sim_peak_pending_tasklets",
        "Peak pending-tasklet count over the run",
    ).set(summary.peak_pending_tasklets)
    registry.gauge(
        "repro_sim_samples",
        "Timeline samples taken by the collector",
    ).set(float(summary.samples))
    messages = registry.gauge(
        "repro_sim_messages_delivered",
        "Messages delivered by the simulated network, by type",
        labelnames=("type",),
    )
    for message_type, count in summary.message_type_counts.items():
        messages.labels(type=message_type).set(float(count))
