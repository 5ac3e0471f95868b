"""Metrics collector: sampling cadence, utilization, availability."""

import pytest

from repro.core import kernels
from repro.core.qoc import QoC
from repro.provider.core import ProviderConfig
from repro.sim.churn import TraceChurn
from repro.sim.metrics import GaugeSeries, MetricsCollector
from repro.sim.runner import Simulation


def busy_simulation(tasks=20, speed_ips=200e3):
    simulation = Simulation(seed=6)
    for _ in range(2):
        simulation.add_provider(
            ProviderConfig(device_class="desktop", capacity=2, speed_ips=speed_ips)
        )
    collector = MetricsCollector(simulation, interval=0.05)
    consumer = simulation.add_consumer()
    futures = consumer.library.map(
        kernels.ALL_KERNELS["prime_count"], [[800]] * tasks, qoc=QoC()
    )
    simulation.run(max_time=1e4)
    assert all(future.wait(0).ok for future in futures)
    return simulation, collector


class TestGaugeSeries:
    def test_statistics(self):
        series = GaugeSeries()
        for t, v in enumerate([0.0, 0.5, 1.0, 0.5]):
            series.record(float(t), v)
        assert series.mean == pytest.approx(0.5)
        assert series.peak == 1.0
        assert len(series) == 4

    def test_empty(self):
        series = GaugeSeries()
        assert series.mean == 0.0
        assert series.peak == 0.0


def test_collector_samples_at_cadence():
    simulation, collector = busy_simulation()
    summary = collector.summary()
    assert summary.samples > 5
    # Sample times are evenly spaced by the interval.
    times = collector.backlog.times
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(abs(gap - 0.05) < 1e-9 for gap in gaps)


def test_saturated_pool_shows_high_utilization():
    simulation, collector = busy_simulation(tasks=40)
    summary = collector.summary()
    assert 0.3 < summary.pool_mean_utilization <= 1.0
    busiest = max(summary.providers.values(), key=lambda p: p.mean_utilization)
    assert busiest.peak_utilization == 1.0
    assert busiest.executed > 0


def test_idle_pool_shows_zero_utilization():
    simulation = Simulation(seed=1)
    simulation.add_provider(ProviderConfig())
    collector = MetricsCollector(simulation, interval=0.1)
    simulation.run_for(1.0)
    summary = collector.summary()
    assert summary.pool_mean_utilization == 0.0
    assert summary.peak_backlog == 0.0


def test_backlog_visible_when_pool_overloaded():
    simulation = Simulation(seed=2)
    simulation.add_provider(
        ProviderConfig(device_class="sbc", capacity=1, speed_ips=50e3)
    )
    collector = MetricsCollector(simulation, interval=0.02)
    consumer = simulation.add_consumer()
    consumer.library.map(
        kernels.ALL_KERNELS["prime_count"], [[800]] * 15, qoc=QoC()
    )
    simulation.run(max_time=1e4)
    assert collector.summary().peak_backlog > 0


def test_availability_tracks_churn():
    simulation = Simulation(seed=3)
    simulation.add_provider(
        ProviderConfig(device_class="desktop", capacity=1),
        churn=TraceChurn([(True, 1.0), (False, 1.0), (True, 1e12)]),
    )
    collector = MetricsCollector(simulation, interval=0.05)
    simulation.run_for(3.0)
    summary = collector.summary()
    (provider_summary,) = summary.providers.values()
    assert 0.5 < provider_summary.availability < 0.9  # down 1s of 3s

def test_message_type_counts_included():
    simulation, collector = busy_simulation()
    summary = collector.summary()
    assert summary.message_type_counts.get("assign_execution", 0) >= 20
    assert summary.message_type_counts.get("execution_result", 0) >= 20
    assert "heartbeat" in summary.message_type_counts


def test_stop_halts_sampling():
    simulation = Simulation(seed=4)
    simulation.add_provider(ProviderConfig())
    collector = MetricsCollector(simulation, interval=0.1)
    simulation.run_for(0.5)
    count = collector.summary().samples
    collector.stop()
    simulation.run_for(1.0)
    assert collector.summary().samples == count


def test_invalid_interval_rejected():
    simulation = Simulation(seed=5)
    with pytest.raises(ValueError):
        MetricsCollector(simulation, interval=0.0)
