"""Simulation substrate: event loop, network, devices, churn, workloads."""

from .churn import ChurnModel, ExponentialChurn, NoChurn, TraceChurn
from .devices import DEVICE_CLASSES, DeviceProfile, make_config, make_pool, profile
from .eventloop import EventHandle, EventLoop
from .metrics import GaugeSeries, MetricsCollector, MetricsSummary
from .network import (
    BandwidthLatency,
    ConstantLatency,
    NetworkModel,
    wire_size,
)
from .runner import SimConsumer, Simulation
from .workloads import WORKLOADS, Workload

__all__ = [
    "ChurnModel",
    "ExponentialChurn",
    "NoChurn",
    "TraceChurn",
    "DEVICE_CLASSES",
    "DeviceProfile",
    "make_config",
    "make_pool",
    "profile",
    "EventHandle",
    "EventLoop",
    "GaugeSeries",
    "MetricsCollector",
    "MetricsSummary",
    "BandwidthLatency",
    "ConstantLatency",
    "NetworkModel",
    "wire_size",
    "SimConsumer",
    "Simulation",
    "WORKLOADS",
    "Workload",
]
