"""Simulation substrate: event loop, network, devices, churn, workloads."""

from .churn import ChurnModel, ExponentialChurn, NoChurn, TraceChurn
from .devices import DEVICE_CLASSES, DeviceProfile, make_config, make_pool, profile
from .eventloop import EventLoop
from .metrics import GaugeSeries, MetricsCollector, MetricsSummary
from .network import ConstantLatency, NetworkModel
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
    "EventLoop",
    "GaugeSeries",
    "MetricsCollector",
    "MetricsSummary",
    "ConstantLatency",
    "NetworkModel",
    "SimConsumer",
    "Simulation",
    "WORKLOADS",
    "Workload",
]
