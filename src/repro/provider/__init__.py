"""Provider: protocol core, TVM executor, self-benchmark, failure injection,
and the simulator's slot-model driver of the core."""

from .benchmark import BenchmarkReport, run_benchmark
from .core import ProviderConfig, ProviderCore
from .executor import ExecutionOutcome, TaskletExecutor
from .failure import ExecutionFailureModel, FaultKind, corrupt_value
from .simulated import Outbound, ProviderCoreStats

__all__ = [
    "BenchmarkReport",
    "run_benchmark",
    "Outbound",
    "ProviderConfig",
    "ProviderCore",
    "ProviderCoreStats",
    "ExecutionOutcome",
    "TaskletExecutor",
    "ExecutionFailureModel",
    "FaultKind",
    "corrupt_value",
]
