"""Shared substrate: errors, ids, clocks, RNG discipline, serde, stats."""

from .clock import Clock, VirtualClock, WallClock
from .errors import TaskletError
from .ids import ExecutionId, IdGenerator, JobId, NodeId, TaskletId, random_id
from .rng import RngRegistry, derive_seed
from .stats import EwmaTracker

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "TaskletError",
    "ExecutionId",
    "IdGenerator",
    "JobId",
    "NodeId",
    "TaskletId",
    "random_id",
    "RngRegistry",
    "derive_seed",
    "EwmaTracker",
]
