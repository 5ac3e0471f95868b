"""Benchmark harness: tables, shape checks, simulation plumbing, experiments."""

from .harness import (
    Experiment,
    ShapeCheck,
    Table,
    geometric_mean,
    monotone_decreasing,
    monotone_increasing,
)
from .simlib import RunOutcome, run_workload

__all__ = [
    "Experiment",
    "ShapeCheck",
    "Table",
    "geometric_mean",
    "monotone_decreasing",
    "monotone_increasing",
    "RunOutcome",
    "run_workload",
]
