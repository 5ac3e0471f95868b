"""DAG tasklet workflows: broker-held dependency scheduling.

A workflow is a whole graph of Tasklets submitted in one message: the
broker owns the DAG, releases nodes as predecessors complete, and
injects predecessor outputs into successor arguments server-side — no
consumer round-trip between stages.  See :mod:`repro.dag.spec` for the
wire format, :mod:`repro.dag.scheduler` for the node-state machine, and
:mod:`repro.dag.patterns` for Task-Bench-style scenario generators.
"""

from ..common.errors import WorkflowError, WorkflowFailed, WorkflowSpecError
from .handle import WorkflowHandle
from .scheduler import (
    BLOCKED,
    DONE,
    FAILED,
    READY,
    RUNNING,
    TERMINAL_STATES,
    DagScheduler,
)
from .spec import (
    NodeSpec,
    WorkflowBuilder,
    WorkflowGraph,
    WorkflowSpec,
    arg_refs,
    from_node,
    gather,
    resolve_arg,
)

__all__ = [
    "BLOCKED",
    "READY",
    "RUNNING",
    "DONE",
    "FAILED",
    "TERMINAL_STATES",
    "DagScheduler",
    "NodeSpec",
    "WorkflowBuilder",
    "WorkflowGraph",
    "WorkflowSpec",
    "WorkflowHandle",
    "WorkflowError",
    "WorkflowFailed",
    "WorkflowSpecError",
    "arg_refs",
    "from_node",
    "gather",
    "resolve_arg",
]
