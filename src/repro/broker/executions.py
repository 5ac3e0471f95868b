"""What is in flight, looked up across tasklets.

Each tasklet keeps its own ``outstanding`` map; :class:`ExecutionIndex`
answers the three questions that cut across tasklets without visiting
them — whose execution is this, what runs on that provider, what is
overdue — so a result, a lost provider and a tick with nothing overdue
each cost what they touch, not what the broker holds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from ..common.ids import ExecutionId, NodeId


class ExecutionIndex:
    """Live executions by id, by provider and by deadline."""

    def __init__(self) -> None:
        self._tasklet: dict[ExecutionId, str] = {}
        self._assigned: dict[NodeId, set[ExecutionId]] = {}
        #: horizon -> ``{execution_id: issued_at}`` in issue order, which
        #: for one horizon is the order they come due; an execution leaves
        #: when it ends, so nothing here is ever stale.
        self._by_horizon: dict[float, OrderedDict[ExecutionId, float]] = {}

    def __len__(self) -> int:
        return len(self._tasklet)

    def __iter__(self) -> Iterator[ExecutionId]:
        return iter(self._tasklet)

    def tasklet_of(self, execution_id: ExecutionId) -> str | None:
        """Key of the tasklet ``execution_id`` runs for (None = not live)."""
        return self._tasklet.get(execution_id)

    def assigned_to(self, provider_id: NodeId) -> set[ExecutionId]:
        """The executions placed on ``provider_id`` (a copy)."""
        return set(self._assigned.get(provider_id, ()))

    def add(
        self,
        execution_id: ExecutionId,
        tasklet_key: str,
        provider_id: NodeId,
        issued_at: float,
        horizon: float | None,
    ) -> None:
        """``horizon``: seconds it may run before it counts as overdue."""
        self._tasklet[execution_id] = tasklet_key
        assigned = self._assigned.get(provider_id)
        if assigned is None:
            assigned = self._assigned[provider_id] = set()
        assigned.add(execution_id)
        if horizon is not None:
            due = self._by_horizon.get(horizon)
            if due is None:
                due = self._by_horizon[horizon] = OrderedDict()
            due[execution_id] = issued_at

    def remove(
        self, execution_id: ExecutionId, provider_id: NodeId, horizon: float | None
    ) -> None:
        """Forget an execution, given what it was added with."""
        self._tasklet.pop(execution_id, None)
        assigned = self._assigned.get(provider_id)
        if assigned is not None:
            assigned.discard(execution_id)
            if not assigned:
                del self._assigned[provider_id]
        due = self._by_horizon.get(horizon)
        if due is not None:
            due.pop(execution_id, None)
            if not due:
                del self._by_horizon[horizon]

    def overdue(self, now: float) -> set[ExecutionId]:
        """Live executions past their horizon (still live afterwards: the
        caller ends them).  Looks at the oldest execution of each horizon
        in use and at the overdue ones, not at everything in flight."""
        overdue: set[ExecutionId] = set()
        for horizon, due in self._by_horizon.items():
            for execution_id, issued_at in due.items():
                if now - issued_at <= horizon:
                    break
                overdue.add(execution_id)
        return overdue
