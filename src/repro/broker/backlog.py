"""The scheduling backlog: replicas wanted while no provider may take them.

:class:`Backlog` holds the keys of tasklets with queued replicas in FIFO
order of first queueing, and is the only writer of
``_TaskletState.pending_replicas`` — so ``replicas``, the number queued
across all tasklets, is a running total rather than a sum over every
live tasklet.  The drain's cost follows what it places plus the entries
it has to step over, never the queue's depth: it does nothing while the
registry reports no free capacity and stops the moment the last free
slot is taken.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from ..transport.message import Envelope
from .registry import ProviderRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import _TaskletState

#: Replicas the backlog holds across all tasklets; what does not fit fails
#: its tasklet rather than stranding it.
MAX_QUEUED_REPLICAS = 100_000


class Backlog:
    """FIFO of tasklet keys with queued replicas (see module docstring)."""

    def __init__(self) -> None:
        self.max_replicas = MAX_QUEUED_REPLICAS
        #: ``sum(state.pending_replicas)`` over every live tasklet.
        self.replicas = 0
        self._order: deque[str] = deque()
        self._queued: set[str] = set()

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def queue(self, state: "_TaskletState", count: int) -> int:
        """Queue up to ``count`` more replicas of ``state`` behind
        everything already waiting; returns how many did not fit."""
        accepted = min(count, max(0, self.max_replicas - self.replicas))
        if accepted > 0:
            state.pending_replicas += accepted
            self.replicas += accepted
            if state.key not in self._queued:
                self._queued.add(state.key)
                self._order.append(state.key)
        return count - accepted

    def forget(self, state: "_TaskletState") -> None:
        """``state`` is finished: whatever it still had queued is void."""
        if state.pending_replicas == 0:
            return  # nothing queued, so not in the queue either
        self.replicas -= state.pending_replicas
        state.pending_replicas = 0
        self._queued.remove(state.key)
        self._order.remove(state.key)

    def drain(
        self,
        tasklets: Mapping[str, "_TaskletState"],
        registry: ProviderRegistry,
        assign: Callable[["_TaskletState", int], list[Envelope]],
    ) -> list[Envelope]:
        """Place queued replicas, oldest tasklet first, while the pool
        has free capacity; ``assign(state, count)`` places what it can.

        An entry no free provider may run (its other replicas run there,
        they failed it, they cost too much) is stepped over, not waited
        on, and keeps its place ahead of everything not yet visited.
        """
        order = self._order
        if not order or registry.free_capacity <= 0:
            return []
        out: list[Envelope] = []
        passed_over: list[str] = []
        while order and registry.free_capacity > 0:
            key = order.popleft()
            state = tasklets[key]
            placed = assign(state, state.pending_replicas)
            state.pending_replicas -= len(placed)
            self.replicas -= len(placed)
            out.extend(placed)
            if state.pending_replicas > 0:
                passed_over.append(key)
            else:
                self._queued.remove(key)
        order.extendleft(reversed(passed_over))
        return out
