"""Discrete-event loop driving the simulated deployments.

A classic calendar queue on a binary heap.  Three properties matter for
reproducibility and for the middleware semantics:

* **deterministic ordering** — simultaneous events fire in scheduling
  order (a monotonically increasing sequence number breaks time ties);
* **virtual time** — the loop owns a :class:`VirtualClock`; no component
  ever sees wall time;
* **foreground/background distinction** — recurring maintenance events
  (heartbeats, broker ticks) are *background*: they keep time moving but
  do not, by themselves, keep the simulation "busy".  ``run_until_idle``
  stops when only background events remain and the caller's completion
  predicate holds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..common.clock import VirtualClock


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    background: bool = field(compare=False, default=False)


class EventLoop:
    """The simulation's single source of time and ordering."""

    def __init__(self, start: float = 0.0):
        self.clock = VirtualClock(start)
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def now(self) -> float:
        return self.clock.now()

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], background: bool = False
    ) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self.clock.now() + delay, callback, background)

    def schedule_at(
        self, time: float, callback: Callable[[], None], background: bool = False
    ) -> None:
        """Run ``callback`` at absolute virtual ``time``."""
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule at {time} (now is {self.clock.now()})"
            )
        event = _Event(
            time=time, seq=next(self._seq), callback=callback, background=background
        )
        heapq.heappush(self._heap, event)

    def every(
        self, interval: float, callback: Callable[[], None], jitter0: float = 0.0
    ) -> Callable[[], None]:
        """Schedule ``callback`` every ``interval`` seconds (background).

        Returns a stop function.  ``jitter0`` offsets the first firing so
        that e.g. many providers do not all heartbeat at the same instant.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        stopped = False

        def fire() -> None:
            if stopped:
                return
            callback()
            self.schedule(interval, fire, background=True)

        self.schedule(jitter0 % interval, fire, background=True)

        def stop() -> None:
            nonlocal stopped
            stopped = True

        return stop

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.time)
        self.events_processed += 1
        event.callback()
        return True

    def run_until(self, deadline: float) -> None:
        """Process every event with ``time <= deadline``; advance to it."""
        while self._heap and self._heap[0].time <= deadline:
            self.step()
        self.clock.advance_to(max(self.clock.now(), deadline))

    def run_until_idle(
        self,
        done: Callable[[], bool] | None = None,
        max_time: float = 1e9,
    ) -> float:
        """Run until ``done()`` holds (checked between events), only
        background events remain, or ``max_time`` is reached.

        Returns the virtual time at which the loop stopped.
        """
        while True:
            if done is not None and done():
                return self.clock.now()
            if not self._heap:
                return self.clock.now()
            if self._heap[0].time > max_time:
                self.clock.advance_to(max_time)
                return max_time
            if done is None and self._only_background_left():
                return self.clock.now()
            self.step()

    def _only_background_left(self) -> bool:
        return all(event.background for event in self._heap)
