"""Clock abstraction shared by the real deployment and the simulator.

Every middleware component that needs time (heartbeats, timeouts, latency
measurement) receives a :class:`Clock` instead of calling ``time.time()``
directly.  The real deployment injects :class:`WallClock`; the discrete-
event simulator injects :class:`VirtualClock`, whose time only moves when
the event loop advances it.  This single seam is what lets the identical
broker/provider/consumer code run both on real sockets and inside the
simulator.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Minimal time source: seconds since an arbitrary epoch."""

    def now(self) -> float:
        """Return the current time in seconds."""
        ...


class WallClock:
    """Real time, via ``time.monotonic`` (immune to wall-clock steps)."""

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin


class VirtualClock:
    """Simulated time, advanced explicitly by the event loop.

    The clock never moves backwards; :meth:`advance_to` with a timestamp in
    the past raises ``ValueError`` because it would indicate a scheduling
    bug in the event loop.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance by negative delta {delta!r}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to an absolute ``timestamp``."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)
        return self._now
