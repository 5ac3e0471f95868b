"""The :class:`~repro.consumer.library.Session` contract, implemented once.

The simulator and the TCP transport submit the same way — check the
link, register with the :class:`~repro.consumer.core.ConsumerCore`, send
what it produced — and differ only in how envelopes leave.  A driver
subclasses :class:`CoreSession` and supplies that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dag.handle import WorkflowHandle
    from ..dag.spec import WorkflowSpec

from ..core.futures import TaskletFuture
from ..core.tasklet import Tasklet
from ..transport.message import Envelope
from .core import ConsumerCore
from .library import TaskletLibrary


class CoreSession:
    """A consumer node: its core, its library, and the session joining them."""

    def __init__(self, core: ConsumerCore, base_seed: int):
        self.core = core
        self.library = TaskletLibrary(session=self, base_seed=base_seed)

    # -- what a driver supplies ----------------------------------------------

    def _send(self, envelopes: Sequence[Envelope]) -> None:
        """Put one submission's envelopes on the way to the broker."""
        raise NotImplementedError

    def _check_ready(self) -> None:
        """Raise if nothing can be submitted now.  Runs before the core
        registers anything, so a refused call leaves nothing pending."""

    # -- Session --------------------------------------------------------------

    def submit_tasklets(self, tasklets: Sequence[Tasklet]) -> list[TaskletFuture]:
        self._check_ready()
        futures, envelopes = self.core.submit_tasklets(tasklets)
        self._send(envelopes)
        return futures

    def submit_workflow(self, spec: "WorkflowSpec") -> "WorkflowHandle":
        self._check_ready()
        handle, envelopes = self.core.submit_workflow(spec)
        self._send(envelopes)
        return handle

    def now(self) -> float:
        return self.core.clock.now()
