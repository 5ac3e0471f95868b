"""Consumer-side handle for an in-flight workflow."""

from __future__ import annotations

import threading
from typing import Any

from ..common.errors import TaskletError, TimeoutExpired, WorkflowFailed


class WorkflowHandle:
    """Write-once future resolving to a workflow's sink outputs.

    The consumer core resolves (or fails) the handle on the workflow's
    one answer, its ``workflow_complete`` (or a refusing ``workflow_ack``).
    :meth:`result` blocks the application thread until then.  Which node
    failed, and which nodes that left unrun, are on the
    :class:`WorkflowFailed` it raises.
    """

    def __init__(self, workflow_id: str):
        self.workflow_id = workflow_id
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._outputs: dict[str, Any] | None = None
        self._error: TaskletError | None = None
        #: Node-count summary from the terminal message, if any.
        self.nodes_total = 0
        self.nodes_memoized = 0

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, outputs: dict[str, Any]) -> None:
        """Resolve with sink outputs; later calls are ignored."""
        with self._lock:
            if self._event.is_set():
                return
            self._outputs = dict(outputs)
            self._event.set()

    def fail(self, error: TaskletError) -> None:
        """Fail the workflow; later calls are ignored."""
        with self._lock:
            if self._event.is_set():
                return
            self._error = error
            self._event.set()

    def result(self, timeout: float | None = None) -> dict[str, Any]:
        """Sink-node outputs keyed by node id.

        Raises :class:`WorkflowFailed` (or the transport error that sank
        the workflow) on failure, :class:`TimeoutExpired` if ``timeout``
        elapses first.
        """
        if not self._event.wait(timeout):
            raise TimeoutExpired(
                f"workflow {self.workflow_id!r} still pending after "
                f"{timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._outputs is not None
        return dict(self._outputs)

    def exception(self, timeout: float | None = None) -> TaskletError | None:
        """The failure, or None on success (blocks like :meth:`result`)."""
        if not self._event.wait(timeout):
            raise TimeoutExpired(
                f"workflow {self.workflow_id!r} still pending after "
                f"{timeout}s"
            )
        return self._error


__all__ = ["WorkflowHandle", "WorkflowFailed"]
