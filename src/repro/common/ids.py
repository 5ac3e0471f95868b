"""Identifier types for nodes, Tasklets, and executions.

Identifiers are plain strings wrapped in ``NewType`` aliases so that type
checkers can tell a :data:`NodeId` from a :data:`TaskletId`, while the wire
format stays trivially JSON-serialisable.

Two generation modes exist:

* :class:`IdGenerator` — deterministic, seedable; used by the simulator so
  that experiment runs are exactly reproducible.
* :func:`random_id` — wall-clock mode backed by :mod:`uuid`, used by the
  real TCP deployment where global uniqueness matters more than
  reproducibility.
"""

from __future__ import annotations

import itertools
import uuid
from typing import NewType

NodeId = NewType("NodeId", str)
TaskletId = NewType("TaskletId", str)
ExecutionId = NewType("ExecutionId", str)
JobId = NewType("JobId", str)


def random_id(prefix: str) -> str:
    """Return a globally unique id such as ``"tl-3f2a…"``.

    ``prefix`` names the entity kind; keeping it in the id makes logs and
    wire traces readable without a lookup table.
    """
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


class IdGenerator:
    """Deterministic id factory.

    Each prefix gets its own monotonically increasing counter, so ids are
    stable across runs given the same sequence of requests::

        >>> gen = IdGenerator()
        >>> gen.next("tl")
        'tl-000000'
        >>> gen.next("tl")
        'tl-000001'
        >>> gen.next("node")
        'node-000000'

    An optional ``namespace`` is woven into every id (``"ex-1f3a-000000"``).
    The TCP broker uses a random namespace per incarnation so that ids
    never collide across a broker restart — a provider may still be
    computing an execution the *previous* incarnation assigned, and its
    late result must not match a fresh id.  The simulator passes no
    namespace and keeps byte-identical, reproducible ids.
    """

    def __init__(self, namespace: str | None = None) -> None:
        self._counters: dict[str, itertools.count] = {}
        self._namespace = f"{namespace}-" if namespace else ""

    def next(self, prefix: str) -> str:
        """Return the next id for ``prefix``."""
        counter = self._counters.setdefault(prefix, itertools.count())
        return f"{prefix}-{self._namespace}{next(counter):06d}"

    def next_node(self, kind: str = "node") -> NodeId:
        """Return a fresh :data:`NodeId` (``kind`` defaults to ``node``)."""
        return NodeId(self.next(kind))

    def next_tasklet(self) -> TaskletId:
        """Return a fresh :data:`TaskletId`."""
        return TaskletId(self.next("tl"))

    def next_execution(self) -> ExecutionId:
        """Return a fresh :data:`ExecutionId`."""
        return ExecutionId(self.next("ex"))
