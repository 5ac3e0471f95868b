"""Distributed Tasklet tracing: spans, contexts, and the ring-buffer store.

One Tasklet's life is a tree of spans::

    tasklet                      (consumer: submit -> resolve)
    └─ broker.tasklet            (broker: admission -> voted completion)
       ├─ broker.assign          (broker: issue -> terminal result)   × replicas
       │  └─ provider.execute    (provider: start -> finish)
       └─ broker.assign
          └─ provider.execute

A :class:`TraceContext` — ``(trace_id, span_id)`` — rides on every
relevant :class:`~repro.transport.message.Envelope` (the optional
``trace`` field), so each node can parent its spans on the sender's
without any shared state.  Spans land in each node's :class:`SpanStore`,
a bounded ring buffer; in single-process deployments (the simulator,
tests, co-located TCP nodes) the nodes share one store and the full tree
is reconstructable with :func:`build_trace_tree`.

Recording is append-only and terminal: cores compute start/end from
their own clock (virtual in the simulator, wall on TCP) and record the
finished span in one call — there is no "current span" ambient state to
leak across threads.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

#: Default ring-buffer capacity: bounds memory no matter how long a
#: deployment runs (~a few hundred bytes per span).
DEFAULT_SPAN_CAPACITY = 4096


@dataclass(frozen=True)
class TraceContext:
    """What travels on the wire: which trace, and which span to parent on."""

    trace_id: str
    span_id: str

    def to_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: dict[str, Any] | None) -> "TraceContext | None":
        if not data:
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not trace_id or not span_id:
            return None  # malformed context: drop, never fail the message
        return cls(trace_id=str(trace_id), span_id=str(span_id))


@dataclass
class Span:
    """One finished operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    node: str
    start: float
    end: float
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span scraped from another node's ``/traces`` dump."""
        parent = data.get("parent_id")
        attrs = data.get("attrs")
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=str(parent) if parent else None,
            name=str(data.get("name", "")),
            node=str(data.get("node", "")),
            start=float(data.get("start", 0.0)),
            end=float(data.get("end", 0.0)),
            status=str(data.get("status", "ok")),
            attrs=dict(attrs) if isinstance(attrs, dict) else {},
        )


class SpanStore:
    """Bounded, thread-safe ring buffer of finished spans."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._dropped = 0

    def add(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self._dropped += 1
            self._spans.append(span)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring buffer since creation."""
        with self._lock:
            return self._dropped


class Tracer:
    """Mints trace/span ids and records spans into a store.

    Ids are a per-tracer random prefix plus a counter — unique within a
    process, collision-resistant across processes, and cheap (no uuid
    per span).  Tests may pin ``prefix`` for readable ids.
    """

    def __init__(self, store: SpanStore | None = None, prefix: str | None = None):
        self.store = store or SpanStore()
        self._prefix = prefix if prefix is not None else uuid.uuid4().hex[:6]
        self._trace_counter = itertools.count(1)
        self._span_counter = itertools.count(1)

    def start_trace(self) -> TraceContext:
        """A fresh trace with its root span id."""
        trace_id = f"tr-{self._prefix}-{next(self._trace_counter):x}"
        return TraceContext(trace_id=trace_id, span_id=self._next_span_id())

    def child(self, parent: TraceContext) -> TraceContext:
        """A child context in the same trace (new span id)."""
        return TraceContext(trace_id=parent.trace_id, span_id=self._next_span_id())

    def _next_span_id(self) -> str:
        return f"sp-{self._prefix}-{next(self._span_counter):x}"

    def record(
        self,
        name: str,
        context: TraceContext,
        node: str,
        start: float,
        end: float,
        parent_id: str | None = None,
        status: str = "ok",
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Record one finished span; returns it (mostly for tests)."""
        span = Span(
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=parent_id,
            name=name,
            node=node,
            start=start,
            end=end,
            status=status,
            attrs=attrs or {},
        )
        self.store.add(span)
        return span


@dataclass
class SpanNode:
    """One node of a reconstructed span tree."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)


def build_trace_tree(spans: Iterable[Span]) -> list[SpanNode]:
    """Reconstruct the tree(s) for the given spans.

    Spans whose parent is missing (evicted from the ring, or recorded on
    a node whose store was not merged) stay connected: a placeholder span
    named ``(evicted)`` with ``attrs["evicted"] = True`` is synthesized
    for the missing parent and the subtree hangs under it, so a partial
    trace degrades visibly instead of silently shedding subtrees.  Roots
    and children are ordered by start time.
    """
    nodes = {span.span_id: SpanNode(span) for span in spans}
    roots: list[SpanNode] = []
    placeholders: dict[str, SpanNode] = {}
    for node in nodes.values():
        parent_id = node.span.parent_id
        parent = nodes.get(parent_id) if parent_id else None
        if parent is node:
            parent = None
        if parent is not None:
            parent.children.append(node)
        elif parent_id:
            holder = placeholders.get(parent_id)
            if holder is None:
                holder = SpanNode(
                    Span(
                        trace_id=node.span.trace_id,
                        span_id=parent_id,
                        parent_id=None,
                        name="(evicted)",
                        node="?",
                        start=node.span.start,
                        end=node.span.end,
                        status="evicted",
                        attrs={"evicted": True},
                    )
                )
                placeholders[parent_id] = holder
                roots.append(holder)
            holder.span.start = min(holder.span.start, node.span.start)
            holder.span.end = max(holder.span.end, node.span.end)
            holder.children.append(node)
        else:
            roots.append(node)
    for node in list(nodes.values()) + list(placeholders.values()):
        node.children.sort(key=lambda child: (child.span.start, child.span.span_id))
    roots.sort(key=lambda root: (root.span.start, root.span.span_id))
    return roots


def format_trace(spans: Sequence[Span]) -> str:
    """Human-readable dump of one trace's span tree."""
    if not spans:
        return "(no spans)"
    lines: list[str] = []

    def render(node: SpanNode, depth: int) -> None:
        span = node.span
        indent = "  " * depth
        extras = " ".join(f"{key}={value}" for key, value in sorted(span.attrs.items()))
        suffix = f" [{extras}]" if extras else ""
        lines.append(
            f"{indent}{span.name} ({span.node}) {span.duration * 1e3:.3f}ms "
            f"status={span.status}{suffix}"
        )
        for child in node.children:
            render(child, depth + 1)

    for root in build_trace_tree(spans):
        lines.append(f"trace {root.span.trace_id}")
        render(root, 1)
    return "\n".join(lines)
