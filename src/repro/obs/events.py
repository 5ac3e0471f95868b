"""The flight recorder: a structured log of middleware lifecycle events.

Metrics answer *how much*; the flight recorder answers *what happened*.
Every notable state transition — a provider joining or dying, a replica
placed or re-issued, an execution faulting, a straggler alert — becomes a
typed :class:`Event` appended to a bounded in-memory ring, and optionally
to rotating JSONL files for post-mortem analysis (the CI smoke job
uploads these as artifacts).

Events are cheap: recording one is a lock, a dataclass, and a deque
append.  Like the rest of :mod:`repro.obs` the recorder is strictly
opt-in — cores only touch it through ``telemetry.events``, and with
telemetry disabled no recorder exists at all.

Timestamps come from the caller's clock (virtual in the simulator, wall
on TCP) via the ``ts`` argument; ``record`` falls back to ``time.time``
only when no timestamp is supplied, so simulated and live event logs are
both internally consistent.

The event schema on the wire (one JSON object per JSONL line) is
documented in ``docs/PROTOCOL.md``, "Observability event schema".
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import CounterFamily

#: Default ring capacity; bounds memory for arbitrarily long deployments.
DEFAULT_EVENT_CAPACITY = 2048

# -- well-known event kinds -------------------------------------------------
# The recorder accepts any string kind; these constants are the vocabulary
# the middleware itself emits (and PROTOCOL.md documents).
NODE_JOIN = "node_join"  # provider registered
NODE_LEAVE = "node_leave"  # provider unregistered gracefully
NODE_DEAD = "node_dead"  # heartbeat failure detector fired
NODE_FLAP = "node_flap"  # known provider re-registered (crash + return)
PLACEMENT = "placement"  # one replica assigned to a provider
REISSUE = "reissue"  # replica re-issued after a failure/loss/timeout
EXECUTION_FAULT = "execution_fault"  # terminal non-ok execution record
RECONNECT = "reconnect"  # provider re-established its broker link
DISCONNECT = "disconnect"  # node lost its broker link
MESSAGE_UNREADABLE = "message_unreadable"  # inbound envelope refused at the wire boundary
TICK_FAULT = "tick_fault"  # the broker's periodic tick raised; the next one still runs
STRAGGLER_ALERT = "straggler_alert"  # execution exceeded expected runtime
FLAPPING_ALERT = "flapping_alert"  # provider flapped repeatedly in a window
SLO_BREACH = "slo_breach"  # tasklet finished past its QoC deadline
TASKLET_FAILED = "tasklet_failed"  # tasklet completed without a result
JOURNAL_RECOVERED = "journal_recovered"  # broker replayed its work journal
MEMO_HIT = "memo_hit"  # submission served from the result cache
RESULT_REDELIVERED = "result_redelivered"  # journalled outcome re-sent on resubmit
BACKLOG_OVERFLOW = "backlog_overflow"  # replicas dropped: scheduling backlog full
JOURNAL_COMPACTED = "journal_compacted"  # work journal rewritten in place
PEER_UP = "peer_up"  # federation peer became reachable (hello/digest seen)
PEER_DOWN = "peer_down"  # federation peer's digests stopped arriving
TASKLET_FORWARDED = "tasklet_forwarded"  # placement forwarded to a peer broker
FORWARD_RECLAIMED = "forward_reclaimed"  # forwarded work taken back (peer lost)
JOURNAL_HANDOFF = "journal_handoff"  # dead peer's journal adopted by successor
BROKER_FAILOVER = "broker_failover"  # consumer/provider switched brokers
FEDERATION_EXHAUSTED = "federation_exhausted"  # every listed broker unreachable
WORKFLOW_ADMITTED = "workflow_admitted"  # a DAG of tasklets passed admission
WORKFLOW_NODE_RELEASED = "workflow_node_released"  # deps met, node issued
WORKFLOW_COMPLETE = "workflow_complete"  # every node done, outputs delivered
WORKFLOW_FAILED = "workflow_failed"  # a node exhausted retries; graph failed
WORKFLOW_RECOVERED = "workflow_recovered"  # in-flight DAG resumed from journal

#: Kinds that represent actionable operator alerts (``repro top`` surfaces
#: these first).
ALERT_KINDS = frozenset(
    {
        STRAGGLER_ALERT,
        FLAPPING_ALERT,
        SLO_BREACH,
        TASKLET_FAILED,
        DISCONNECT,
        BACKLOG_OVERFLOW,
        PEER_DOWN,
        FEDERATION_EXHAUSTED,
        WORKFLOW_FAILED,
    }
)


@dataclass(frozen=True)
class Event:
    """One recorded lifecycle event."""

    seq: int
    ts: float
    kind: str
    node: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "node": self.node,
            "attrs": dict(self.attrs),
        }


class _JsonlSink:
    """Append-only JSONL file with size-based rotation.

    When the active file would exceed ``max_bytes`` the sink rotates:
    ``events.jsonl`` becomes ``events.jsonl.1``, the previous ``.1``
    becomes ``.2``, and so on up to ``max_files`` rotated generations
    (older ones are deleted).  Not thread-safe by itself — the owning
    :class:`FlightRecorder` serialises access.
    """

    def __init__(self, path: str, max_bytes: int = 1 << 20, max_files: int = 3):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._file = open(path, "a", encoding="utf-8")
        self._size = self._file.tell()

    def write(self, line: str) -> None:
        encoded = line + "\n"
        if self._size > 0 and self._size + len(encoded) > self.max_bytes:
            self._rotate()
        self._file.write(encoded)
        self._file.flush()
        self._size += len(encoded)

    def _rotate(self) -> None:
        self._file.close()
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.max_files - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = 0

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - close race on shutdown
            pass


class FlightRecorder:
    """Bounded, thread-safe ring of events, optionally mirrored to JSONL.

    ``attach_counter`` (called by :class:`~repro.obs.telemetry.Telemetry`)
    links a ``repro_events_total{kind=...}`` counter family so the metrics
    exposition reflects event volume without scraping ``/events``.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        jsonl_path: str | None = None,
        jsonl_max_bytes: int = 1 << 20,
        jsonl_max_files: int = 3,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._counter: "CounterFamily | None" = None
        self._sink = (
            _JsonlSink(jsonl_path, jsonl_max_bytes, jsonl_max_files)
            if jsonl_path
            else None
        )

    def attach_counter(self, family: "CounterFamily") -> None:
        """Mirror per-kind event counts into a labeled counter family."""
        self._counter = family

    def record(
        self, kind: str, node: str = "", ts: float | None = None, **attrs: Any
    ) -> Event:
        """Append one event; returns it (mostly for tests)."""
        if ts is None:
            ts = time.time()
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, ts=ts, kind=kind, node=node, attrs=attrs)
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)
            if self._sink is not None:
                self._sink.write(json.dumps(event.to_dict(), sort_keys=True))
        if self._counter is not None:
            self._counter.labels(kind=kind).inc()
        return event

    def events(self, kind: str | None = None, limit: int | None = None) -> list[Event]:
        """Events oldest-first; optionally filtered by kind, keeping the
        most recent ``limit``."""
        with self._lock:
            snapshot = list(self._events)
        if kind is not None:
            snapshot = [event for event in snapshot if event.kind == kind]
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        return snapshot

    def alerts(self, limit: int | None = None) -> list[Event]:
        """Recent events of alert-class kinds (see :data:`ALERT_KINDS`)."""
        with self._lock:
            snapshot = list(self._events)
        snapshot = [event for event in snapshot if event.kind in ALERT_KINDS]
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        return snapshot

    def counts(self) -> dict[str, int]:
        """Events currently in the ring, by kind."""
        out: dict[str, int] = {}
        for event in self.events():
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since creation."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def close(self) -> None:
        """Close the JSONL sink (ring stays readable)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None
