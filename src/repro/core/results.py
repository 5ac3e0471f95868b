"""Execution results and replica voting.

One Tasklet can produce several :class:`ExecutionRecord`\\ s (replicas,
retries).  The broker folds them through a :class:`VoteCollector` to
decide the final :class:`TaskletResult` the consumer sees.

Because Tasklets are deterministic (shared seed, closed world), honest
replicas return *identical* values; voting is therefore exact-equality
majority, which catches both corrupted results and byzantine providers
without any application-specific comparison logic.  A result reaches the
broker as the bytes its provider packed (``serde.packed(value,
fold_nan=True)``), and those bytes are the vote: the encoder is
deterministic and keeps every runtime type apart, so equal bytes mean
structurally equal values with ``1``, ``1.0`` and ``True`` distinct and
``-0.0`` unlike ``0.0``, and every NaN — whatever sign and payload the
replica's host gave it — is one vote.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from ..common.ids import ExecutionId, NodeId, TaskletId
from ..common.record import Record, record
from ..common.serde import opened


class ExecutionStatus(enum.Enum):
    """Terminal status of one execution attempt."""

    SUCCESS = "success"
    VM_ERROR = "vm_error"  # the Tasklet itself failed (type error, fuel...)
    PROVIDER_LOST = "provider_lost"  # crash/churn before a result arrived
    TIMEOUT = "timeout"  # deadline-based re-issue gave up on it
    REJECTED = "rejected"  # provider refused (overloaded, shutting down)


@record("execution")
@dataclass
class ExecutionRecord(Record):
    """Outcome of one execution attempt on one provider.  On the wire: an
    item of ``tasklet_complete.executions`` / ``forward_complete.executions``,
    with the fields of an ``execution_result``."""

    execution_id: ExecutionId
    tasklet_id: TaskletId
    provider_id: NodeId
    status: ExecutionStatus
    #: The result as its provider packed it (None: there is none); opened
    #: only in the records a consumer's ``TaskletResult`` holds.
    value: Any = None
    error: str | None = None
    instructions: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is ExecutionStatus.SUCCESS

    @property
    def duration(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    #: Optional keys the item this record was read from left out: written
    #: back out only once their field no longer holds its default, so a
    #: record re-encodes as it was read (set by :meth:`from_dict` alone).
    _absent = frozenset()

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ExecutionRecord:
        read = super().from_dict(data)
        if len(data) < len(cls._FIELDS):
            read._absent = vars(read).keys() - data.keys()
        return read

    def to_dict(self) -> dict[str, Any]:
        """Wire form.  A success without a ``value`` leaves the key out:
        it agrees with the completion it travels in, whose value then
        crosses the wire once; the consumer puts it back as it opens it."""
        data = super().to_dict()
        if data["value"] is None and self.status is ExecutionStatus.SUCCESS:
            del data["value"]
        for name in self._absent:
            if name in data and data[name] == getattr(ExecutionRecord, name):
                del data[name]
        return data

    def holding(self, value: Any) -> ExecutionRecord:
        """A copy of this record with ``value`` in place of its own."""
        copy = object.__new__(ExecutionRecord)
        copy.__dict__ = {**vars(self), "value": value}
        return copy


def open_completion(
    value: bytes | None, executions: list[ExecutionRecord]
) -> tuple[Any, list[ExecutionRecord]]:
    """What a ``tasklet_complete`` carries packed, opened — once, by its
    consumer, from the records its body was read into (which stay as they
    crossed the wire): the value, and copies of the records holding theirs
    (a success that agreed with the verdict takes the verdict's).
    :class:`CodecError` if one does not open."""
    value = None if value is None else opened(value)
    return value, [
        record.holding(opened(record.value))
        if record.value is not None
        else record.holding(value if record.ok else None)
        for record in executions
    ]


@dataclass
class TaskletResult:
    """Final, consumer-visible outcome of a Tasklet."""

    tasklet_id: TaskletId
    ok: bool
    value: Any = None
    error: str | None = None
    attempts: int = 0
    cost: float = 0.0  # billed cost units (see repro.broker.accounting)
    executions: list[ExecutionRecord] = field(default_factory=list)
    submitted_at: float = 0.0
    completed_at: float = 0.0

    @property
    def latency(self) -> float:
        """End-to-end time from submission to final result."""
        return max(0.0, self.completed_at - self.submitted_at)

    @property
    def provider_seconds(self) -> float:
        """Total provider time consumed across all executions."""
        return sum(record.duration for record in self.executions)


class VoteCollector:
    """Collects replica results for one Tasklet and decides acceptance.

    ``required`` is the number of *agreeing* successful results needed.
    For plain redundancy-r execution the broker uses
    ``required = r // 2 + 1`` (simple majority), so r=2 tolerates one
    lost replica and r=3 additionally tolerates one corrupted value.
    """

    def __init__(self, redundancy: int, required: int | None = None):
        if redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {redundancy}")
        self.redundancy = redundancy
        self.required = required if required is not None else redundancy // 2 + 1
        self.successes: dict[bytes, list[ExecutionRecord]] = {}
        self.failures: list[ExecutionRecord] = []

    def add(self, record: ExecutionRecord) -> None:
        """Fold in one terminal execution record; successes group by
        their packed value, which nothing here opens or re-packs."""
        if record.ok:
            self.successes.setdefault(record.value, []).append(record)
        else:
            self.failures.append(record)

    @property
    def all_records(self) -> list[ExecutionRecord]:
        records = list(self.failures)
        for group in self.successes.values():
            records.extend(group)
        return records

    def winner(self) -> list[ExecutionRecord] | None:
        """The agreeing group that reached ``required`` votes, if any."""
        for group in self.successes.values():
            if len(group) >= self.required:
                return group
        return None

    def disagreement(self) -> bool:
        """True when successful replicas returned conflicting values."""
        return len(self.successes) > 1
