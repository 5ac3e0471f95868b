"""Broker durability: the work journal and result memoization.

The journal is the broker's crash-survivable memory, modeled on the
minimal two-state (``pending``/``complete``) pull queue of the
dashcam-processor task system: an append-only JSONL file holding one
record per state transition —

* ``admitted`` — a Tasklet passed admission; the record carries the full
  wire-form Tasklet so a restarted broker can re-admit and re-issue it
  without the consumer doing anything;
* ``complete`` — the Tasklet reached a terminal outcome; the record
  carries the voted value (or error), so an idempotent resubmit after a
  restart is answered from the journal instead of re-executed.

A Tasklet is *pending* iff its ``admitted`` record has no matching
``complete`` record.  There is deliberately no ``in_progress`` state:
replica placement is reconstructed by re-issuing, which is safe because
Tasklets are side-effect-free and deterministic.

That same determinism is what makes the journal double as a result
cache: two submissions agreeing on (program fingerprint, entry, args,
seed, fuel) must produce bit-identical values, so :class:`ResultCache`
memoizes successful completions under :func:`memo_key_of` and the broker
serves repeats with zero executions issued.

Every line kind is a declared record (:mod:`repro.common.record`;
docs/PROTOCOL.md, "Record table"): replay looks up a line's kind and opens
it, and a line that does not read — a truncated or corrupt trailing line,
the signature of a crash mid-append, or any other (JSONL lines are
independent) — is skipped and counted in :attr:`JournalSnapshot.malformed`.
What a line carries *inside* ``tasklet`` / ``workflow`` stays a plain dict
for its owner — admission — to open.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..common.errors import RecordError, TransportError, VMInvalidProgram
from ..common.record import Record, identified, reads_as, record, sparse
from ..common.serde import decode_value, encode_value, packed
from ..tvm.bytecode import CompiledProgram


def memo_key_of(
    program_fingerprint: str,
    entry: str,
    args: bytes,
    seed: int,
    fuel: int,
) -> str | None:
    """Identity of a Tasklet's *computation* (not its submission).

    Everything that determines the result of a deterministic Tasklet:
    the program content hash plus entry point, PRNG seed, fuel (exhaustion
    depends on it) and the packed arguments, hashed as the bytes they are.
    Returns ``None`` when no fingerprint was stamped — such submissions
    are simply never memoized.
    """
    if not program_fingerprint:
        return None
    head = f"{program_fingerprint}\x00{entry}\x00{seed}\x00{fuel}\x00"
    return hashlib.sha256(head.encode("utf-8") + args).hexdigest()[:32]


#: Terminal outcomes (tasklets and workflows each) the broker keeps in
#: memory for idempotent resubmit re-delivery, LRU by completion recency.
COMPLETED_RETENTION = 8192

#: LRU capacity of the result-memoization cache.
RESULT_CACHE_SIZE = 4096


@record("complete")
@dataclass(frozen=True)
class CompletionRecord(Record):
    """Terminal outcome of one Tasklet, as journalled (a ``complete`` line).

    Per-execution records are deliberately not persisted (they can dwarf
    the result); a re-delivered or memoized completion therefore carries
    ``executions: []`` on the wire.
    """

    key: str  # broker-internal identity: consumer_id/tasklet_id
    tasklet_id: str
    consumer_id: str
    ok: bool
    value: bytes | None = None  # the packed result: the bytes that were voted on
    error: str | None = None
    attempts: int = 0
    cost: float = 0.0
    memo_key: str | None = None
    completed_at: float = 0.0
    #: Broker whose providers actually executed this tasklet ("" when the
    #: outcome came from the result cache or a journal redelivery).  Lets
    #: federation audits assert exactly-once across all broker journals.
    executed_by: str = ""


@record("wf_outcome")
@dataclass(frozen=True)
class WorkflowOutcome(Record):
    """Terminal outcome of one workflow: what a ``wf_complete`` line holds
    and a ``workflow_complete`` message says."""

    workflow_id: str
    ok: bool
    consumer_id: str = ""
    outputs: dict[str, bytes] = field(default_factory=dict)  # sink -> packed result
    error: str | None = None
    failed_node: str = ""
    dependents: list[str] = field(default_factory=list)
    nodes_total: int = 0
    nodes_memoized: int = 0


class _Line(Record):
    """A journal line that is nothing else: it is written with its kind
    (the record's name), and reads by subscript like the line on disk."""

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.WHAT, **super().to_dict()}

    def __getitem__(self, name: str) -> Any:
        return getattr(self, name)


@record("admitted")
@dataclass(frozen=True)
class Admitted(_Line):
    """A Tasklet passed admission.  ``origin`` names the originating
    broker of forwarded work (the *origin's* durable responsibility:
    replay never re-admits it here), ``workflow`` the owning workflow key
    of a released node (its graph's recovery re-releases it)."""

    key: str
    consumer_id: str
    ts: float
    tasklet: dict[str, Any] = identified("tasklet_id")
    origin: str = sparse(str)
    workflow: str = sparse(str)


@record("wf_admitted")
@dataclass(frozen=True)
class WorkflowAdmitted(_Line):
    key: str
    consumer_id: str
    ts: float
    workflow: dict[str, Any] = identified("workflow_id")


@record("wf_complete")
@dataclass(frozen=True)
class WorkflowCompleted(_Line):
    key: str
    ts: float
    outcome: dict[str, Any] = reads_as(WorkflowOutcome)


#: Line kind -> its record: the complete state vocabulary.  Workflow kinds
#: mirror the tasklet pair at the graph level; node executions reuse plain
#: ``admitted`` / ``complete`` lines tagged with their workflow key.
_LINES: dict[str, type[Record]] = {
    shape.WHAT: shape
    for shape in (Admitted, CompletionRecord, WorkflowAdmitted, WorkflowCompleted)
}


@dataclass
class JournalSnapshot:
    """Result of replaying one journal file."""

    #: ``admitted`` lines with no matching completion, in admission
    #: order — the work a restarted broker must re-issue.
    pending: list[Admitted] = field(default_factory=list)
    #: Terminal outcomes by Tasklet key, most recent write winning.
    completions: "OrderedDict[str, CompletionRecord]" = field(
        default_factory=OrderedDict
    )
    admitted: int = 0
    completed: int = 0
    #: Undecodable or schema-less lines skipped (crash-truncated tail,
    #: torn writes); never fatal.
    malformed: int = 0
    #: ``wf_admitted`` lines with no matching ``wf_complete``, in
    #: admission order — workflows a restarted broker must resume.
    workflows: list[WorkflowAdmitted] = field(default_factory=list)
    #: Workflow key -> its ``wf_complete`` line, most recent winning.
    workflow_completions: "OrderedDict[str, WorkflowCompleted]" = field(
        default_factory=OrderedDict
    )
    #: Workflow-tagged node ``admitted`` lines, in admission order.
    #: Informational (CLI rendering): node re-release during recovery is
    #: driven by the spec + completions, not by these.
    workflow_nodes: list[Admitted] = field(default_factory=list)
    workflows_admitted: int = 0
    workflows_completed: int = 0

    @property
    def pending_keys(self) -> list[str]:
        return [entry.key for entry in self.pending]

    @property
    def pending_workflow_keys(self) -> list[str]:
        return [entry.key for entry in self.workflows]

    def workflow_node_state(self, node_key: str) -> str:
        """Journal-derived state of one workflow node.

        ``done``/``failed`` if a completion was journalled, ``running``
        if the node was released (admitted) but never finished, and
        ``waiting`` if the broker had not yet released it.
        """
        completion = self.completions.get(node_key)
        if completion is not None:
            return "done" if completion.ok else "failed"
        if any(entry.key == node_key for entry in self.workflow_nodes):
            return "running"
        return "waiting"


def _repacked(document: dict) -> tuple[bytes, str]:
    """Packed form and stamp of a program an older build journalled as its
    document (and stamped with a hash of that)."""
    program = CompiledProgram.from_dict(document)
    return program.packed(), program.fingerprint()


def _upgrade(line: dict) -> None:
    """Rewrite, as it is read, a line an older build wrote — the one place
    that knows a program was once journalled as a dict (it is packed, and
    everything that names it re-stamped) and arguments, results and
    workflow outputs as JSON values (they are packed; an old ``null`` that
    was a success is a void result).  (Memo keys of either age stay; they
    match nothing this build computes and are simply cold.)"""
    tasklet, workflow = line.get("tasklet"), line.get("workflow")
    if type(tasklet) is dict and type(tasklet.get("program")) is dict:
        tasklet["program"], tasklet["program_fingerprint"] = _repacked(tasklet["program"])
    if type(tasklet) is dict and type(tasklet.get("args")) is list:
        tasklet["args"] = packed(tasklet["args"])
    value = line.get("value")
    if line["kind"] == "complete" and type(value) is not bytes:
        if value is not None or line.get("ok") is True:
            line["value"] = packed(value, fold_nan=True)
    outputs = line["outcome"].get("outputs") if type(line.get("outcome")) is dict else None
    for sink, value in outputs.items() if type(outputs) is dict else ():
        if type(value) is not bytes:
            outputs[sink] = packed(value, fold_nan=True)
    programs = workflow.get("programs") if type(workflow) is dict else None
    if type(programs) is not dict:
        return
    stamps = {}
    for old in [key for key, program in programs.items() if type(program) is dict]:
        blob, stamps[old] = _repacked(programs.pop(old))
        programs[stamps[old]] = blob
    nodes = workflow.get("nodes")
    for node in nodes if stamps and type(nodes) is list else ():
        stamp = node.get("program_fingerprint") if type(node) is dict else None
        if type(stamp) is str and stamp in stamps:
            node["program_fingerprint"] = stamps[stamp]


def _read_line(text: str) -> Record:
    """The typed line ``text`` holds — or :class:`RecordError`: not JSON,
    no known kind, or not what its kind declares.  Bytes are ``serde``'s
    ``__b__`` tag, as in the JSON codec."""
    try:
        document = json.loads(text)
        if '"__' in text:  # (else there is no tag to read: most lines but ``admitted``)
            document = decode_value(document)
    except ValueError as exc:
        raise RecordError(f"not JSON: {exc}") from None
    except TransportError as exc:
        raise RecordError(f"not a journal line: {exc}") from None
    kind = document.get("kind") if type(document) is dict else None
    shape = _LINES.get(kind) if type(kind) is str else None
    if shape is None:
        raise RecordError(f"unknown line kind {kind!r}")
    try:
        _upgrade(document)
    except (VMInvalidProgram, TransportError) as exc:
        raise RecordError(f"malformed {kind}: {exc}") from None
    return shape.from_dict(document)


def _encode(entry: Record) -> str:
    """The line ``entry`` is written as: what :func:`_read_line` reads."""
    document = {"kind": entry.WHAT, **entry.to_dict()}
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=encode_value
    ) + "\n"


def replay_journal(path: str) -> JournalSnapshot:
    """Read one journal file into a :class:`JournalSnapshot`.

    Missing file ⇒ empty snapshot (a fresh broker with a configured
    journal path that has never written).
    """
    snapshot = JournalSnapshot()
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return snapshot
    admitted_by_key: "OrderedDict[str, Admitted]" = OrderedDict()
    wf_by_key: "OrderedDict[str, WorkflowAdmitted]" = OrderedDict()
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = _read_line(line)
            except RecordError:
                snapshot.malformed += 1
                continue
            if type(entry) is Admitted:
                snapshot.admitted += 1
                if entry.workflow:
                    # Node of a workflow: owned by its graph, never
                    # re-admitted standalone.
                    snapshot.workflow_nodes.append(entry)
                else:
                    admitted_by_key[entry.key] = entry
            elif type(entry) is WorkflowAdmitted:
                snapshot.workflows_admitted += 1
                wf_by_key[entry.key] = entry
            elif type(entry) is WorkflowCompleted:
                snapshot.workflows_completed += 1
                snapshot.workflow_completions[entry.key] = entry
                snapshot.workflow_completions.move_to_end(entry.key)
            else:
                snapshot.completed += 1
                snapshot.completions[entry.key] = entry
                snapshot.completions.move_to_end(entry.key)
    snapshot.pending = [
        record
        for key, record in admitted_by_key.items()
        if key not in snapshot.completions
    ]
    snapshot.workflows = [
        record
        for key, record in wf_by_key.items()
        if key not in snapshot.workflow_completions
    ]
    return snapshot


class WorkJournal:
    """Append-only JSONL journal of admitted and completed Tasklets.

    Writes are serialised by an internal lock (the TCP broker drives the
    core from several threads) and flushed per record so a crash loses at
    most the line being written — which replay tolerates.  ``fsync=True``
    additionally syncs every append for machines where the page cache
    must not be trusted; off by default because it dominates admission
    latency (``benchmarks/bench_micro_journal.py`` measures both paths).

    ``auto_compact_records`` / ``auto_compact_bytes`` arm automatic
    compaction: once that many records have been appended since the last
    compaction (or the file exceeds that many bytes), the next
    :meth:`maybe_compact` call rewrites the journal in place, dropping
    ``admitted`` records that already completed.  Both default to off —
    compaction stays manual via ``repro journal --compact``.
    """

    #: Appends required between byte-triggered compactions, so a journal
    #: dominated by live (incompactable) state cannot re-trigger a
    #: rewrite on every write.
    MIN_APPENDS_BETWEEN_COMPACTIONS = 32

    def __init__(
        self,
        path: str,
        fsync: bool = False,
        auto_compact_records: int | None = None,
        auto_compact_bytes: int | None = None,
    ):
        self.path = path
        self.fsync = fsync
        self.auto_compact_records = auto_compact_records
        self.auto_compact_bytes = auto_compact_bytes
        self._lock = threading.Lock()
        self._appended = 0  # records written since open / last compaction
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._file = open(path, "a", encoding="utf-8")
        self._size = self._file.tell()

    # -- writes ---------------------------------------------------------------

    def record_admitted(
        self, key: str, consumer_id: str, tasklet: dict, ts: float,
        origin: str = "",
        workflow: str = "",
    ) -> None:
        """Journal one admission (the full wire-form Tasklet; see
        :class:`Admitted` for ``origin`` and ``workflow``)."""
        self._write(Admitted(key, consumer_id, ts, tasklet, origin, workflow))

    def record_complete(self, completion: CompletionRecord) -> None:
        """Journal one terminal outcome."""
        self._write(completion)

    def record_workflow_admitted(
        self, key: str, consumer_id: str, workflow: dict, ts: float
    ) -> None:
        """Journal one admitted workflow (the full wire-form spec)."""
        self._write(WorkflowAdmitted(key, consumer_id, ts, workflow))

    def record_workflow_complete(
        self, key: str, outcome: dict, ts: float
    ) -> None:
        """Journal one workflow's terminal outcome (a ``wf_outcome`` dict)."""
        self._write(WorkflowCompleted(key, ts, outcome))

    def _write(self, entry: Record) -> None:
        line = _encode(entry)
        with self._lock:
            if self._file.closed:
                return  # shutdown race: losing a tail record is recoverable
            self._file.write(line)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._appended += 1
            self._size += len(line)

    # -- reads ----------------------------------------------------------------

    def replay(self) -> JournalSnapshot:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
        return replay_journal(self.path)

    # -- maintenance ----------------------------------------------------------

    def compact(self, keep_completions: int | None = None) -> JournalSnapshot:
        """Rewrite the journal keeping only live state.

        Drops ``admitted`` records that already completed (the program
        payloads dominate journal size) and, when ``keep_completions``
        is given, all but the most recent N completions.  State an
        in-flight workflow still needs survives unconditionally: its
        ``wf_admitted`` record, its not-yet-completed node admissions,
        and its node completions (exempt from the ``keep_completions``
        trim — recovery replays them into the rebuilt scheduler).  The
        rewrite is atomic (temp file + rename); returns the snapshot it
        kept.
        """
        snapshot = self.replay()
        pending_wf = set(snapshot.pending_workflow_keys)

        def _owned_by_pending_workflow(node_key: str) -> bool:
            return any(node_key.startswith(wf + ":") for wf in pending_wf)

        completions = list(snapshot.completions.values())
        if keep_completions is not None and keep_completions >= 0:
            tail = (
                {c.key for c in completions[-keep_completions:]}
                if keep_completions
                else set()
            )
            completions = [
                completion
                for completion in completions
                if completion.key in tail
                or _owned_by_pending_workflow(completion.key)
            ]
        live_nodes = [
            entry
            for entry in snapshot.workflow_nodes
            if entry.workflow in pending_wf and entry.key not in snapshot.completions
        ]
        temp_path = self.path + ".compact"
        with self._lock:
            with open(temp_path, "w", encoding="utf-8") as temp:
                for entry in (
                    *snapshot.pending,
                    *snapshot.workflows,
                    *live_nodes,
                    *completions,
                    *snapshot.workflow_completions.values(),
                ):
                    temp.write(_encode(entry))
                temp.flush()
                os.fsync(temp.fileno())
            if not self._file.closed:
                self._file.close()
            os.replace(temp_path, self.path)
            self._file = open(self.path, "a", encoding="utf-8")
            self._size = self._file.tell()
            self._appended = 0
        kept = JournalSnapshot(
            pending=snapshot.pending,
            completions=OrderedDict(
                (completion.key, completion) for completion in completions
            ),
            admitted=len(snapshot.pending) + len(live_nodes),
            completed=len(completions),
            malformed=0,
            workflows=snapshot.workflows,
            workflow_completions=OrderedDict(snapshot.workflow_completions),
            workflow_nodes=live_nodes,
            workflows_admitted=len(snapshot.workflows),
            workflows_completed=len(snapshot.workflow_completions),
        )
        return kept

    def should_compact(self) -> bool:
        """True when an armed auto-compaction threshold has been crossed."""
        with self._lock:
            if self._file.closed:
                return False
            if (
                self.auto_compact_records is not None
                and self._appended >= self.auto_compact_records
            ):
                return True
            return (
                self.auto_compact_bytes is not None
                and self._size >= self.auto_compact_bytes
                and self._appended >= self.MIN_APPENDS_BETWEEN_COMPACTIONS
            )

    def maybe_compact(self) -> dict | None:
        """Compact if a threshold is crossed; stats dict or ``None``.

        Called by the broker after journal writes (never while holding
        the journal lock — :meth:`compact` takes it itself).  The stats
        feed the ``journal_compacted`` event.
        """
        if not self.should_compact():
            return None
        bytes_before = self._size
        snapshot = self.compact()
        return {
            "records_kept": snapshot.admitted + snapshot.completed,
            "pending": len(snapshot.pending),
            "completions": len(snapshot.completions),
            "bytes_before": bytes_before,
            "bytes_after": self._size,
        }

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


class ResultCache:
    """LRU memoization of *successful* completions by computation identity.

    Only ``ok`` outcomes are cached: a success of a deterministic,
    side-effect-free Tasklet is a property of its inputs, while a failure
    is usually a property of the moment (provider churn, exhausted pool)
    and must stay retryable.
    """

    def __init__(self, capacity: int = RESULT_CACHE_SIZE):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CompletionRecord]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> CompletionRecord | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, completion: CompletionRecord) -> None:
        if not completion.ok:
            return
        with self._lock:
            self._entries[key] = completion
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
