"""The broker's durable memory: the :class:`~repro.broker.journal.WorkJournal`
(``None`` for a volatile broker), the terminal outcomes that answer
idempotent resubmits and memoized repeats, and the one replay of a journal —
this broker's own at construction, a dead peer's at adoption.  The core,
the workflow coordinator and the forwarding plane state what happened;
:class:`Durability` decides what of it is written, reports each append and
compacts.  Replay re-enters the tasklet lifecycle only through the core's
``_admit_wire`` and ``_issue``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from ..common.ids import NodeId
from ..transport.message import Envelope
from .journal import CompletionRecord, JournalSnapshot, WorkflowOutcome, WorkJournal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import BrokerCore, _TaskletState
    from .workflows import _WorkflowState

#: Terminal outcomes (tasklets and workflows each) the broker keeps in
#: memory, LRU by completion recency: what answers an idempotent resubmit,
#: and — the successes among them — a repeat of the same computation.
COMPLETED_RETENTION = 8192


class Retained(OrderedDict):
    """Terminal outcomes by key, the most recently completed last; the
    oldest past ``capacity`` is forgotten.  ``indexed``: the successes
    among them are also found by memo key (Tasklets are deterministic;
    a failure is a property of the moment and stays retryable).  A memo
    entry names the latest success of its computation, so forgetting an
    outcome drops the entry only while it still names that outcome."""

    def __init__(self, indexed: bool = False):
        super().__init__()
        self.capacity = COMPLETED_RETENTION
        self._by_memo: dict[str, CompletionRecord] | None = {} if indexed else None

    def keep(self, key: str, outcome: CompletionRecord | WorkflowOutcome) -> None:
        """Keep ``outcome`` as the newest, forgetting the oldest past the bound."""
        replaced = self.pop(key, None)
        self[key] = outcome
        forgotten = self.popitem(last=False)[1] if len(self) > self.capacity else None
        if self._by_memo is None:
            return
        for gone in (replaced, forgotten):
            if gone is not None and self._by_memo.get(gone.memo_key) is gone:
                del self._by_memo[gone.memo_key]
        if outcome.ok and outcome.memo_key:
            self._by_memo[outcome.memo_key] = outcome

    def memoized(self, memo_key: str) -> CompletionRecord | None:
        """The latest retained success of the computation ``memo_key`` names."""
        return self._by_memo.get(memo_key)


class Durability:
    """One broker's durable memory (see module docstring)."""

    def __init__(self, core: "BrokerCore", journal: WorkJournal | None):
        self.core = core
        self.journal = journal
        self.tasklet_outcomes = Retained(indexed=True)
        self.workflow_outcomes = Retained()

    def admitted(self, state: "_TaskletState", workflow: str) -> None:
        """New work passed admission (``workflow``: a node's owner)."""
        if self.journal is None:
            return
        self.journal.record_admitted(
            state.key, str(state.consumer_id), state.wire, ts=state.submitted_at,
            origin=str(state.origin_broker or ""), workflow=workflow,
        )
        self.core.observer.journal_appended("admitted")

    def completed(self, completion: CompletionRecord) -> None:
        self.tasklet_outcomes.keep(completion.key, completion)
        if self.journal is not None:
            self.journal.record_complete(completion)
            self._appended("complete")

    def workflow_admitted(self, wf: "_WorkflowState") -> None:
        if self.journal is not None:
            self.journal.record_workflow_admitted(
                wf.key, str(wf.consumer_id), wf.spec.to_dict(), ts=wf.submitted_at
            )
            self.core.observer.journal_appended("wf_admitted")

    def workflow_completed(self, key: str, outcome: WorkflowOutcome) -> None:
        self.workflow_outcomes.keep(key, outcome)
        if self.journal is not None:
            self.journal.record_workflow_complete(key, outcome, ts=self.core.clock.now())
            self._appended("wf_complete")

    def _appended(self, kind: str) -> None:
        """A terminal line was written: what it closes may be compacted away."""
        self.core.observer.journal_appended(kind)
        compaction = self.journal.maybe_compact()
        if compaction is not None:
            self.core.observer.journal_compacted(compaction)

    def recover(self) -> None:
        """Replay this broker's own journal at construction, before any
        provider registers: pending work queues and nobody is told."""
        if self.journal is None:
            return
        snapshot = self.journal.replay()
        completions, pending, _ = self.replay(snapshot, own=True)
        for entry in snapshot.workflow_completions.values():
            self.workflow_outcomes.keep(entry.key, entry.outcome)
        resumed = sum(1 for entry in snapshot.workflows if self.core.workflows._resume(entry))
        self.core.observer.recovered(pending, completions, resumed, snapshot.malformed)

    def replay(self, snapshot: JournalSnapshot, own: bool) -> tuple[int, int, list[Envelope]]:
        """Take over a journal's tasklets — this broker's ``own`` or a dead
        peer's (then journalled here too): completions are re-delivered on
        resubmit, pending admissions re-admitted and issued."""
        core = self.core
        completions = pending = 0
        for completion in snapshot.completions.values():
            if completion.key in self.tasklet_outcomes or completion.key in core._tasklets:
                continue
            if own:
                self.tasklet_outcomes.keep(completion.key, completion)
            else:
                self.completed(completion)
            completions += 1
        out: list[Envelope] = []
        for entry in snapshot.pending:
            if entry.origin:
                # Forwarded in: its origin holds the admission and reclaims
                # it, so re-admitting it here would double-execute.
                continue
            consumer = NodeId(entry.consumer_id)
            state = core._admit_wire(consumer, entry.tasklet, replayed=True, journalled=own).state
            if state is not None:
                pending += 1
                out.extend(core._issue(state, state.qoc.redundancy))
        return completions, pending, out
