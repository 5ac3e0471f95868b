"""Unit tests for the broker work journal and result memoization."""

import copy
import json
from pathlib import Path

import pytest

from repro.broker.core import BrokerCore
from repro.broker.durability import Retained
from repro.broker.journal import (
    CompletionRecord,
    WorkflowOutcome,
    WorkJournal,
    _encode,
    _read_line,
    memo_key_of,
    replay_journal,
)
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId
from repro.common.serde import decode_value, encode_value, opened, packed
from repro.provider.executor import TaskletExecutor
from repro.transport.message import Envelope, ExecutionResult, RegisterProvider, body_of
from repro.tvm.bytecode import CompiledProgram, checked_stamp
from repro.tvm.vm import TVM


def loads(data):
    """``data`` read as a journal line is: JSON, with serde's tags opened."""
    return decode_value(json.loads(data))


def keys(entries) -> list[str]:
    return [entry.key for entry in entries]


def make_completion(key="c1/tl-1", ok=True, value=42, memo_key=None):
    """A completion as the broker keeps it: a success's value packed."""
    return CompletionRecord(
        key=key,
        tasklet_id=key.split("/", 1)[1],
        consumer_id=key.split("/", 1)[0],
        ok=ok,
        value=packed(value) if ok else None,
        error=None if ok else "boom",
        attempts=1,
        cost=0.5,
        memo_key=memo_key,
        completed_at=12.5,
    )


TASKLET = {"tasklet_id": "tl-1", "entry": "main", "args": packed([7])}


def _line(**fields):
    return json.dumps(fields, default=encode_value)  # (bytes as the journal writes them)


class TestReplay:
    def test_missing_file_is_empty_snapshot(self, tmp_path):
        snapshot = replay_journal(str(tmp_path / "nope.jsonl"))
        assert snapshot.pending == []
        assert snapshot.completions == {}
        assert snapshot.malformed == 0

    def test_admitted_without_complete_is_pending(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "j.jsonl"))
        journal.record_admitted("c1/tl-1", "c1", TASKLET, ts=1.0)
        journal.record_admitted("c1/tl-2", "c1", dict(TASKLET, tasklet_id="tl-2"), ts=2.0)
        journal.record_complete(make_completion("c1/tl-1"))
        snapshot = journal.replay()
        journal.close()
        assert keys(snapshot.pending) == ["c1/tl-2"]
        assert snapshot.admitted == 2 and snapshot.completed == 1
        completion = snapshot.completions["c1/tl-1"]
        assert completion.ok and opened(completion.value) == 42

    def test_completion_roundtrips_fields(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "j.jsonl"))
        journal.record_complete(make_completion(ok=False, value=None, memo_key="m1"))
        snapshot = journal.replay()
        journal.close()
        completion = snapshot.completions["c1/tl-1"]
        assert completion.error == "boom"
        assert completion.memo_key == "m1"
        assert completion.cost == 0.5
        assert completion.completed_at == 12.5

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = WorkJournal(str(path))
        journal.record_admitted("c1/tl-1", "c1", TASKLET, ts=1.0)
        journal.close()
        # Simulate a crash mid-append: a half-written record at the tail.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"complete","key":"c1/tl-1","ok"')
        snapshot = replay_journal(str(path))
        assert snapshot.malformed == 1
        assert keys(snapshot.pending) == ["c1/tl-1"]  # the torn complete never landed

    def test_corrupt_middle_line_does_not_poison_rest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            _line(kind="admitted", key="c1/tl-1", consumer_id="c1", ts=1.0, tasklet=TASKLET),
            "not json at all {{{",
            _line(**make_completion("c1/tl-1").to_dict(), kind="complete"),
        ]
        path.write_text("\n".join(lines) + "\n")
        snapshot = replay_journal(str(path))
        assert snapshot.malformed == 1
        assert snapshot.pending == []
        assert "c1/tl-1" in snapshot.completions

    def test_unknown_kind_counts_as_malformed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        assert replay_journal(str(path)).malformed == 1

    def test_last_completion_wins(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "j.jsonl"))
        journal.record_complete(make_completion(value=1))
        journal.record_complete(make_completion(value=2))
        snapshot = journal.replay()
        journal.close()
        assert opened(snapshot.completions["c1/tl-1"].value) == 2


class TestCompact:
    def test_compact_drops_completed_admissions(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = WorkJournal(str(path))
        journal.record_admitted("c1/tl-1", "c1", TASKLET, ts=1.0)
        journal.record_admitted("c1/tl-2", "c1", dict(TASKLET, tasklet_id="tl-2"), ts=2.0)
        journal.record_complete(make_completion("c1/tl-1"))
        kept = journal.compact()
        assert keys(kept.pending) == ["c1/tl-2"]
        # The file shrank to exactly the live records and stays appendable.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        journal.record_complete(make_completion("c1/tl-2"))
        snapshot = journal.replay()
        journal.close()
        assert snapshot.pending == []
        assert set(snapshot.completions) == {"c1/tl-1", "c1/tl-2"}

class TestMemoKey:
    """The key hashes the packed arguments as the bytes they are."""

    def test_stable_for_identical_inputs(self):
        a = memo_key_of("fp", "main", packed([1, 2]), 7, 1000)
        b = memo_key_of("fp", "main", packed([1, 2]), 7, 1000)
        assert a == b is not None

    @pytest.mark.parametrize(
        "other",
        [
            ("fp2", "main", packed([1, 2]), 7, 1000),
            ("fp", "other", packed([1, 2]), 7, 1000),
            ("fp", "main", packed([1, 3]), 7, 1000),
            ("fp", "main", packed([1, 2]), 8, 1000),
            ("fp", "main", packed([1, 2]), 7, 999),
        ],
    )
    def test_any_input_change_changes_key(self, other):
        assert memo_key_of(*other) != memo_key_of("fp", "main", packed([1, 2]), 7, 1000)

    def test_no_fingerprint_means_not_memoizable(self):
        assert memo_key_of("", "main", packed([1]), 0, 1000) is None

    def test_fields_do_not_run_into_each_other_and_types_stay_apart(self):
        assert memo_key_of("fp", "main", packed([1]), 12, 3) != memo_key_of("fp", "main", packed([1]), 1, 23)
        keys = {memo_key_of("fp", "main", packed([x]), 0, 1000) for x in (1, 1.0, True)}
        assert len(keys) == 3  # (the JSON key it replaces read 1 and 1.0 apart, and that was all)


class TestResultCache:
    """The result cache is the memo index over the retained tasklet outcomes."""

    def test_failures_never_cached(self):
        outcomes = Retained(indexed=True)
        outcomes.keep("c1/k", make_completion("c1/k", ok=False, memo_key="m"))
        assert outcomes.memoized("m") is None and "c1/k" in outcomes

    def test_lru_eviction(self):
        outcomes = Retained(indexed=True)
        outcomes.capacity = 2
        for name in "abc":
            outcomes.keep(f"c1/{name}", make_completion(f"c1/{name}", memo_key=name))
        assert list(outcomes) == ["c1/b", "c1/c"]
        assert outcomes.memoized("a") is None
        assert outcomes.memoized("b") is outcomes["c1/b"]
        assert outcomes.memoized("c") is outcomes["c1/c"]
        outcomes.keep("c1/b", make_completion("c1/b", memo_key="b"))  # completed again: newest
        outcomes.keep("c1/d", make_completion("c1/d", memo_key="d"))
        assert list(outcomes) == ["c1/b", "c1/d"]
        assert outcomes.memoized("c") is None and outcomes.memoized("b") is outcomes["c1/b"]

    def test_a_hit_outlives_the_outcome_it_repeated(self):
        """A memo hit is a new outcome the index now names: forgetting the
        outcome it repeated must not take the index entry with it."""
        outcomes = Retained(indexed=True)
        outcomes.capacity = 2
        outcomes.keep("c1/first", make_completion("c1/first", memo_key="m"))
        repeat = make_completion("c1/again", memo_key="m")  # (what a hit keeps)
        outcomes.keep("c1/again", repeat)
        outcomes.keep("c1/other", make_completion("c1/other"))  # forgets c1/first
        assert "c1/first" not in outcomes
        assert outcomes.memoized("m") is repeat

    def test_an_outcome_kept_again_under_its_key_stays_memoized(self):
        outcomes = Retained(indexed=True)
        done = make_completion("c1/k", memo_key="m")
        outcomes.keep("c1/k", done)
        outcomes.keep("c1/k", done)
        assert outcomes.memoized("m") is done


class TestAutoCompact:
    def test_record_threshold_triggers_compaction(self, tmp_path):
        journal = WorkJournal(
            str(tmp_path / "wj.jsonl"), auto_compact_records=4
        )
        for n in range(3):
            journal.record_admitted(f"c1/tl-{n}", "c1", TASKLET, ts=float(n))
            journal.record_complete(make_completion(f"c1/tl-{n}"))
        assert journal.should_compact()
        stats = journal.maybe_compact()
        assert stats is not None
        assert stats["pending"] == 0
        assert stats["bytes_after"] < stats["bytes_before"]
        # Counter reset: the next append does not immediately re-trigger.
        journal.record_admitted("c1/tl-9", "c1", TASKLET, ts=9.0)
        assert not journal.should_compact()
        assert journal.maybe_compact() is None
        journal.close()
        snapshot = replay_journal(str(tmp_path / "wj.jsonl"))
        assert keys(snapshot.pending) == ["c1/tl-9"]
        assert len(snapshot.completions) == 3

    def test_records_kept_counts_the_workflow_lines_the_rewrite_holds(self, tmp_path):
        """Regression: ``records_kept`` summed tasklet admissions and
        completions only, so a journal holding a workflow reported fewer
        records than its compaction had just written."""
        path = tmp_path / "wj.jsonl"
        journal = WorkJournal(str(path), auto_compact_records=8)
        finished = dict(WF_SPEC, workflow_id="wf-done")
        journal.record_workflow_admitted("c1/wf-done", "c1", finished, ts=1.0)
        journal.record_admitted("c1/wf-done:a", "c1", TASKLET, ts=1.1, workflow="c1/wf-done")
        journal.record_complete(make_completion("c1/wf-done:a"))
        outcome = WorkflowOutcome("wf-done", ok=True, outputs={"a": packed(42)})
        journal.record_workflow_complete("c1/wf-done", outcome, ts=2.0)
        journal.record_workflow_admitted("c1/wf-1", "c1", WF_SPEC, ts=3.0)
        journal.record_admitted("c1/wf-1:a", "c1", TASKLET, ts=3.1, workflow="c1/wf-1")
        journal.record_admitted("c1/tl-1", "c1", TASKLET, ts=3.2)
        journal.record_complete(make_completion("c1/tl-1"))
        before = path.stat().st_size
        stats = journal.maybe_compact()
        journal.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        # Kept: the pending workflow's wf_admitted and its unfinished node's
        # admission, both completions, and the finished workflow's wf_complete.
        assert len(lines) == 5
        assert stats["records_kept"] == len(lines)
        assert stats["bytes_before"] == before
        assert stats["bytes_after"] == path.stat().st_size < before

    def test_disarmed_by_default(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "wj.jsonl"))
        for n in range(200):
            journal.record_complete(make_completion(f"c1/tl-{n}"))
        assert not journal.should_compact()
        assert journal.maybe_compact() is None
        journal.close()


class TestFsyncMode:
    def test_fsync_journal_replays_identically(self, tmp_path):
        path = str(tmp_path / "wj.jsonl")
        journal = WorkJournal(path, fsync=True)
        journal.record_admitted("c1/tl-1", "c1", TASKLET, ts=1.0)
        journal.record_complete(make_completion())
        journal.close()
        snapshot = replay_journal(path)
        assert snapshot.pending == []
        assert opened(snapshot.completions["c1/tl-1"].value) == 42
        assert snapshot.malformed == 0


WF_SPEC = {"workflow_id": "wf-1", "nodes": [{"node_id": "a"}], "programs": {}}


class TestWorkflowRecords:
    def test_wf_admitted_without_complete_is_pending(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "wj.jsonl"))
        journal.record_workflow_admitted("c1/wf-1", "c1", WF_SPEC, ts=1.0)
        snapshot = journal.replay()
        journal.close()
        assert snapshot.pending_workflow_keys == ["c1/wf-1"]
        assert snapshot.workflows_admitted == 1
        assert snapshot.workflows[0]["workflow"] == WF_SPEC

    def test_wf_complete_retires_the_workflow(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "wj.jsonl"))
        journal.record_workflow_admitted("c1/wf-1", "c1", WF_SPEC, ts=1.0)
        outcome = WorkflowOutcome("wf-1", ok=True, outputs={"a": packed(9)})
        journal.record_workflow_complete("c1/wf-1", outcome, ts=2.0)
        snapshot = journal.replay()
        journal.close()
        assert snapshot.workflows == []
        assert snapshot.workflows_completed == 1
        assert snapshot.workflow_completions["c1/wf-1"]["outcome"] == outcome

    def test_workflow_tagged_admissions_stay_out_of_pending(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "wj.jsonl"))
        journal.record_workflow_admitted("c1/wf-1", "c1", WF_SPEC, ts=1.0)
        journal.record_admitted(
            "c1/wf-1:a", "c1", TASKLET, ts=1.5, workflow="c1/wf-1"
        )
        journal.record_admitted("c1/tl-9", "c1", TASKLET, ts=2.0)
        snapshot = journal.replay()
        journal.close()
        # The plain tasklet is re-issued by generic recovery; the node
        # is re-released by the workflow's own recovery path.
        assert keys(snapshot.pending) == ["c1/tl-9"]
        assert [r["key"] for r in snapshot.workflow_nodes] == ["c1/wf-1:a"]

    def test_workflow_node_state_progression(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "wj.jsonl"))
        journal.record_workflow_admitted("c1/wf-1", "c1", WF_SPEC, ts=1.0)
        assert journal.replay().workflow_node_state("c1/wf-1:a") == "waiting"
        journal.record_admitted(
            "c1/wf-1:a", "c1", TASKLET, ts=1.5, workflow="c1/wf-1"
        )
        assert journal.replay().workflow_node_state("c1/wf-1:a") == "running"
        journal.record_complete(make_completion("c1/wf-1:a"))
        assert journal.replay().workflow_node_state("c1/wf-1:a") == "done"
        journal.record_complete(make_completion("c1/wf-1:b", ok=False, value=None))
        assert journal.replay().workflow_node_state("c1/wf-1:b") == "failed"
        journal.close()

    def test_compact_preserves_pending_workflow_state(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "wj.jsonl"))
        journal.record_workflow_admitted("c1/wf-1", "c1", WF_SPEC, ts=1.0)
        journal.record_admitted(
            "c1/wf-1:a", "c1", TASKLET, ts=1.5, workflow="c1/wf-1"
        )
        journal.record_admitted(
            "c1/wf-1:b", "c1", dict(TASKLET, tasklet_id="b"), ts=1.6,
            workflow="c1/wf-1",
        )
        journal.record_complete(make_completion("c1/wf-1:a"))
        # Unrelated retired work that compaction is free to drop.
        journal.record_admitted("c1/tl-old", "c1", TASKLET, ts=0.5)
        journal.record_complete(make_completion("c1/tl-old"))
        journal.compact()
        snapshot = journal.replay()
        journal.close()
        assert snapshot.pending_workflow_keys == ["c1/wf-1"]
        # The done node's completion survives (recovery needs it); the
        # unfinished node's admission survives; the retired tasklet's
        # admission is gone.
        assert "c1/wf-1:a" in snapshot.completions
        admitted = [
            json.loads(line)["key"]
            for line in (tmp_path / "wj.jsonl").read_text().splitlines()
            if json.loads(line)["kind"] == "admitted"
        ]
        assert admitted == ["c1/wf-1:b"]
        assert [r["key"] for r in snapshot.workflow_nodes] == ["c1/wf-1:b"]
        assert snapshot.workflow_node_state("c1/wf-1:a") == "done"
        assert snapshot.workflow_node_state("c1/wf-1:b") == "running"

    def test_compact_drops_finished_workflow_nodes(self, tmp_path):
        journal = WorkJournal(str(tmp_path / "wj.jsonl"))
        journal.record_workflow_admitted("c1/wf-1", "c1", WF_SPEC, ts=1.0)
        journal.record_admitted(
            "c1/wf-1:a", "c1", TASKLET, ts=1.5, workflow="c1/wf-1"
        )
        journal.record_complete(make_completion("c1/wf-1:a"))
        journal.record_workflow_complete(
            "c1/wf-1", WorkflowOutcome("wf-1", ok=True), ts=2.0
        )
        journal.compact()
        snapshot = journal.replay()
        journal.close()
        assert snapshot.workflows == []
        assert snapshot.workflow_nodes == []  # graph retired, nodes dropped
        assert "c1/wf-1" in snapshot.workflow_completions


# -- every line is opened by its kind's declaration, or counted malformed --------


ADMITTED = {"kind": "admitted", "key": "c1/tl-1", "consumer_id": "c1", "ts": 1.0, "tasklet": TASKLET}
COMPLETE = dict(make_completion().to_dict(), kind="complete")
WF_COMPLETE = {"kind": "wf_complete", "key": "c1/wf-1", "ts": 2.0,
               "outcome": {"workflow_id": "wf-1", "ok": True}}


@pytest.mark.parametrize(
    "line",
    [
        # ``bool("false")`` is True: this line used to replay as a success.
        pytest.param(_line(**{**COMPLETE, "ok": "false"}), id="complete-ok-is-the-string-false"),
        pytest.param(_line(**{**COMPLETE, "ok": 1}), id="complete-ok-is-an-int"),
        pytest.param(_line(**{**COMPLETE, "attempts": "3"}), id="complete-attempts-is-a-str"),
        pytest.param(_line(**{**COMPLETE, "cost": None}), id="complete-cost-is-null"),
        pytest.param(_line(**{**COMPLETE, "key": 7}), id="complete-key-is-an-int"),
        pytest.param(
            _line(**{k: v for k, v in COMPLETE.items() if k != "consumer_id"}),
            id="complete-without-consumer",
        ),
        # An outcome that is not an object used to be skipped silently at recovery.
        pytest.param(_line(**{**WF_COMPLETE, "outcome": "ok"}), id="wf_complete-outcome-is-a-str"),
        pytest.param(_line(**{**WF_COMPLETE, "outcome": None}), id="wf_complete-outcome-is-null"),
        pytest.param(
            _line(**{**WF_COMPLETE, "outcome": {"workflow_id": "wf-1", "ok": "true"}}),
            id="wf_complete-outcome-ok-is-a-str",
        ),
        pytest.param(_line(**{**WF_COMPLETE, "outcome": {"ok": True}}), id="wf_complete-outcome-unnamed"),
        pytest.param(_line(**{**ADMITTED, "tasklet": "x"}), id="admitted-tasklet-is-a-str"),
        pytest.param(_line(**{**ADMITTED, "tasklet": {"entry": "main"}}), id="admitted-tasklet-unnamed"),
        pytest.param(_line(**{**ADMITTED, "origin": 7}), id="admitted-origin-is-an-int"),
        pytest.param(_line(**{**ADMITTED, "consumer_id": None}), id="admitted-consumer-is-null"),
        pytest.param(_line(**{**ADMITTED, "ts": "now"}), id="admitted-ts-is-a-str"),
        pytest.param(
            _line(kind="wf_admitted", key="c1/wf-1", consumer_id="c1", ts=1.0, workflow=[]),
            id="wf_admitted-workflow-is-a-list",
        ),
        pytest.param(_line(kind=["admitted"], key="c1/tl-1"), id="kind-is-a-list"),
        pytest.param(_line(key="c1/tl-1"), id="no-kind"),
        pytest.param("[1, 2]", id="line-is-a-list"),
        pytest.param("7", id="line-is-an-int"),
    ],
)
def test_a_line_that_does_not_read_as_its_kind_is_malformed(tmp_path, line):
    path = tmp_path / "j.jsonl"
    path.write_text("\n".join([_line(**ADMITTED), line, _line(**WF_COMPLETE)]) + "\n")
    snapshot = replay_journal(str(path))
    assert snapshot.malformed == 1
    assert snapshot.completions == {}  # in particular: no success out of "false"
    assert keys(snapshot.pending) == ["c1/tl-1"] and list(snapshot.workflow_completions) == ["c1/wf-1"]


def test_lines_are_typed_and_read_like_the_dicts_on_disk(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text(_line(**ADMITTED, origin="b2", from_the_future=1) + "\n" + _line(**WF_COMPLETE) + "\n")
    snapshot = replay_journal(str(path))
    (entry,) = snapshot.pending
    assert (entry.key, entry.consumer_id, entry.ts, entry.origin, entry.workflow) == (
        "c1/tl-1", "c1", 1.0, "b2", ""
    )
    assert entry.tasklet == TASKLET and entry["tasklet"] is entry.tasklet
    assert entry.to_dict() == {**ADMITTED, "origin": "b2"}  # (``workflow`` stays out while empty)
    assert snapshot.workflow_completions["c1/wf-1"]["outcome"]["ok"] is True


# -- journals written by older builds ------------------------------------------------

FIXTURES = Path(__file__).parent

#: ``parent_journal.raw.jsonl`` was written by the commit before the record
#: grammar (a federated ``BrokerCore`` on a ``VirtualClock``: an ok, a failed
#: and a pending tasklet, one forwarded in by a peer, a finished workflow and
#: one in flight with a node done and a node running): programs are dicts,
#: arguments lists, results JSON values.  ``pr22_journal.raw.jsonl`` was
#: written by the commit before values travelled packed (programs already
#: bytes): a 1,024-int echo, a void and a failed tasklet, a finished workflow,
#: one in flight with a node done and a node running, and a pending tasklet.
#: Neither is ever regenerated.
RAW_JOURNALS = ["parent_journal.raw.jsonl", "pr22_journal.raw.jsonl"]


def test_a_journal_the_parent_commit_wrote_replays_and_compacts_as_it_did(tmp_path):
    """``.snapshot.json`` is what the commit that wrote
    ``parent_journal.raw.jsonl`` read back with its ``replay_journal`` (lines
    as the raw dicts it kept) and ``.compacted.jsonl`` what its ``compact()``
    left — both regenerated by the commit that made a program travel packed
    and again by the one that made values do, which
    :func:`test_an_older_builds_journal_is_upgraded_line_by_line` holds to
    changing ``program``, its stamps, ``args``, ``value`` and ``outputs``
    only, each to the packed form of what is on disk.  Same snapshot, same
    bytes."""
    expected = loads((FIXTURES / "parent_journal.snapshot.json").read_bytes())
    path = tmp_path / "journal.jsonl"
    path.write_bytes((FIXTURES / "parent_journal.raw.jsonl").read_bytes())
    snapshot = replay_journal(str(path))
    assert snapshot.malformed == 0

    def rendered(snapshot):
        return {
            **{name: getattr(snapshot, name) for name in (
                "admitted", "completed", "malformed", "workflows_admitted", "workflows_completed"
            )},
            "pending": [entry.to_dict() for entry in snapshot.pending],
            "completions": [c.to_dict() for c in snapshot.completions.values()],
            "workflows": [entry.to_dict() for entry in snapshot.workflows],
            "workflow_nodes": [entry.to_dict() for entry in snapshot.workflow_nodes],
            "workflow_completions": [e.to_dict() for e in snapshot.workflow_completions.values()],
        }

    assert rendered(snapshot) == expected
    assert [(c.key, c.ok) for c in snapshot.completions.values()][:2] == [
        ("c1/tl-ok", True), ("c1/tl-bad", False)
    ]
    journal = WorkJournal(str(path))
    journal.compact()
    compacted = (FIXTURES / "parent_journal.compacted.jsonl").read_bytes()
    assert path.read_bytes() == compacted
    journal.compact()  # and what is compact stays as it is, byte for byte
    journal.close()
    assert path.read_bytes() == compacted


def _without_upgraded(line: dict) -> tuple[dict, list, list]:
    """``line`` with everything an upgrade may touch taken out, and — apart
    — the programs it carries (in the order its stamps name them) and the
    values (arguments, a result, workflow outputs; ``...`` = none)."""
    line = copy.deepcopy(line)
    tasklet, workflow, outcome = line.get("tasklet"), line.get("workflow"), line.get("outcome")
    if type(tasklet) is dict:
        programs = [(tasklet.pop("program_fingerprint"), tasklet.pop("program"))]
        return line, programs, [tasklet.pop("args")]
    if type(workflow) is dict:
        table = workflow.pop("programs")
        return line, [(node["program_fingerprint"], table[node.pop("program_fingerprint")])
                      for node in workflow["nodes"]], []
    if type(outcome) is dict:
        return line, [], [value for _sink, value in sorted(outcome.pop("outputs").items())]
    failed = line["kind"] == "complete" and not line["ok"] and line["value"] is None
    return line, [], [... if failed else line.pop("value")]


def test_an_older_builds_journal_is_upgraded_line_by_line(tmp_path):
    """Every line of an older journal reads, as this build reads it, to the
    line on disk — but for each program a build journalled as its document,
    now the packed form of that document, and its stamps (a tasklet's, a
    node's, a table key), now the hash of those bytes, never the old one;
    and for each argument list, result and workflow output, now the packed
    form of the JSON value on disk (a failure's ``null`` stays no value, a
    success's is a void result)."""
    for name in RAW_JOURNALS:
        raw = (FIXTURES / name).read_text().splitlines()
        values_seen = 0
        for text in raw:
            on_disk, read = loads(text.encode()), loads(_encode(_read_line(text)).encode())
            (rest_before, before, values_before) = _without_upgraded(on_disk)
            (rest_after, after, values_after) = _without_upgraded(read)
            assert rest_after == rest_before
            assert len(after) == len(before) and len(values_after) == len(values_before)
            for (old_stamp, program), (stamp, blob) in zip(before, after):
                if type(program) is dict:
                    assert CompiledProgram.from_packed(blob) == CompiledProgram.from_dict(program)
                    assert stamp == checked_stamp(blob) != old_stamp
                else:
                    assert (stamp, blob) == (old_stamp, program)
            for value, blob in zip(values_before, values_after):
                values_seen += 1
                assert (blob is ...) if value is ... else (type(blob) is bytes and opened(blob) == value)
        assert sum("program" in text for text in raw) >= 9 and values_seen >= 11  # (both were seen)
        # What this build writes, it reads back as written: nothing is upgraded twice.
        path = tmp_path / name
        path.write_text("\n".join(raw) + "\n")
        WorkJournal(str(path)).compact()
        for text in path.read_text().splitlines():
            assert _encode(_read_line(text)) == text + "\n"
            if '"kind":"wf_admitted"' not in text:  # (a node's ``args`` is a template, not a value)
                assert '"args":[' not in text and '"value":[' not in text


_RECOVERED = [
    (
        "parent_journal.raw.jsonl",
        ["c2/tl-pending", "c2/wf-live:b"],
        ["c1/tl-bad", "c1/tl-ok", "c1/wf-done:a", "c1/wf-done:b", "c2/wf-live:a"],
        (["c2/wf-live"], ["c1/wf-done"]),
        {"tl-pending": 2, "wf-live:b": 12},
    ),
    (
        "pr22_journal.raw.jsonl",
        ["c2/tl-pending", "c2/wf-live:b"],
        ["c1/tl-array", "c1/tl-bad", "c1/tl-void", "c1/wf-done:only", "c2/wf-live:a"],
        (["c2/wf-live"], ["c1/wf-done"]),
        {"tl-pending": 6, "wf-live:b": 4},
    ),
]


def test_what_an_older_build_left_pending_runs_to_the_same_value(tmp_path):
    for case in _RECOVERED:
        _recovers_and_runs(tmp_path, *case)


def _recovers_and_runs(tmp_path, name, pending, completed, workflows, values):
    """A broker of this build recovers an older journal: the same
    completions, the same pending work — and each pending tasklet, run by
    a real executor on the bytes the broker sends, gives what the program
    and arguments on disk give on the portable VM."""
    path = tmp_path / name
    path.write_bytes((FIXTURES / name).read_bytes())
    on_disk = {line["key"]: line for line in map(loads, path.read_bytes().splitlines())}
    clock = VirtualClock()
    broker = BrokerCore(clock, journal=WorkJournal(str(path)))
    assert sorted(broker._tasklets) == pending and sorted(broker.durability.tasklet_outcomes) == completed
    assert (list(broker.workflows.active), list(broker.durability.workflow_outcomes)) == workflows
    for key in completed:  # what was journalled as a JSON value is delivered as its bytes
        stored, line = broker.durability.tasklet_outcomes[key].value, on_disk[key]
        assert stored is None if not line["ok"] else opened(stored) == line["value"]
    register = RegisterProvider(provider_id="p1", device_class="d", capacity=4, benchmark_score=1e6)
    out = broker.handle(register.envelope(NodeId("p1"), broker.node_id))
    assignments = [body_of(envelope) for envelope in out if envelope.type == "assign_execution"]
    assert len(assignments) == 2
    executor, ran = TaskletExecutor(), {}
    for assignment in assignments:
        outcome = executor.execute(assignment)
        assert outcome.ok, outcome.error
        line = on_disk[f"c2/{assignment.tasklet_id}"]["tasklet"]
        program = line["program"]
        program = CompiledProgram.from_dict(program) if type(program) is dict else CompiledProgram.from_packed(program)
        assert outcome.value == TVM(program, seed=line["seed"]).run(line["entry"], list(line["args"]))
        ran[assignment.tasklet_id] = outcome.value
        result = ExecutionResult(
            assignment.execution_id, assignment.tasklet_id, "p1", "success", packed(outcome.value),
            instructions=outcome.instructions, finished_at=1.0,
        )
        out.extend(broker.handle(result.envelope(NodeId("p1"), broker.node_id)))
    broker.durability.journal.close()
    assert ran == values
    assert (executor.cache_misses, executor.cache_hits) == (1, 1)  # one program, re-stamped alike
    finished = {envelope.type: envelope.payload for envelope in out}
    assert opened(finished["tasklet_complete"]["value"]) == values["tl-pending"]
    assert finished["workflow_complete"]["outputs"] == {"b": packed(values["wf-live:b"])}


def test_a_completion_an_older_build_journalled_is_redelivered_as_its_bytes(tmp_path):
    """The 1,024-int result the parent journalled as a JSON list: a resubmit
    of that tasklet after recovery is answered with its packed form, the
    same object every time, and compaction writes it that way."""
    path = tmp_path / "journal.jsonl"
    path.write_bytes((FIXTURES / "pr22_journal.raw.jsonl").read_bytes())
    admitted, complete = [loads(line) for line in path.read_bytes().splitlines()[:2]]
    assert admitted["key"] == complete["key"] == "c1/tl-array" and len(complete["value"]) == 1024
    broker = BrokerCore(VirtualClock(), journal=WorkJournal(str(path)))
    resubmit = {**admitted["tasklet"], "args": packed(admitted["tasklet"]["args"])}
    answers = []
    for _ in range(2):
        out = broker.handle(Envelope("submit_tasklet", NodeId("c1"), broker.node_id, {"tasklet": resubmit}))
        answers.append(next(e.payload["value"] for e in out if e.type == "tasklet_complete"))
    assert answers[0] is answers[1] is broker.durability.tasklet_outcomes["c1/tl-array"].value
    assert opened(answers[0]) == complete["value"] and broker.stats.executions_issued == 0
    broker.durability.journal.compact()
    broker.durability.journal.close()
    (line,) = [text for text in path.read_text().splitlines() if '"c1/tl-array"' in text]
    assert '"value":{"__b__":' in line and len(line) < 6000
    assert _read_line(line).value is not None and opened(_read_line(line).value) == complete["value"]
