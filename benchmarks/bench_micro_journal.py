"""Microbenchmark guarding the cost of work-journal durability modes.

The journal's default mode buffers appends through the OS page cache; the
opt-in ``fsync=True`` mode forces every record to stable storage before
returning.  Two claims are kept honest:

1. *The default path does not pay for the feature.*  ``fsync=False``
   appends must stay cheap in absolute terms — a tripwire against the
   durability knob leaking synchronous work into the common case.
2. *The durability cost is opt-in.*  ``fsync=True`` is expected to be
   substantially slower (that is the point — it buys crash-consistency
   on power loss), and we assert the *default* mode is at least as fast
   as the synced mode; if the two converge from the wrong side, the
   default path regressed.
"""

import time

from repro.broker.journal import CompletionRecord, WorkJournal, replay_journal
from repro.common.serde import packed
from repro.core import kernels
from repro.core.tasklet import Tasklet
from repro.tvm.compiler import compile_source

TASKLET = {"tasklet_id": "tl", "entry": "main", "args": packed([7])}
RECORDS = 400


def append_records(journal, count=RECORDS):
    for n in range(count):
        key = f"c1/tl-{n}"
        journal.record_admitted(key, "c1", TASKLET, ts=float(n))
        journal.record_complete(
            CompletionRecord(
                key=key, tasklet_id=f"tl-{n}", consumer_id="c1",
                ok=True, value=packed(n), attempts=1, completed_at=float(n),
            )
        )


def timed_run(path, fsync):
    journal = WorkJournal(str(path), fsync=fsync)
    start = time.perf_counter()
    append_records(journal)
    elapsed = time.perf_counter() - start
    journal.close()
    return elapsed


def test_default_mode_append_throughput(tmp_path):
    """Buffered appends must sustain a floor rate (absolute tripwire)."""
    best = min(
        timed_run(tmp_path / f"buffered-{n}.jsonl", fsync=False)
        for n in range(3)
    )
    rate = 2 * RECORDS / best
    assert rate > 5_000, f"buffered journal appends at {rate:.0f} rec/s"


def test_fsync_cost_is_opt_in(tmp_path):
    """The default mode must never be slower than the synced mode."""
    buffered = best_synced = float("inf")
    for n in range(3):  # interleave to average out drift
        buffered = min(
            buffered, timed_run(tmp_path / f"b-{n}.jsonl", fsync=False)
        )
        best_synced = min(
            best_synced, timed_run(tmp_path / f"s-{n}.jsonl", fsync=True)
        )
    assert buffered <= best_synced * 1.05, (
        f"default journal mode ({buffered * 1e3:.1f}ms) slower than "
        f"fsync mode ({best_synced * 1e3:.1f}ms): the opt-in durability "
        f"cost leaked into the default path"
    )


def test_record_admitted_prime_count(tmp_path):
    """One ``admitted`` line for a ``coarse_vm`` tasklet: its program is
    bytes the journal base64s, not a document it walks.  Informational
    (printed with ``-s``)."""
    tasklet = Tasklet("tl", compile_source(kernels.PRIME_COUNT), "main", [1000]).to_dict()
    journal = WorkJournal(str(tmp_path / "admitted.jsonl"))
    start = time.perf_counter()
    for n in range(RECORDS):
        journal.record_admitted(f"c1/tl-{n}", "c1", tasklet, ts=float(n))
    elapsed = time.perf_counter() - start
    snapshot = journal.replay()
    journal.close()
    assert snapshot.malformed == 0 and snapshot.pending[0].tasklet == tasklet
    print(f"\nrecord_admitted[prime_count]: {elapsed / RECORDS * 1e6:.1f} us/line")


def test_replay_10k_lines(tmp_path):
    """Replay of a 10,000-line journal: every line looked up by kind and
    opened by its record.  Informational (printed with ``-s``), with a
    generous absolute floor as the tripwire."""
    path = tmp_path / "replay.jsonl"
    journal = WorkJournal(str(path))
    append_records(journal, count=5_000)
    journal.close()
    start = time.perf_counter()
    snapshot = replay_journal(str(path))
    elapsed = time.perf_counter() - start
    assert (snapshot.admitted, snapshot.completed, snapshot.malformed) == (5_000, 5_000, 0)
    assert snapshot.pending == []
    print(f"\nreplay: 10000 lines in {elapsed * 1e3:.1f} ms ({elapsed * 1e2:.2f} us/line)")
    assert elapsed < 2.0, f"replay of 10k lines took {elapsed:.2f}s"
