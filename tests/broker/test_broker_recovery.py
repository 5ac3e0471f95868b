"""Crash recovery and result memoization in the broker core.

Restart is modeled by constructing a second BrokerCore over the same
journal file — exactly what TcpBroker does — and asserting that pending
work is re-admitted, completed work is re-delivered (never re-executed),
and identical computations are served from the result cache.
"""

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.journal import WorkJournal
from repro.broker.scheduling import LeastLoadedStrategy
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import opened, packed
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.transport.message import (
    AssignExecution,
    ExecutionResult,
    RegisterProvider,
    SubmitAck,
    SubmitTasklet,
    TaskletComplete,
    body_of,
)
from repro.tvm.compiler import compile_source

PROGRAM = compile_source("func main(x: int) -> int { return x + 1; }")


class Harness:
    """One broker incarnation over an (optional) journal file."""

    def __init__(self, journal_path=None, config=None):
        self.clock = VirtualClock()
        self.journal = WorkJournal(str(journal_path)) if journal_path else None
        self.broker = BrokerCore(
            clock=self.clock,
            strategy=LeastLoadedStrategy(),
            config=config or BrokerConfig(execution_timeout=None),
            journal=self.journal,
        )

    def send(self, body, src):
        envelopes = self.broker.handle(body.envelope(NodeId(src), self.broker.node_id))
        return [(e.dst, body_of(e)) for e in envelopes]

    def register(self, name="p1", capacity=2):
        return self.send(
            RegisterProvider(
                provider_id=name,
                device_class="desktop",
                capacity=capacity,
                benchmark_score=1e6,
            ),
            src=name,
        )

    def submit(self, tasklet_id, args=None, seed=0, consumer="c1", qoc=None):
        tasklet = Tasklet(
            tasklet_id=TaskletId(tasklet_id),
            program=PROGRAM,
            entry="main",
            args=args or [7],
            qoc=qoc or QoC(),
            seed=seed,
        )
        return self.send(SubmitTasklet(tasklet=tasklet.to_dict()), src=consumer)

    def complete(self, assign, value=8, provider="p1"):
        result = ExecutionResult(
            execution_id=assign.execution_id,
            tasklet_id=assign.tasklet_id,
            provider_id=provider,
            status="success",
            value=packed(value),
            instructions=1000,
            started_at=self.clock.now(),
            finished_at=self.clock.now() + 0.5,
        )
        return self.send(result, src=provider)

    def close(self):
        if self.journal is not None:
            self.journal.close()


def bodies(messages, body_type):
    return [body for _dst, body in messages if isinstance(body, body_type)]


class TestJournalRecovery:
    def test_pending_tasklet_survives_restart(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = Harness(path)
        first.submit("tl-1")  # no providers: replica queues in the backlog
        assert first.broker.pending_tasklets == 1
        first.close()  # crash: no completion ever happened

        second = Harness(path)
        assert second.broker.stats.tasklets_recovered == 1
        assert second.broker.pending_tasklets == 1
        # A provider joining the new incarnation receives the recovered work.
        replies = second.register()
        assigns = bodies(replies, AssignExecution)
        assert len(assigns) == 1 and assigns[0].tasklet_id == "tl-1"
        completions = bodies(second.complete(assigns[0]), TaskletComplete)
        assert completions[0].ok and opened(completions[0].value) == 8
        second.close()

    def test_completed_tasklet_not_rerun_after_restart(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = Harness(path)
        first.register()
        assigns = bodies(first.submit("tl-1"), AssignExecution)
        first.complete(assigns[0], value=99)
        first.close()

        second = Harness(path)
        assert second.broker.stats.tasklets_recovered == 0
        assert second.broker.pending_tasklets == 0
        # The consumer reconnects and resubmits the same id: the
        # journalled outcome is re-delivered with zero executions issued.
        replies = second.submit("tl-1")
        assert bodies(replies, SubmitAck) == []  # the completion is the answer
        completions = bodies(replies, TaskletComplete)
        assert completions[0].ok and opened(completions[0].value) == 99
        assert completions[0].executions == []
        assert second.broker.stats.executions_issued == 0
        assert second.broker.stats.completions_redelivered == 1
        second.close()

    def test_recovery_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = Harness(path)
        first.submit("tl-1")
        first.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"admitted","key":"c1/tl-2"')  # torn write
        second = Harness(path)
        assert second.broker.stats.tasklets_recovered == 1
        second.close()

    def test_redelivery_without_restart(self, tmp_path):
        harness = Harness(tmp_path / "journal.jsonl")
        harness.register()
        assigns = bodies(harness.submit("tl-1"), AssignExecution)
        harness.complete(assigns[0], value=5)
        issued = harness.broker.stats.executions_issued
        replies = harness.submit("tl-1")
        completions = bodies(replies, TaskletComplete)
        assert completions[0].ok and opened(completions[0].value) == 5
        assert harness.broker.stats.executions_issued == issued
        harness.close()


class TestMemoization:
    def test_identical_computation_served_from_cache(self):
        harness = Harness()  # memoization needs no journal
        harness.register()
        assigns = bodies(harness.submit("tl-1", seed=3), AssignExecution)
        harness.complete(assigns[0], value=123)
        issued = harness.broker.stats.executions_issued

        # A *different* tasklet id, same computation: instant completion.
        replies = harness.submit("tl-2", seed=3)
        completions = bodies(replies, TaskletComplete)
        assert bodies(replies, SubmitAck) == []  # the completion is the answer
        assert completions[0].ok and opened(completions[0].value) == 123
        assert completions[0].attempts == 0
        assert completions[0].executions == []
        assert harness.broker.stats.executions_issued == issued
        assert harness.broker.stats.memo_hits == 1
        assert harness.broker.pending_tasklets == 0

    def test_different_seed_misses(self):
        harness = Harness()
        harness.register()
        assigns = bodies(harness.submit("tl-1", seed=3), AssignExecution)
        harness.complete(assigns[0])
        replies = harness.submit("tl-2", seed=4)
        assert bodies(replies, AssignExecution)  # executed, not served
        assert harness.broker.stats.memo_hits == 0
        assert harness.broker.stats.memo_misses == 2

    def test_failed_outcomes_not_memoized(self):
        harness = Harness()
        harness.register()
        assigns = bodies(
            harness.submit("tl-1", seed=3, qoc=QoC(max_attempts=1)), AssignExecution
        )
        failure = ExecutionResult(
            execution_id=assigns[0].execution_id,
            tasklet_id=assigns[0].tasklet_id,
            provider_id="p1",
            status="vm_error",
            error="boom",
        )
        harness.send(failure, src="p1")
        assert harness.broker.stats.tasklets_failed == 1
        # The same computation under a new id executes again.
        replies = harness.submit("tl-2", seed=3)
        assert bodies(replies, AssignExecution)
        assert harness.broker.stats.memo_hits == 0

    def test_memoized_results_survive_restart_via_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = Harness(path)
        first.register()
        assigns = bodies(first.submit("tl-1", seed=3), AssignExecution)
        first.complete(assigns[0], value=77)
        first.close()

        second = Harness(path)
        # New id, same computation, fresh incarnation: served from the
        # cache warmed during journal replay.
        replies = second.submit("tl-9", seed=3)
        completions = bodies(replies, TaskletComplete)
        assert completions[0].ok and opened(completions[0].value) == 77
        assert second.broker.stats.executions_issued == 0
        second.close()


class TestAutoCompactionWiring:
    def test_completions_trigger_compaction_and_event(self, tmp_path):
        from repro.obs import Telemetry

        journal = WorkJournal(
            str(tmp_path / "wj.jsonl"), auto_compact_records=4
        )
        telemetry = Telemetry()
        clock = VirtualClock()
        broker = BrokerCore(
            clock=clock,
            strategy=LeastLoadedStrategy(),
            config=BrokerConfig(execution_timeout=None),
            journal=journal,
            telemetry=telemetry,
        )

        def send(body, src):
            return [
                (e.dst, body_of(e))
                for e in broker.handle(body.envelope(NodeId(src), broker.node_id))
            ]

        send(
            RegisterProvider(
                provider_id="p1", device_class="desktop",
                capacity=4, benchmark_score=1e6,
            ),
            src="p1",
        )
        for n in range(3):
            tasklet = Tasklet(
                tasklet_id=TaskletId(f"tl-{n}"), program=PROGRAM,
                entry="main", args=[n], qoc=QoC(),
            )
            out = send(SubmitTasklet(tasklet=tasklet.to_dict()), src="c1")
            assign = next(
                body for _, body in out if isinstance(body, AssignExecution)
            )
            send(
                ExecutionResult(
                    execution_id=assign.execution_id,
                    tasklet_id=assign.tasklet_id,
                    provider_id="p1",
                    status="success",
                    value=packed(n + 1),
                    instructions=1000,
                    started_at=clock.now(),
                    finished_at=clock.now(),
                ),
                src="p1",
            )
        # 3 admissions + 3 completions crossed the 4-record threshold.
        assert broker.stats.journal_compactions >= 1
        events = telemetry.events.events(kind="journal_compacted")
        assert events
        assert events[-1].attrs["pending"] == 0
        assert events[-1].attrs["bytes_after"] <= events[-1].attrs["bytes_before"]
        journal.close()
