"""Only an execution's assignee may end it (docs/PROTOCOL.md, "Who may
answer").

A result or a rejection names its execution by id; the broker knows which
provider it placed that execution on.  One that arrives from any other
peer — whatever ``provider_id`` its body claims — is refused before
anything is released: counted as unreadable (``messages_unreadable``, and
a ``message_unreadable`` event naming both ids), answered with nothing,
and the execution stays outstanding for its assignee or its horizon.
"""

import dataclasses

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.scheduling import LeastLoadedStrategy
from repro.common.serde import opened, packed
from repro.obs import Telemetry
from repro.transport.message import (
    AssignExecution,
    ExecutionRejected,
    ExecutionResult,
    TaskletComplete,
)

from .test_broker_core import Harness, bodies


def test_a_result_or_rejection_from_a_non_assignee_is_refused_and_counted():
    """Fails on the parent: a result was matched to its execution by id
    alone, so a second registered provider could answer the first one's
    execution with a value of its choosing — and the consumer got it."""
    harness = Harness()
    telemetry = Telemetry()
    harness.broker = BrokerCore(
        clock=harness.clock,
        strategy=LeastLoadedStrategy(),
        config=BrokerConfig(execution_timeout=None),
        telemetry=telemetry,
    )
    broker = harness.broker
    harness.add_provider("p1", capacity=1)
    harness.add_provider("p2", capacity=1)
    _tasklet_id, out = harness.submit(args=[21])
    ((assignee, assign),) = [(dst, body) for dst, body in out if isinstance(body, AssignExecution)]
    imposter = "p2" if assignee == "p1" else "p1"
    records = {p: dataclasses.replace(broker.registry.get(p)) for p in ("p1", "p2")}

    def forged_result(claimed):
        return ExecutionResult(
            execution_id=assign.execution_id, tasklet_id=assign.tasklet_id,
            provider_id=claimed, status="success", value=packed(666),
            instructions=5, started_at=0.0, finished_at=1.0,
        )

    forgeries = [
        forged_result(imposter),
        forged_result(str(assignee)),  # claiming to be the assignee changes nothing
        ExecutionRejected(
            execution_id=assign.execution_id, tasklet_id=assign.tasklet_id,
            provider_id=str(assignee),
        ),
    ]
    for forged in forgeries:
        assert harness.send(forged, src=imposter) == []
    assert broker.stats.messages_unreadable == len(forgeries)
    assert broker.stats.executions_succeeded == broker.stats.executions_failed == 0
    assert broker.executions.tasklet_of(assign.execution_id) is not None  # still outstanding
    assert {p: broker.registry.get(p) for p in ("p1", "p2")} == records
    events = telemetry.events.events(kind="message_unreadable")
    assert len(events) == len(forgeries)
    assert all(event.node == imposter for event in events)
    assert all(
        f"{imposter} answered {assign.execution_id}, assigned to {assignee}" == event.attrs["reason"]
        for event in events
    )
    # The assignee's own answer still decides the tasklet.
    (complete,) = bodies(harness.complete(assign, value=42, provider=str(assignee)), TaskletComplete)
    assert complete.ok and opened(complete.value) == 42
