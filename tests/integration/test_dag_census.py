"""What a DAG node costs on the wire: one assignment and one result.

A consumer core, a broker core and a provider's executor joined by the
real codec (the sans-IO ``Cluster`` of ``test_code_as_bytes``), recording
every envelope the broker sends.  A released node is one
``assign_execution`` to a provider and one ``execution_result`` back; the
consumer hears about its workflow once, in the ``workflow_complete``.
"""

from collections import Counter

from repro.common.errors import WorkflowFailed
from repro.dag import WorkflowBuilder
from repro.dag.patterns import reference_values, stencil
from repro.dag.spec import from_node

from tests.integration.test_code_as_bytes import Cluster

SQUARE = "func main(n: int) -> int { return n * n; }"
#: Deterministic runtime failure: out-of-bounds array read.
BAD = "func main(n: int) -> int { var a: array = array(1); return int(a[5]); }"


class Census(Cluster):
    """Counts what the broker sends, by receiver and message type."""

    def __init__(self):
        self.sent: Counter[tuple[str, str]] = Counter()
        super().__init__()

    def _wire(self, envelope, sender):
        if sender == "broker":
            self.sent[str(envelope.dst), envelope.type] += 1
        return super()._wire(envelope, sender)

    def run(self, spec):
        handle, envelopes = self.consumer.submit_workflow(spec)
        for envelope in envelopes:
            self.deliver(envelope)
        return handle


def test_a_stencil_node_is_one_assignment_and_the_workflow_one_answer():
    spec = stencil(8, 8)
    census = Census()
    handle = census.run(spec)
    reference = reference_values(spec)
    assert handle.result(0) == {sink: reference[sink] for sink in spec.sinks()}
    assert len(spec.nodes) == 64
    assert census.sent == {
        ("c1", "workflow_complete"): 1,
        ("p1", "register_ack"): 1,
        ("p1", "assign_execution"): 64,
    }


def test_a_failing_node_is_named_once_on_the_workflows_failure():
    builder = WorkflowBuilder("doomed")
    builder.node(SQUARE, args=[3], node_id="src")
    builder.node(BAD, args=[from_node("src")], node_id="bad")
    builder.node(SQUARE, args=[from_node("bad")], node_id="mid")
    builder.node(SQUARE, args=[from_node("mid")], node_id="sink")
    census = Census()
    handle = census.run(builder.build())
    failure = handle.exception(0)
    assert isinstance(failure, WorkflowFailed)
    # Which node failed, with its error, and what it left unrun.
    assert failure.node_id == "bad"
    assert failure.dependents == ["mid", "sink"]
    assert "VMIndexError" in str(failure)
    assert census.sent == {
        ("c1", "workflow_complete"): 1,
        ("p1", "register_ack"): 1,
        ("p1", "assign_execution"): 2,
    }
