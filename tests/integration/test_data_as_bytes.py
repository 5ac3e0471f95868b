"""Data crosses the broker as bytes.

The cluster of :mod:`tests.integration.test_code_as_bytes` — a consumer
core, a broker core and a provider's executor joined by the real codecs —
with the broker's ``handle`` watched: which functions that build or walk a
value run inside it (counted by code object), and whether what it sends on
is the object that arrived.  After the first tasklet of a program: none,
and it is.
"""

import json
import sys
from collections import Counter

import pytest

from repro.broker.journal import WorkJournal, _read_line
from repro.common import serde
from repro.common.serde import opened, packed
from repro.dag.patterns import reference_values, stencil
from repro.dag.spec import WorkflowBuilder, gather
from repro.transport.codec import CODEC_BINARY, CODEC_JSON
from repro.tvm.compiler import compile_source
from repro.tvm.vm import is_tasklet_value

from tests.integration.test_code_as_bytes import Cluster

ECHO = compile_source("func main(a: array) -> array { return a; }")
#: Everything that builds a value from bytes, walks one, or writes one out.
WATCHED = {
    function.__code__: name
    for name, function in {
        "unpack_value": serde.unpack_value,
        "pack_value": serde.pack_value,
        "_pack_array": serde._pack_array,
        "encode_value": serde.encode_value,
        "is_tasklet_value": is_tasklet_value,
        "json.dumps": json.dumps,
    }.items()
}


class WatchedCluster(Cluster):
    """A cluster that counts, per inbound message type, the ``WATCHED``
    calls made inside ``BrokerCore.handle`` — and keeps what went in and
    what came out, to compare objects."""

    def __init__(self, codec, journal=None):
        super().__init__(codec, journal=journal)
        self.inside = Counter()
        self.handled = []  # (inbound envelope, outbound envelopes)
        handle = self.broker.handle

        def watched(envelope):
            def profiler(frame, event, _arg):
                if event == "call" and frame.f_code in WATCHED:
                    self.inside[envelope.type, WATCHED[frame.f_code]] += 1

            previous = sys.getprofile()
            sys.setprofile(profiler)
            try:
                out = handle(envelope)
            finally:
                sys.setprofile(previous)
            self.handled.append((envelope, out))
            return out

        self.broker.handle = watched


def array_of(first: int) -> list:
    return [first, *range(70_001, 71_024)]


@pytest.mark.parametrize("codec", [CODEC_BINARY, CODEC_JSON])
def test_a_steady_state_round_trip_builds_no_value_on_the_broker(codec):
    """submit → assign → result → complete of a 1,024-int echo: inside
    ``BrokerCore.handle`` nothing unpacks, packs, walks or JSON-encodes a
    value — on either codec, whose job ends where ``handle`` begins — and
    the arguments assigned, and the value completed, are the very objects
    the submit and the result delivered."""
    cluster = WatchedCluster(codec)
    assert cluster.submit([array_of(0)], program=ECHO) == [array_of(0)]
    cluster.inside.clear(), cluster.handled.clear()
    assert cluster.submit([array_of(1)], [array_of(2)], program=ECHO) == [array_of(1), array_of(2)]
    assert cluster.inside == {}
    by_type = {}
    for inbound, out in cluster.handled:
        by_type.setdefault(inbound.type, []).append((inbound, out))
    assert sorted(by_type) == ["execution_result", "submit_tasklet"]
    for submit, out in by_type["submit_tasklet"]:
        (assign,) = [sent for sent in out if sent.type == "assign_execution"]
        assert assign.payload["args"] is submit.payload["tasklet"]["args"]
        assert type(assign.payload["args"]) is bytes and len(assign.payload["args"]) < 4200
    for result, out in by_type["execution_result"]:
        (complete,) = [sent for sent in out if sent.type == "tasklet_complete"]
        assert complete.payload["value"] is result.payload["value"]
        assert all("value" not in record for record in complete.payload["executions"])
    # What the broker keeps is those bytes too: the completion, and the memo entry.
    kept = cluster.broker._completed["c1/tl-2"]
    assert kept.value is by_type["execution_result"][-1][0].payload["value"]
    assert cluster.broker.result_cache.get(kept.memo_key).value is kept.value
    assert cluster.broker.stats.memo_hits == 0


def test_a_repeat_is_answered_from_the_memo_with_the_bytes_that_were_stored():
    cluster = WatchedCluster(CODEC_BINARY)
    assert cluster.submit([array_of(5)], program=ECHO) == [array_of(5)]
    stored = cluster.broker._completed["c1/tl-0"].value
    cluster.inside.clear(), cluster.handled.clear()
    assert cluster.submit([array_of(5)], program=ECHO) == [array_of(5)]  # (another id, same work)
    assert cluster.inside == {} and cluster.broker.stats.memo_hits == 1
    ((_, out),) = cluster.handled
    assert [sent.payload["value"] for sent in out if sent.type == "tasklet_complete"] == [stored]
    assert out[-1].payload["value"] is stored and cluster.executor.cache_hits == 0
    # An argument that is equal and not the same — 1.0 for 1 — is another computation.
    assert cluster.submit([[5.0, *range(70_001, 71_024)]], program=ECHO) == [array_of(5)]
    assert cluster.broker.stats.memo_hits == 1


def test_the_journal_holds_the_bytes_and_replays_them(tmp_path):
    """With a journal the one thing written per message is its line —
    ``json.dumps`` of a dict whose values are base64, not item lists —
    and a broker recovering from it redelivers the same bytes."""
    path = tmp_path / "journal.jsonl"
    cluster = WatchedCluster(CODEC_BINARY, journal=WorkJournal(str(path)))
    assert cluster.submit([array_of(0)], program=ECHO) == [array_of(0)]
    cluster.inside.clear()
    assert cluster.submit([array_of(1)], program=ECHO) == [array_of(1)]
    assert cluster.inside == {
        ("submit_tasklet", "json.dumps"): 1,
        ("submit_tasklet", "encode_value"): 2,  # (the program's bytes, the arguments')
        ("execution_result", "json.dumps"): 1,
        ("execution_result", "encode_value"): 1,
    }
    cluster.broker.journal.close()
    lines = [_read_line(text) for text in path.read_text().splitlines()]
    assert [line.WHAT for line in lines] == ["admitted", "complete"] * 2
    assert [opened(line.tasklet["args"]) for line in lines[::2]] == [[array_of(0)], [array_of(1)]]
    assert [line.value for line in lines[1::2]] == [packed(array_of(0)), packed(array_of(1))]
    assert max(len(text) for text in path.read_text().splitlines()) < 7000
    recovered = WatchedCluster(CODEC_BINARY, journal=WorkJournal(str(path)))
    assert recovered.broker._completed["c1/tl-1"].value == packed(array_of(1))
    recovered.broker.journal.close()


def test_a_workflow_keeps_and_splices_its_node_outputs_unopened():
    """64 nodes: every released node's arguments are spliced from its
    predecessors' packed outputs (so its memo key is the one the same
    tasklet, submitted directly, would get), and the sinks' outputs are
    the bytes their providers sent."""
    cluster = WatchedCluster(CODEC_BINARY)
    spec = stencil(8, 8, work=3)
    with cluster.on("c1"):
        handle, envelopes = cluster.consumer.submit_workflow(spec)
    for envelope in envelopes:
        cluster.deliver(envelope)
    expected = reference_values(spec)
    assert handle.result(0) == {node_id: expected[node_id] for node_id in spec.sinks()}
    # As results come in, only a released node's literal arguments and the few
    # numbers of a ``$gather`` are ever packed; nothing is type-walked.  (The
    # submit is where the spec — its literals — is validated and hashed.)
    on_results = {name for kind, name in cluster.inside if kind == "execution_result"}
    assert on_results <= {"pack_value", "_pack_array", "unpack_value"}
    results = [inbound for inbound, _ in cluster.handled if inbound.type == "execution_result"]
    assert len(results) == 64
    sent_by = {inbound.payload["tasklet_id"].split(":")[1]: inbound.payload["value"] for inbound in results}
    (complete,) = [
        sent for _, out in cluster.handled for sent in out if sent.type == "workflow_complete"
    ]
    assert all(complete.payload["outputs"][sink] is sent_by[sink] for sink in spec.sinks())


def test_a_node_and_the_same_tasklet_submitted_directly_share_a_memo_key():
    """The splice is byte for byte what a consumer packs: four int outputs
    gathered into one array argument take the array form, as ``[1, 4, 9,
    16]`` written out does — so the direct submission is a memo hit."""
    square = compile_source("func main(n: int) -> int { return n * n; }")
    total = compile_source(
        "func main(a: array, k: int) -> int { var s: int = k; "
        "for (var i: int = 0; i < len(a); i = i + 1) { s = s + a[i]; } return s; }"
    )
    builder = WorkflowBuilder("wf-memo")
    sources = [builder.node(square, args=[n], node_id=f"sq{n}") for n in (1, 2, 3, 4)]
    builder.node(total, args=[gather(sources), 100], node_id="sum")
    cluster = WatchedCluster(CODEC_BINARY)
    with cluster.on("c1"):
        handle, envelopes = cluster.consumer.submit_workflow(builder.build())
    for envelope in envelopes:
        cluster.deliver(envelope)
    assert handle.result(0) == {"sum": 130}
    issued = cluster.broker.stats.executions_issued
    assert cluster.submit([[1, 4, 9, 16], 100], program=total) == [130]
    assert cluster.broker.stats.memo_hits == 1 and cluster.broker.stats.executions_issued == issued
    assert cluster.submit([[1, 4, 9, 16.0], 100], program=total) == [130.0]  # not the same bytes
    assert cluster.broker.stats.memo_hits == 1
