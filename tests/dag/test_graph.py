"""The graph index: one walk of a spec answers what a walk per query did.

``WorkflowGraph`` replaced five separate walks of a spec's nodes —
``successors``, ``sinks``, ``topo_order`` (a list-backed Kahn queue with
membership tests on lists), ``validate`` and the scheduler's own copies —
by one O(nodes + edges) pass.  The oracle below is that earlier algorithm
as it was; the index must give the same order (FIFO, ties in
declaration order), the same successors and sinks, and the same first
error with the same text, on every pattern generator and on arbitrary
graphs: cycles, self-dependencies, unknown predecessors, duplicate ids.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import WorkflowSpecError
from repro.dag.patterns import butterfly, chain, stencil, tree
from repro.dag.scheduler import DagScheduler
from repro.dag.spec import NodeSpec, WorkflowGraph, WorkflowSpec, from_node, gather

# -- the oracle: one walk per query ----------------------------------------------


def oracle_successors(spec):
    out = {node.node_id: [] for node in spec.nodes}
    for node in spec.nodes:
        for dep in node.deps():
            if dep in out:
                out[dep].append(node.node_id)
    return out


def oracle_sinks(spec):
    successors = oracle_successors(spec)
    return [node.node_id for node in spec.nodes if not successors[node.node_id]]


def oracle_topo_order(spec):
    remaining = {node.node_id: set(node.deps()) for node in spec.nodes}
    successors = oracle_successors(spec)
    ready = [node_id for node_id, deps in remaining.items() if not deps]
    order = []
    while ready:
        node_id = ready.pop(0)
        order.append(node_id)
        for succ in successors.get(node_id, []):
            deps = remaining[succ]
            deps.discard(node_id)
            if not deps and succ not in order and succ not in ready:
                ready.append(succ)
    if len(order) != len(spec.nodes):
        cyclic = sorted(set(remaining) - set(order))
        raise WorkflowSpecError(
            f"workflow {spec.workflow_id!r} has a dependency cycle "
            f"involving: {', '.join(cyclic)}"
        )
    return order


def oracle_validate(spec):
    """The structural half of ``validate`` (the per-field checks did not move)."""
    ids = [node.node_id for node in spec.nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise WorkflowSpecError(f"duplicate node id(s): {', '.join(dupes)}")
    known = set(ids)
    for node in spec.nodes:
        for dep in node.deps():
            if dep == node.node_id:
                raise WorkflowSpecError(f"node {node.node_id!r} depends on itself")
            if dep not in known:
                raise WorkflowSpecError(
                    f"node {node.node_id!r} references unknown predecessor {dep!r}"
                )
    oracle_topo_order(spec)


def outcome(call):
    """What ``call()`` returns, or the text of the WorkflowSpecError it raises."""
    try:
        return ("ok", call())
    except WorkflowSpecError as exc:
        return ("error", str(exc))


def assert_same_as_oracle(spec):
    graph = WorkflowGraph(spec)
    assert graph.successors == oracle_successors(spec)
    assert graph.sinks == oracle_sinks(spec) == spec.sinks()
    assert outcome(graph.topo_order) == outcome(lambda: oracle_topo_order(spec))
    assert outcome(spec.topo_order) == outcome(lambda: oracle_topo_order(spec))
    kind, validated = outcome(spec.validate)
    expected_kind, expected = outcome(lambda: oracle_validate(spec))
    assert kind == expected_kind
    if kind == "error":
        assert validated == expected
    else:
        index = validated
        assert isinstance(index, WorkflowGraph) and index.spec is spec
        assert index.order == oracle_topo_order(spec)
        assert index.nodes == {node.node_id: node for node in spec.nodes}
        assert index.deps == {node.node_id: node.deps() for node in spec.nodes}


# -- every pattern generator ---------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        chain(1), chain(7), stencil(1, 1), stencil(3, 4), stencil(8, 8), stencil(5, 2),
        tree(2, 1), tree(2, 4), tree(3, 2), butterfly(2), butterfly(8), butterfly(4, 7),
    ],
    ids=lambda spec: spec.workflow_id,
)
def test_patterns_match_the_per_query_walks(spec):
    assert_same_as_oracle(spec)


# -- arbitrary graphs ----------------------------------------------------------------

_IDS = ["a", "b", "c", "d", "e", "f", "g", "h"]


@st.composite
def _specs(draw):
    """Up to eight nodes over a small id alphabet (so duplicates happen),
    each referring — by ``$from``, ``$gather``, a placeholder nested in a
    list, or ``after`` — to any id at all: earlier, later, itself, one
    that no node has."""
    count = draw(st.integers(1, 8))
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=count, max_size=count))
    refs = st.sampled_from(_IDS + ["ghost"])
    nodes = []
    for node_id in ids:
        args = draw(
            st.lists(
                st.integers(0, 9)
                | refs.map(from_node)
                | st.lists(refs, max_size=3).map(gather)
                | st.lists(refs.map(from_node) | st.integers(0, 9), max_size=2),
                max_size=3,
            )
        )
        after = draw(st.lists(refs, max_size=2))
        nodes.append(NodeSpec(node_id, "f", args=args, after=after))
    return WorkflowSpec("wf", nodes, {"f": b""})


@settings(max_examples=400, deadline=None)
@given(_specs())
def test_arbitrary_graphs_match_the_per_query_walks(spec):
    assert_same_as_oracle(spec)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.data())
def test_random_dags_order_and_schedule_as_before(size, data):
    """Acyclic graphs in a shuffled declaration order: the same Kahn order,
    and a scheduler that releases every node exactly once, when its last
    predecessor completes."""
    order = data.draw(st.permutations([f"n{i}" for i in range(size)]))
    nodes = []
    for index, node_id in enumerate(order):
        earlier = order[:index]
        deps = data.draw(st.lists(st.sampled_from(earlier), max_size=4)) if earlier else []
        nodes.append(NodeSpec(node_id, "f", args=[gather(deps)]))
    data.draw(st.randoms()).shuffle(nodes)
    spec = WorkflowSpec("wf", nodes, {"f": b""})
    assert_same_as_oracle(spec)
    scheduler = DagScheduler(spec.validate())
    frontier, released = scheduler.start(), []
    while frontier:
        node_id = frontier.pop(0)
        released.append(node_id)
        frontier.extend(scheduler.complete(node_id, b"\x00"))
    assert sorted(released) == sorted(order) and scheduler.finished


# -- a spec is a mutable record ------------------------------------------------------


def test_a_spec_edited_after_validate_is_validated_afresh():
    spec = stencil(2, 2)
    index = spec.validate()
    first = list(index.order)
    spec.nodes[0].after.append(spec.nodes[-1].node_id)  # now a cycle
    with pytest.raises(WorkflowSpecError, match="cycle involving: s0x0, s1x0, s1x1"):
        spec.validate()
    assert index.order == first  # the index describes the spec it walked
    spec.nodes[0].after[-1] = "ghost"
    with pytest.raises(WorkflowSpecError, match="unknown predecessor 'ghost'"):
        spec.validate()
    spec.nodes[0].after.pop()
    spec.nodes.append(NodeSpec("late", spec.nodes[0].program_fingerprint, args=[[1], 1, 1]))
    again = spec.validate()
    assert again is not index and again.sinks == ["s1x0", "s1x1", "late"]
    assert again.order == ["s0x0", "s0x1", "late", "s1x0", "s1x1"] == oracle_topo_order(spec)
