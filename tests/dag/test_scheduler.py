"""DagScheduler state machine and the Task-Bench pattern generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.serde import check_packed, opened, packed
from repro.dag.patterns import (
    butterfly,
    chain,
    python_dag_kernel,
    reference_values,
    stencil,
    tree,
)
from repro.dag.scheduler import (
    BLOCKED,
    DONE,
    FAILED,
    READY,
    RUNNING,
    DagScheduler,
)
from repro.dag.spec import NodeSpec, WorkflowBuilder, WorkflowSpec, from_node, gather, resolve_arg

SQUARE = "func main(n: int) -> int { return n * n; }"


def diamond_scheduler() -> DagScheduler:
    build = WorkflowBuilder("diamond")
    build.node(SQUARE, args=[3], node_id="src")
    build.node(SQUARE, args=[from_node("src")], node_id="left")
    build.node(SQUARE, args=[from_node("src")], node_id="right")
    build.node(SQUARE, args=[gather(["left", "right"])], node_id="sink")
    return DagScheduler(build.build())


def test_start_releases_only_sources():
    scheduler = diamond_scheduler()
    assert scheduler.start() == ["src"]
    assert scheduler.state_of("src") == READY
    assert scheduler.state_of("left") == BLOCKED
    assert scheduler.counts() == {
        BLOCKED: 3, READY: 1, RUNNING: 0, DONE: 0, FAILED: 0
    }


def test_complete_releases_dependents():
    scheduler = diamond_scheduler()
    scheduler.start()
    scheduler.mark_running("src")
    released = scheduler.complete("src", packed(9))
    assert sorted(released) == ["left", "right"]
    assert scheduler.state_of("src") == DONE
    # The sink needs both; completing one branch is not enough.
    assert scheduler.complete("left", packed(81)) == []
    assert scheduler.complete("right", packed(81)) == ["sink"]


def test_args_of_injects_predecessor_outputs():
    scheduler = diamond_scheduler()
    scheduler.start()
    scheduler.complete("src", packed(9))
    assert scheduler.args_of("left") == packed([9])
    scheduler.complete("left", packed(81))
    scheduler.complete("right", packed(81))
    assert scheduler.args_of("sink") == packed([[81, 81]])


def test_finished_and_outputs():
    scheduler = diamond_scheduler()
    scheduler.start()
    for node, value in [("src", 9), ("left", 81), ("right", 81), ("sink", 1)]:
        scheduler.complete(node, packed(value))
    assert scheduler.finished and not scheduler.failed
    assert scheduler.outputs() == {"sink": packed(1)}


def test_fail_cascades_to_transitive_dependents():
    scheduler = diamond_scheduler()
    scheduler.start()
    scheduler.complete("src", packed(9))
    dependents = scheduler.fail("left")
    assert dependents == ["sink"]
    assert scheduler.failed and scheduler.finished
    assert scheduler.failed_node == "left"
    # First failure wins.
    assert scheduler.fail("right") == []
    assert scheduler.failed_node == "left"


def test_complete_is_idempotent_on_done():
    scheduler = diamond_scheduler()
    scheduler.start()
    scheduler.complete("src", packed(9))
    assert scheduler.complete("src", packed(9)) == []  # no double release


def test_invalid_transitions_raise():
    scheduler = diamond_scheduler()
    scheduler.start()
    with pytest.raises(ValueError):
        scheduler.mark_running("sink")  # still blocked
    with pytest.raises(ValueError):
        scheduler.complete("sink", packed(1))  # blocked node cannot complete


# -- patterns ---------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, nodes, sinks",
    [
        (chain(4), 4, 1),
        (stencil(4, 3), 12, 4),
        (tree(2, 3), 15, 1),
        (butterfly(4), 12, 4),
    ],
    ids=["chain", "stencil", "tree", "butterfly"],
)
def test_pattern_shapes(spec, nodes, sinks):
    spec.validate()
    assert len(spec.nodes) == nodes
    assert len(spec.sinks()) == sinks


def test_reference_values_walk_matches_kernel():
    spec = chain(3, work=10, salt=2)
    values = reference_values(spec)
    expected = python_dag_kernel([2], 10, 2)
    assert values[spec.topo_order()[0]] == expected


def test_butterfly_requires_power_of_two():
    with pytest.raises(ValueError):
        butterfly(3)


def test_pattern_max_attempts_passthrough():
    spec = tree(2, 2, max_attempts=3)
    assert all(node.max_attempts == 3 for node in spec.nodes)


def test_scheduler_drives_pattern_to_oracle_values():
    """Run a whole stencil through the scheduler, no middleware."""
    spec = stencil(3, 3, work=5)
    oracle = reference_values(spec)
    scheduler = DagScheduler(spec)
    frontier = scheduler.start()
    while frontier:
        node_id = frontier.pop()
        inputs, work, salt = opened(scheduler.args_of(node_id))
        frontier.extend(
            scheduler.complete(node_id, packed(python_dag_kernel(list(inputs), work, salt)))
        )
    assert scheduler.finished
    assert {n: opened(scheduler.value_of(n)) for n in oracle} == oracle


# -- args_of splices packed outputs: byte for byte the packed resolved arguments --

_numbers = st.integers(-(2**70), 2**70) | st.integers(-5, 5) | st.floats() | st.booleans()
_values = st.recursive(
    _numbers | st.text(max_size=3),
    lambda children: st.lists(children, max_size=5),
    max_leaves=8,
) | st.lists(st.integers(-300, 300), min_size=4, max_size=8) | st.lists(
    st.floats(), min_size=4, max_size=8
)


@st.composite
def _graphs(draw):
    """Node ids in release order, each node's argument templates (literals,
    ``$from`` / ``$gather`` of earlier nodes, lists holding either — same-
    typed numbers often enough to meet the array form) and its output."""
    count = draw(st.integers(1, 6))
    nodes = []
    for index in range(count):
        earlier = [f"n{i}" for i in range(index)]
        refs = st.sampled_from(earlier).map(from_node) if earlier else st.nothing()
        gathers = (
            st.lists(st.sampled_from(earlier), max_size=6).map(gather) if earlier else st.nothing()
        )
        leaf = _values | refs | gathers
        args = draw(st.lists(leaf | st.lists(leaf | st.lists(leaf, max_size=3), max_size=5), max_size=5))
        # Outputs are often plain numbers, so a $gather of them is often an array.
        output = draw(_values | st.integers(-9, 9) | st.floats(allow_nan=True))
        nodes.append((f"n{index}", args, output))
    return nodes


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_args_of_splices_exactly_the_packed_resolved_arguments(graph):
    """The invariant that lets a node and the same tasklet submitted
    directly share a memo key: ``args_of`` — built from the outputs'
    bytes, none of them opened but the few numbers a ``$gather`` turns
    into an array — equals ``packed`` of the arguments ``resolve_arg``
    builds from the opened outputs."""
    spec = WorkflowSpec(
        "wf", [NodeSpec(node_id, "fp", args=args) for node_id, args, _ in graph], {}
    )
    scheduler = DagScheduler(spec)
    scheduler.start()
    values = {}
    for node_id, args, output in graph:
        resolved = [resolve_arg(arg, values) for arg in args]
        spliced = scheduler.args_of(node_id)
        assert spliced == packed(resolved)
        assert check_packed(spliced) == len(args)  # what admission reads off it
        blob = packed(output, fold_nan=True)  # as its provider sends it
        scheduler.complete(node_id, blob)
        values[node_id] = opened(blob)
    assert scheduler.outputs() == {n: packed(values[n], fold_nan=True) for n in spec.sinks()}
