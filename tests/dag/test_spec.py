"""WorkflowSpec: placeholders, validation, wire round-trips, builder."""

import pytest

from repro.common.errors import WorkflowSpecError
from repro.dag.spec import (
    NodeSpec,
    WorkflowBuilder,
    WorkflowSpec,
    arg_refs,
    from_node,
    gather,
    resolve_arg,
)

SQUARE = "func main(n: int) -> int { return n * n; }"
ADD = "func main(a: int, b: int) -> int { return a + b; }"


def diamond() -> WorkflowSpec:
    build = WorkflowBuilder("diamond")
    build.node(SQUARE, args=[3], node_id="src")
    build.node(SQUARE, args=[from_node("src")], node_id="left")
    build.node(SQUARE, args=[from_node("src")], node_id="right")
    build.node(ADD, args=[from_node("left"), from_node("right")], node_id="sink")
    return build.build()


# -- placeholders -----------------------------------------------------------


def test_arg_refs_finds_placeholders_in_order():
    assert arg_refs(from_node("a")) == ["a"]
    assert arg_refs(gather(["b", "c"])) == ["b", "c"]
    assert arg_refs([1, from_node("a"), [gather(["b", "c"])]]) == ["a", "b", "c"]
    assert arg_refs(42) == []
    assert arg_refs("plain string") == []


def test_resolve_arg_substitutes_values():
    values = {"a": 10, "b": [1, 2]}
    assert resolve_arg(from_node("a"), values) == 10
    assert resolve_arg(gather(["a", "b"]), values) == [10, [1, 2]]
    assert resolve_arg([0, from_node("a")], values) == [0, 10]
    assert resolve_arg("untouched", values) == "untouched"


def test_resolve_arg_missing_value_raises():
    with pytest.raises(KeyError):
        resolve_arg(from_node("missing"), {})


# -- deps and ordering ------------------------------------------------------


def test_node_deps_combine_placeholders_and_after():
    node = NodeSpec(
        node_id="n",
        program_fingerprint="f",
        args=[from_node("a"), gather(["b", "a"])],
        after=["c"],
    )
    assert node.deps() == ["a", "b", "c"]


def test_topo_order_respects_dependencies():
    spec = diamond()
    order = spec.validate().topo_order()
    assert order.index("src") < order.index("left")
    assert order.index("src") < order.index("right")
    assert order.index("left") < order.index("sink")
    assert spec.sinks() == ["sink"]


def test_after_creates_ordering_edge_without_data():
    build = WorkflowBuilder("ordered")
    first = build.node(SQUARE, args=[2])
    build.node(SQUARE, args=[5], after=[first])
    spec = build.build()
    assert spec.nodes[1].deps() == [first]
    assert spec.nodes[1].args == [5]  # no data flows


# -- validation -------------------------------------------------------------


def test_cycle_is_rejected():
    nodes = [
        NodeSpec(node_id="a", program_fingerprint="f", args=[from_node("b")]),
        NodeSpec(node_id="b", program_fingerprint="f", args=[from_node("a")]),
    ]
    spec = WorkflowSpec(workflow_id="w", nodes=nodes, programs={"f": {}})
    with pytest.raises(WorkflowSpecError, match="cycle"):
        spec.validate()


def test_unknown_dependency_rejected():
    spec = WorkflowSpec(
        workflow_id="w",
        nodes=[
            NodeSpec(node_id="a", program_fingerprint="f", args=[from_node("ghost")])
        ],
        programs={"f": {}},
    )
    with pytest.raises(WorkflowSpecError, match="ghost"):
        spec.validate()


def test_self_dependency_rejected():
    spec = WorkflowSpec(
        workflow_id="w",
        nodes=[NodeSpec(node_id="a", program_fingerprint="f", args=[from_node("a")])],
        programs={"f": {}},
    )
    with pytest.raises(WorkflowSpecError):
        spec.validate()


def test_duplicate_node_ids_rejected():
    spec = WorkflowSpec(
        workflow_id="w",
        nodes=[
            NodeSpec(node_id="a", program_fingerprint="f"),
            NodeSpec(node_id="a", program_fingerprint="f"),
        ],
        programs={"f": {}},
    )
    with pytest.raises(WorkflowSpecError, match="duplicate"):
        spec.validate()


def test_unknown_program_fingerprint_rejected():
    spec = WorkflowSpec(
        workflow_id="w",
        nodes=[NodeSpec(node_id="a", program_fingerprint="nope")],
        programs={},
    )
    with pytest.raises(WorkflowSpecError):
        spec.validate()


def test_empty_workflow_rejected():
    with pytest.raises(WorkflowSpecError):
        WorkflowSpec(workflow_id="w", nodes=[], programs={}).validate()


# -- wire round-trip --------------------------------------------------------


def test_dict_roundtrip_preserves_spec():
    spec = diamond()
    restored = WorkflowSpec.from_dict(spec.to_dict())
    restored.validate()
    assert restored.to_dict() == spec.to_dict()
    assert restored.fingerprint() == spec.fingerprint()


def test_fingerprint_changes_with_content():
    spec = diamond()
    other = WorkflowSpec.from_dict({**spec.to_dict(), "workflow_id": "renamed"})
    assert other.fingerprint() != spec.fingerprint()


def test_from_dict_rejects_garbage():
    with pytest.raises(WorkflowSpecError):
        WorkflowSpec.from_dict({"workflow_id": "w"})
    with pytest.raises(WorkflowSpecError):
        WorkflowSpec.from_dict({"workflow_id": "w", "nodes": "nope", "programs": {}})


# -- builder ----------------------------------------------------------------


def test_builder_dedupes_programs_and_generates_ids():
    build = WorkflowBuilder("b")
    first = build.node(SQUARE, args=[1])
    second = build.node(SQUARE, args=[2])
    spec = build.build()
    assert first != second
    assert len(spec.programs) == 1  # same source compiled once
    assert spec.nodes[0].program_fingerprint == spec.nodes[1].program_fingerprint


def test_builder_validates_on_build():
    build = WorkflowBuilder("b")
    build.node(SQUARE, args=[from_node("ghost")])
    with pytest.raises(WorkflowSpecError):
        build.build()
