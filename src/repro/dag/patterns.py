"""Task-Bench-style dependency-pattern generators.

Task Bench (Slaughter et al., PAPERS.md) parameterizes workloads as a
grid of tasks with a *dependency pattern* between consecutive stages.
This module reproduces the four classic patterns as
:class:`~repro.dag.spec.WorkflowSpec` generators over a single mixing
kernel, so experiments can sweep shape (width/depth) independently of
per-node work:

``chain(depth)``
    A linear pipeline — one node per stage.
``stencil(width, depth)``
    Each node depends on its 1D neighbourhood ``{i-1, i, i+1}`` in the
    previous stage (boundaries clamp).
``tree(branching, depth)``
    A reduction tree: ``branching**depth`` leaves folded to one root.
``butterfly(width, depth)``
    FFT-style: stage ``s`` node ``i`` depends on ``(s-1, i)`` and
    ``(s-1, i XOR 2**((s-1) % log2(width)))``.

Every node runs :data:`DAG_KERNEL`: a deterministic integer fold over
its gathered predecessor outputs plus a fuel-proportional busywork
loop.  :func:`reference_values` is the pure-Python oracle, so tests and
experiments can assert end-to-end correctness of broker-side argument
injection, not just completion counts.
"""

from __future__ import annotations

from .spec import WorkflowBuilder, WorkflowGraph, WorkflowSpec, gather, resolve_arg

_MOD = 1000003

#: Mixing kernel run by every generated node.  ``inputs`` gathers the
#: predecessor outputs (an empty array for source nodes), ``work``
#: scales a busywork loop, ``salt`` makes node outputs distinct.
DAG_KERNEL = """
// Fold predecessor outputs, then burn `work` iterations of busywork.
func main(inputs: array, work: int, salt: int) -> int {
    var acc: int = salt % 1000003;
    for (var i: int = 0; i < len(inputs); i = i + 1) {
        acc = (acc * 31 + int(inputs[i])) % 1000003;
    }
    var mix: int = 0;
    for (var n: int = 0; n < work; n = n + 1) {
        mix = (mix + n * n) % 1000003;
    }
    return (acc + mix) % 1000003;
}
"""


def python_dag_kernel(inputs: list[int], work: int, salt: int) -> int:
    """Reference implementation of :data:`DAG_KERNEL`."""
    acc = salt % _MOD
    for value in inputs:
        acc = (acc * 31 + int(value)) % _MOD
    mix = 0
    for n in range(work):
        mix = (mix + n * n) % _MOD
    return (acc + mix) % _MOD


def _node_id(stage: int, index: int) -> str:
    return f"s{stage}x{index}"


def _grid(
    workflow_id: str,
    width: int,
    depth: int,
    deps_of: "callable",
    work: int,
    salt: int,
    max_attempts: int,
) -> WorkflowSpec:
    """Build a width x depth grid where stage-s deps come from stage s-1."""
    if width < 1 or depth < 1:
        raise ValueError("width and depth must be >= 1")
    build = WorkflowBuilder(workflow_id)
    for stage in range(depth):
        for index in range(width):
            if stage == 0:
                inputs: object = [salt + index]
            else:
                preds = [_node_id(stage - 1, p) for p in deps_of(stage, index)]
                inputs = gather(preds)
            build.node(
                DAG_KERNEL,
                args=[inputs, work, salt + stage * width + index],
                node_id=_node_id(stage, index),
                max_attempts=max_attempts,
            )
    return build.build()


def chain(
    depth: int, work: int = 200, salt: int = 1, max_attempts: int = 1
) -> WorkflowSpec:
    """Linear pipeline: ``depth`` stages, one node each."""
    return _grid(
        f"chain-d{depth}", 1, depth, lambda stage, index: [0], work, salt,
        max_attempts,
    )


def stencil(
    width: int, depth: int, work: int = 200, salt: int = 1,
    max_attempts: int = 1,
) -> WorkflowSpec:
    """1D stencil: node ``i`` reads ``{i-1, i, i+1}`` of the prior stage."""

    def deps(stage: int, index: int) -> list[int]:
        lo = max(0, index - 1)
        hi = min(width - 1, index + 1)
        return list(range(lo, hi + 1))

    return _grid(
        f"stencil-w{width}d{depth}", width, depth, deps, work, salt,
        max_attempts,
    )


def tree(
    branching: int, depth: int, work: int = 200, salt: int = 1,
    max_attempts: int = 1,
) -> WorkflowSpec:
    """Reduction tree: ``branching**depth`` leaves folded to one root.

    Stage 0 is the widest (the leaves); each later stage folds
    ``branching`` children into one parent.
    """
    if branching < 2 or depth < 1:
        raise ValueError("branching must be >= 2 and depth >= 1")
    build = WorkflowBuilder(f"tree-b{branching}d{depth}")
    for stage in range(depth + 1):
        width = branching ** (depth - stage)
        for index in range(width):
            if stage == 0:
                inputs: object = [salt + index]
            else:
                preds = [
                    _node_id(stage - 1, index * branching + child)
                    for child in range(branching)
                ]
                inputs = gather(preds)
            build.node(
                DAG_KERNEL,
                args=[inputs, work, salt + stage * 7919 + index],
                node_id=_node_id(stage, index),
                max_attempts=max_attempts,
            )
    return build.build()


def butterfly(
    width: int, depth: int | None = None, work: int = 200, salt: int = 1,
    max_attempts: int = 1,
) -> WorkflowSpec:
    """FFT butterfly over ``width`` lanes (must be a power of two).

    Stage ``s >= 1`` node ``i`` depends on ``(s-1, i)`` and its XOR
    partner ``(s-1, i ^ 2**((s-1) % log2(width)))``.  ``depth`` defaults
    to ``log2(width) + 1`` — one full mixing pass.
    """
    if width < 2 or width & (width - 1):
        raise ValueError("width must be a power of two >= 2")
    log2w = width.bit_length() - 1
    if depth is None:
        depth = log2w + 1

    def deps(stage: int, index: int) -> list[int]:
        partner = index ^ (1 << ((stage - 1) % log2w))
        return sorted({index, partner})

    return _grid(
        f"butterfly-w{width}d{depth}", width, depth, deps, work, salt,
        max_attempts,
    )


def reference_values(spec: WorkflowSpec) -> dict[str, int]:
    """Pure-Python oracle: expected output of every node in ``spec``.

    Only valid for specs built from :data:`DAG_KERNEL` by this module's
    generators (args are ``[inputs, work, salt]``).
    """
    values: dict[str, int] = {}
    graph = WorkflowGraph(spec)
    for node_id in graph.topo_order():
        node = graph.nodes[node_id]
        inputs = resolve_arg(node.args[0], values)
        values[node_id] = python_dag_kernel(
            list(inputs), int(node.args[1]), int(node.args[2])
        )
    return values
