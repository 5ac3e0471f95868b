"""Workflow specifications: DAGs of Tasklets with declared data edges.

A :class:`WorkflowSpec` is the wire-form description of a whole
computation graph the consumer hands to the broker in one message.  Each
:class:`NodeSpec` references a program by *fingerprint* (the programs
themselves travel once, deduplicated in :attr:`WorkflowSpec.programs`)
and lists its arguments; an argument may be a literal Tasklet value or a
*placeholder* naming predecessor outputs:

``{"$from": "map3"}``
    Replaced broker-side with the output value of node ``map3``.
``{"$gather": ["a", "b", "c"]}``
    Replaced with the list ``[value(a), value(b), value(c)]`` in order.

Edges are therefore implicit in the argument placeholders; ``after``
adds pure ordering dependencies that carry no data.  The broker resolves
placeholders as predecessors complete — successor Tasklets are released
without a consumer round-trip per stage.

:class:`WorkflowBuilder` is the convenience layer applications use::

    build = WorkflowBuilder("pipeline")
    first = build.node(SOURCE, args=[8])
    second = build.node(SOURCE, args=[from_node(first)])
    spec = build.build()
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..common.errors import VMInvalidProgram, WorkflowSpecError
from ..common.record import Record, record, sparse
from ..core.programs import compiled
from ..tvm.bytecode import CompiledProgram, ProgramTable
from ..tvm.vm import DEFAULT_FUEL, is_tasklet_value

#: Placeholder keys recognised inside node argument lists.
FROM_KEY = "$from"
GATHER_KEY = "$gather"


def from_node(node_id: str) -> dict[str, str]:
    """Placeholder for one predecessor's output value."""
    return {FROM_KEY: str(node_id)}


def gather(node_ids: list[str]) -> dict[str, list[str]]:
    """Placeholder for a list of predecessor outputs, in order."""
    return {GATHER_KEY: [str(node_id) for node_id in node_ids]}


def arg_refs(value: Any) -> list[str]:
    """Node ids referenced by placeholders inside one argument (in order)."""
    if isinstance(value, dict):
        if FROM_KEY in value:
            return [str(value[FROM_KEY])]
        if GATHER_KEY in value:
            return [str(node_id) for node_id in value[GATHER_KEY]]
        return []
    if isinstance(value, list):
        refs: list[str] = []
        for item in value:
            refs.extend(arg_refs(item))
        return refs
    return []


def resolve_arg(value: Any, values: dict[str, Any]) -> Any:
    """Replace placeholders in one argument with predecessor outputs."""
    if isinstance(value, dict):
        if FROM_KEY in value:
            return values[str(value[FROM_KEY])]
        if GATHER_KEY in value:
            return [values[str(node_id)] for node_id in value[GATHER_KEY]]
        return value
    if isinstance(value, list):
        return [resolve_arg(item, values) for item in value]
    return value


_STR = frozenset((str,))


def _checked_refs(values: list, refs: dict[str, None]) -> bool:
    """One walk of a node's arguments (or of a list inside one): add the
    node ids their placeholders name to ``refs``, in :func:`arg_refs`
    order.  False unless every value is a Tasklet value or a placeholder
    naming non-empty string ids."""
    for value in values:
        if isinstance(value, (int, float, str)):  # (bool is an int)
            continue
        if isinstance(value, dict):  # (no Tasklet value is a dict)
            if FROM_KEY in value:
                named = [value[FROM_KEY]]
            elif GATHER_KEY in value:
                named = value[GATHER_KEY]
            else:
                return False
            if type(named) is not list or not _STR.issuperset(map(type, named)) or not all(named):
                return False
            refs.update(dict.fromkeys(named))
        elif not is_tasklet_value(value) and (
            not isinstance(value, list) or not _checked_refs(value, refs)
        ):
            return False
    return True


@record("node", error=WorkflowSpecError)
@dataclass
class NodeSpec(Record):
    """One node of a workflow: a Tasklet template awaiting its inputs."""

    node_id: str
    program_fingerprint: str
    entry: str = "main"
    args: list[Any] = field(default_factory=list)
    seed: int = 0
    fuel: int = DEFAULT_FUEL
    #: Re-issue budget for this node's executions (QoC ``max_attempts``).
    max_attempts: int = 1
    #: Pure ordering dependencies (no data flows along these edges).
    after: list[str] = sparse(list)

    def deps(self) -> list[str]:
        """Predecessors, in placeholder order then ``after`` order, unique."""
        seen: dict[str, None] = {}
        for arg in self.args:
            if isinstance(arg, (dict, list)):  # (a literal names no node)
                for ref in arg_refs(arg):
                    seen[ref] = None
        for ref in self.after:
            seen[str(ref)] = None
        return list(seen)


@record("workflow", error=WorkflowSpecError)
@dataclass
class WorkflowSpec(Record):
    """A whole DAG of Tasklets, submitted to the broker in one message."""

    workflow_id: str
    nodes: list[NodeSpec]
    #: Deduplicated program table: fingerprint -> CompiledProgram.packed().
    programs: dict[str, bytes] = field(default_factory=dict)

    # -- structure ----------------------------------------------------------
    #
    # Each query walks the spec as it is now: a spec is a mutable record,
    # so nothing about its graph is cached on it.  A caller that asks more
    # than once keeps a WorkflowGraph (``validate()`` returns the one it
    # built).

    def node(self, node_id: str) -> NodeSpec:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    def sinks(self) -> list[str]:
        """Nodes with no successors: the workflow's output nodes."""
        return WorkflowGraph(self).sinks

    def topo_order(self) -> list[str]:
        """Kahn topological order; raises on cycles (used by validate)."""
        return WorkflowGraph(self).topo_order()

    def validate(self) -> "WorkflowGraph":
        """Raise :class:`WorkflowSpecError` unless the spec is well-formed;
        returns the graph index the check built, for the caller to keep."""
        if not self.workflow_id:
            raise WorkflowSpecError("workflow_id must be non-empty")
        if not self.nodes:
            raise WorkflowSpecError(
                f"workflow {self.workflow_id!r} has no nodes"
            )
        ids = [node.node_id for node in self.nodes]
        known = set(ids)
        if len(known) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise WorkflowSpecError(
                f"duplicate node id(s): {', '.join(dupes)}"
            )
        deps: list[list[str]] = []
        for node in self.nodes:
            if not node.node_id:
                raise WorkflowSpecError("node_id must be non-empty")
            if node.program_fingerprint not in self.programs:
                raise WorkflowSpecError(
                    f"node {node.node_id!r} references unknown program "
                    f"fingerprint {node.program_fingerprint!r}"
                )
            if node.fuel <= 0:
                raise WorkflowSpecError(
                    f"node {node.node_id!r}: fuel must be positive"
                )
            if node.max_attempts < 1:
                raise WorkflowSpecError(
                    f"node {node.node_id!r}: max_attempts must be >= 1"
                )
            seen: dict[str, None] = {}  # (node.deps(), from the same walk)
            if not _checked_refs(node.args, seen):
                bad = next(arg for arg in node.args if not _checked_refs([arg], {}))
                raise WorkflowSpecError(
                    f"node {node.node_id!r}: argument {bad!r} is neither "
                    "a Tasklet value nor a valid placeholder"
                )
            if node.after:
                seen.update(dict.fromkeys(map(str, node.after)))
            refs = list(seen)
            for dep in refs:
                if dep == node.node_id:
                    raise WorkflowSpecError(
                        f"node {node.node_id!r} depends on itself"
                    )
                if dep not in known:
                    raise WorkflowSpecError(
                        f"node {node.node_id!r} references unknown "
                        f"predecessor {dep!r}"
                    )
            deps.append(refs)
        graph = WorkflowGraph(self, deps)
        graph.topo_order()  # raises on cycles
        return graph

    def open_programs(self, table: ProgramTable) -> dict[str, CompiledProgram]:
        """The program table, each program opened by ``table`` (a broker's:
        unless it has been before) and its key checked as the stamp it is
        — after which every node must name an entry its program has, with
        as many parameters as the node passes arguments (placeholders
        count as one each)."""
        programs = {}
        for fingerprint, blob in self.programs.items():
            try:
                programs[fingerprint] = table.open(blob, fingerprint)
            except VMInvalidProgram as exc:
                raise WorkflowSpecError(f"program {fingerprint!r}: {exc}") from None
        for node in self.nodes:
            program = programs[node.program_fingerprint]
            if not program.has_function(node.entry):
                raise WorkflowSpecError(
                    f"node {node.node_id!r}: program has no entry function {node.entry!r}"
                )
            n_params = program.function(node.entry).n_params
            if n_params != len(node.args):
                raise WorkflowSpecError(
                    f"node {node.node_id!r}: {node.entry}() expects {n_params} "
                    f"arguments, got {len(node.args)}"
                )
        return programs

    def fingerprint(self) -> str:
        """Content identity of this spec (idempotent-resubmit detection).

        Program payloads are represented by their fingerprints, so two
        submissions of the same graph hash identically without touching
        the bytecode.
        """
        canonical = json.dumps(
            {
                "workflow_id": self.workflow_id,
                "nodes": [node.to_dict() for node in self.nodes],
                "programs": sorted(self.programs),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


class WorkflowGraph:
    """One walk of a :class:`WorkflowSpec`'s nodes: everything the
    validator, the scheduler and the broker ask of its structure, answered
    in O(nodes + edges).  It describes the spec as it was when built.

    ``nodes``: id -> node (the first, were an id duplicated); ``deps``: id
    -> predecessors (:meth:`NodeSpec.deps` order); ``successors``: id ->
    direct successors (declaration order); ``order``: Kahn order, FIFO with
    ties in declaration order, of every node the walk reaches; ``cyclic``:
    the sorted ids it never reaches (a cycle, a self-dependency, an unknown
    predecessor), ``None`` when it reaches every node; ``sinks``: the nodes
    without successors, in declaration order.
    """

    __slots__ = ("spec", "nodes", "deps", "successors", "order", "cyclic", "sinks")

    def __init__(self, spec: WorkflowSpec, deps: list[list[str]] | None = None):
        if deps is None:
            deps = [node.deps() for node in spec.nodes]
        ids = [node.node_id for node in spec.nodes]
        self.spec = spec
        self.nodes: dict[str, NodeSpec] = {}
        for node_id, node in zip(ids, spec.nodes):
            self.nodes.setdefault(node_id, node)
        self.deps: dict[str, list[str]] = dict(zip(ids, deps))
        self.successors: dict[str, list[str]] = {node_id: [] for node_id in ids}
        successors = self.successors
        for node_id, refs in zip(ids, deps):
            for ref in refs:
                if ref in successors:
                    successors[ref].append(node_id)
        self.sinks = [node_id for node_id in ids if not successors[node_id]]
        waiting = {node_id: set(refs) for node_id, refs in self.deps.items()}
        ready = deque(node_id for node_id, refs in waiting.items() if not refs)
        queued = set(ready)
        order: list[str] = []
        while ready:
            node_id = ready.popleft()
            order.append(node_id)
            for succ in successors[node_id]:
                refs = waiting[succ]
                refs.discard(node_id)
                if not refs and succ not in queued:
                    queued.add(succ)
                    ready.append(succ)
        self.order = order
        self.cyclic = (
            None if len(order) == len(ids) else sorted(set(waiting) - set(order))
        )

    def topo_order(self) -> list[str]:
        """``order``, or :class:`WorkflowSpecError` unless it is complete."""
        if self.cyclic is not None:
            raise WorkflowSpecError(
                f"workflow {self.spec.workflow_id!r} has a dependency cycle "
                f"involving: {', '.join(self.cyclic)}"
            )
        return self.order


_builder_counter = itertools.count(1)


class WorkflowBuilder:
    """Incremental construction of a :class:`WorkflowSpec`.

    Accepts programs as source text (compiled once per process, by
    :mod:`repro.core.programs`) or pre-compiled :class:`CompiledProgram`
    objects; node ids default to ``n1, n2, ...`` in creation order.
    """

    def __init__(self, workflow_id: str | None = None):
        self.workflow_id = workflow_id or f"wf-{next(_builder_counter)}"
        self._nodes: list[NodeSpec] = []
        self._programs: dict[str, bytes] = {}
        self._ids = itertools.count(1)

    def node(
        self,
        program: CompiledProgram | str,
        args: list[Any] | None = None,
        entry: str = "main",
        node_id: str | None = None,
        seed: int = 0,
        fuel: int = DEFAULT_FUEL,
        max_attempts: int = 1,
        after: list[str] | None = None,
    ) -> str:
        """Add one node; returns its id (for use in placeholders)."""
        if isinstance(program, str):
            program = compiled(program)
        fingerprint = program.fingerprint()
        if fingerprint not in self._programs:
            self._programs[fingerprint] = program.packed()
        node_id = node_id or f"n{next(self._ids)}"
        self._nodes.append(
            NodeSpec(
                node_id=node_id,
                program_fingerprint=fingerprint,
                entry=entry,
                args=list(args or []),
                seed=seed,
                fuel=fuel,
                max_attempts=max_attempts,
                after=[str(ref) for ref in (after or [])],
            )
        )
        return node_id

    def build(self) -> WorkflowSpec:
        """Validate and return the finished spec."""
        spec = WorkflowSpec(
            workflow_id=self.workflow_id,
            nodes=list(self._nodes),
            programs=dict(self._programs),
        )
        spec.validate()
        return spec
