"""Sans-IO dependency scheduler for one workflow.

The :class:`DagScheduler` owns the node-state machine of a single
:class:`~repro.dag.spec.WorkflowSpec`:

::

    BLOCKED ──deps done──▶ READY ──issued──▶ RUNNING ──ok──▶ DONE
                                                │
                                                └──retries exhausted──▶ FAILED

It performs no I/O and knows nothing about envelopes, providers, or
journals — the broker drives it: :meth:`start` yields the initially
ready nodes, :meth:`complete` records an output and yields newly
released nodes, :meth:`args_of` writes a node's packed argument list by
splicing recorded outputs — kept as the bytes their providers packed —
in place of its ``$from``/``$gather`` placeholders.  The same object is
rebuilt during journal recovery by replaying completions in topological
order.

It is built on the :class:`~repro.dag.spec.WorkflowGraph` that validating
the spec produced, and walks it no more: a transition costs the edges it
touches, not the size of the graph.
"""

from __future__ import annotations

from collections import deque

from ..common.serde import pack_value, splice_list
from .spec import FROM_KEY, GATHER_KEY, WorkflowGraph

#: Node states.
BLOCKED = "blocked"
READY = "ready"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a node can no longer leave.
TERMINAL_STATES = frozenset({DONE, FAILED})


def _templated(arg) -> bool:
    """Whether a placeholder sits anywhere inside the argument ``arg``."""
    if isinstance(arg, dict):
        return FROM_KEY in arg or GATHER_KEY in arg
    return isinstance(arg, list) and any(map(_templated, arg))


class DagScheduler:
    """Tracks node states and releases nodes as predecessors complete."""

    def __init__(self, graph: WorkflowGraph):
        self.graph = graph
        self.spec = graph.spec
        self._deps: dict[str, set[str]] = {
            node_id: set(refs) for node_id, refs in graph.deps.items()
        }
        self._state: dict[str, str] = dict.fromkeys(graph.deps, BLOCKED)
        #: Node outputs as they arrived: packed (``serde.packed``) bytes.
        self._values: dict[str, bytes] = {}
        self._failed_node: str | None = None

    # -- queries ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once every node is done, or any node has failed."""
        # (An output is recorded exactly when its node becomes DONE.)
        return self._failed_node is not None or len(self._values) == len(self._state)

    @property
    def failed(self) -> bool:
        return self._failed_node is not None

    def counts(self) -> dict[str, int]:
        """State -> node count (all five states always present)."""
        out = {BLOCKED: 0, READY: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for state in self._state.values():
            out[state] += 1
        return out

    def outputs(self) -> dict[str, bytes]:
        """Sink-node outputs (the workflow's results, packed), if computed."""
        return {
            node_id: self._values[node_id]
            for node_id in self.graph.sinks
            if node_id in self._values
        }

    def dependents_of(self, node_id: str) -> list[str]:
        """Every transitive successor of ``node_id`` (BFS order)."""
        successors = self.graph.successors
        seen: dict[str, None] = {}
        frontier = deque(successors.get(node_id, []))
        while frontier:
            succ = frontier.popleft()
            if succ in seen:
                continue
            seen[succ] = None
            frontier.extend(successors.get(succ, []))
        return list(seen)

    def args_of(self, node_id: str) -> bytes:
        """The node's packed argument list, placeholders resolved: byte
        for byte ``packed([resolve_arg(arg, opened outputs) ...])`` — what
        a consumer submitting the same tasklet directly would send, so
        both share a memo key — with no output opened on the way.

        Only valid once every predecessor is DONE (i.e. the node is
        READY or later); raises ``KeyError`` otherwise.
        """
        out = bytearray()
        splice_list([self._spliced(arg) for arg in self.graph.nodes[node_id].args], out)
        return bytes(out)

    def _spliced(self, arg) -> bytes:
        """One argument, packed: a placeholder is the output it names (a
        ``$gather``, the list of them), and a list that holds one is the
        list of its items; anything else is a literal."""
        if isinstance(arg, dict) and FROM_KEY in arg:
            return self._values[str(arg[FROM_KEY])]
        out = bytearray()
        if isinstance(arg, dict) and GATHER_KEY in arg:
            splice_list([self._values[str(ref)] for ref in arg[GATHER_KEY]], out)
        elif isinstance(arg, list) and _templated(arg):
            splice_list([self._spliced(item) for item in arg], out)
        else:
            pack_value(arg, out)
        return bytes(out)

    # -- transitions --------------------------------------------------------

    def start(self) -> list[str]:
        """Mark dependency-free nodes READY; returns them (declaration order)."""
        released: list[str] = []
        for node_id, deps in self._deps.items():
            if self._state[node_id] == BLOCKED and not deps:
                self._state[node_id] = READY
                released.append(node_id)
        return released

    def mark_running(self, node_id: str) -> None:
        if self._state[node_id] != READY:
            raise ValueError(
                f"node {node_id!r} is {self._state[node_id]}, not ready"
            )
        self._state[node_id] = RUNNING

    def complete(self, node_id: str, value: bytes) -> list[str]:
        """Record a node's (packed) output; returns newly READY successors.

        Accepts completion from READY as well as RUNNING so recovery and
        memoization can short-circuit nodes that were never issued.
        Completing an already-DONE node is a no-op (idempotent replay).
        """
        state = self._state[node_id]
        if state == DONE:
            return []
        if state not in (READY, RUNNING):
            raise ValueError(
                f"node {node_id!r} is {state}, cannot complete"
            )
        self._state[node_id] = DONE
        self._values[node_id] = value
        released: list[str] = []
        for succ in self.graph.successors[node_id]:
            deps = self._deps[succ]
            deps.discard(node_id)
            if not deps and self._state[succ] == BLOCKED:
                self._state[succ] = READY
                released.append(succ)
        return released

    def fail(self, node_id: str) -> list[str]:
        """Mark a node FAILED; returns its (transitive) dependents.

        The first failure wins: it fails the workflow as a whole and
        reports the dependents that can now never run (their inputs do
        not exist).  Later failures still mark their node but report
        nothing — the graph's fate is already decided.
        """
        if self._state[node_id] not in TERMINAL_STATES:
            self._state[node_id] = FAILED
        if self._failed_node is not None:
            return []
        self._failed_node = node_id
        return self.dependents_of(node_id)
