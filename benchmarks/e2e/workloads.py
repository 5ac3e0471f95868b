"""The benchmark's workloads: what is submitted and what must come back.

Each workload stresses a different layer (see README.md for the why and
for the predicted layer -> end-to-end interactions).  Inputs come from
``random.Random(seed)``; a running index keeps every request's arguments
distinct, and the per-tasklet seed the library derives is part of the
broker's memo key, so the result memo can never serve a request.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Any, Callable

from repro.core.kernels import PRIME_COUNT, python_prime_count
from repro.dag.patterns import DAG_KERNEL, reference_values, stencil

FINE_KERNEL = "func main(x: int) -> int { return x + 1; }"
ECHO_KERNEL = "func main(a: array) -> array { return a; }"

PRIME_LIMIT = 1000
PAYLOAD_INTS = 1024
STENCIL_WIDTH = 8
STENCIL_DEPTH = 8
STENCIL_WORK = 50

#: ``next_case()`` -> (what to submit, the value that must come back).
CaseSource = Callable[[], tuple[Any, Any]]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Requests kept outstanding by the closed loop.
    window: int
    kernel: str
    #: Tasklets one request stands for (DAG nodes per workflow).
    units: int
    #: What ``tasklets_per_s`` counts on this workload.
    unit_name: str
    cases: Callable[[random.Random], CaseSource]
    #: A request is a whole workflow (``submit_workflow``), not a tasklet.
    is_workflow: bool = False


def _fine_cases(rng: random.Random) -> CaseSource:
    base = rng.randrange(1 << 40)
    index = itertools.count()

    def next_case():
        x = base + next(index)
        return [x], x + 1

    return next_case


def _prime_cases(rng: random.Random) -> CaseSource:
    expected = python_prime_count(PRIME_LIMIT)
    return lambda: ([PRIME_LIMIT], expected)


def _payload_cases(rng: random.Random) -> CaseSource:
    base = [rng.getrandbits(32) for _ in range(PAYLOAD_INTS)]
    index = itertools.count()

    def next_case():
        array = list(base)
        array[0] = next(index)
        return [array], array

    return next_case


def _stencil_cases(rng: random.Random) -> CaseSource:
    base = rng.randrange(1, 1 << 20)
    run_tag = rng.getrandbits(32)
    nodes = STENCIL_WIDTH * STENCIL_DEPTH
    index = itertools.count()

    def next_case():
        i = next(index)
        # Node salts span [salt, salt + nodes), so consecutive workflows
        # never share a node argument list and the memo stays cold.
        spec = stencil(
            STENCIL_WIDTH, STENCIL_DEPTH, work=STENCIL_WORK, salt=base + nodes * i
        )
        spec.workflow_id = f"stencil-{run_tag:08x}-{i}"
        values = reference_values(spec)
        return spec, {node_id: values[node_id] for node_id in spec.sinks()}

    return next_case


WORKLOADS = [
    Workload(
        name="fine_nobacklog",
        why="x+1 tasklets, window = provider slots: every layer pays only its "
        "fixed per-tasklet cost; backlog scheduler and VM are bypassed",
        window=8,
        kernel=FINE_KERNEL,
        units=1,
        unit_name="tasklets",
        cases=_fine_cases,
    ),
    Workload(
        name="fine_backlog",
        why="same x+1 tasklets with 256 outstanding (~248 queued): the "
        "broker's backlog path does nearly all the work",
        window=256,
        kernel=FINE_KERNEL,
        units=1,
        unit_name="tasklets",
        cases=_fine_cases,
    ),
    Workload(
        name="coarse_vm",
        why="prime count to 1000 (~12 ms of TVM each), window 16: VM and "
        "executor are >= 90% of the budget; middleware changes should not move it",
        window=16,
        kernel=PRIME_COUNT,
        units=1,
        unit_name="tasklets",
        cases=_prime_cases,
    ),
    Workload(
        name="payload_wire",
        why="echo of a 1,024-int array (~5 KB on each of 4 hops), window 8: "
        "few large bodies, so codec and copy costs per byte show",
        window=8,
        kernel=ECHO_KERNEL,
        units=1,
        unit_name="tasklets",
        cases=_payload_cases,
    ),
    Workload(
        name="dag_stencil",
        why="8x8 stencil workflow, one in flight: workflow release, result "
        "injection and stage barriers make dispatch latency the limiter",
        window=1,
        kernel=DAG_KERNEL,
        units=STENCIL_WIDTH * STENCIL_DEPTH,
        unit_name="nodes",
        cases=_stencil_cases,
        is_workflow=True,
    ),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}
