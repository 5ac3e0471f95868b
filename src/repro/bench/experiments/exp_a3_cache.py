"""A3 — Ablation: provider-side program caching.

Bag-of-tasks workloads ship the *same* compiled program with every
assignment; the provider's executor keeps verified programs in an LRU so
only the first assignment pays deserialisation + structural verification.
This ablation measures real (wall-clock) per-assignment setup cost with
the cache enabled vs disabled.

Shape claims: cache hit rate for an n-task bag is (n-1)/n; cached setup
is several times cheaper than uncached; results are identical either way.
"""

from __future__ import annotations

import time

from ...common.serde import packed
from ...provider.executor import TaskletExecutor
from ...transport.message import AssignExecution
from ...tvm.compiler import compile_source
from ..harness import Experiment, Table


def _large_program():
    """A realistically large application program with a tiny entry point.

    Real Tasklet applications ship whole libraries with every Tasklet
    (the program is closed); deserialisation + verification cost scales
    with program size while a single Tasklet may only execute a sliver of
    it.  That asymmetry is exactly what the provider cache exploits.
    """
    parts = []
    for index in range(80):
        parts.append(
            f"func helper_{index}(x: float) -> float {{\n"
            f"    var acc: float = x;\n"
            f"    for (var i: int = 0; i < 4; i = i + 1) {{\n"
            f"        acc = acc * 1.5 + {index}.0 - sqrt(abs(acc));\n"
            f"    }}\n"
            f"    return acc;\n"
            f"}}\n"
        )
    parts.append(
        "func main(x: float) -> float { return helper_0(x) + helper_79(x); }\n"
    )
    return compile_source("".join(parts))


def _assignments(program, tasks: int) -> list[AssignExecution]:
    return [
        AssignExecution(
            execution_id=f"ex-{index}",
            tasklet_id=f"tl-{index}",
            consumer_id="cons",
            program=program.packed(),
            entry="main",
            args=packed([float(index)]),
            seed=0,
            fuel=50_000_000,
            program_fingerprint=program.fingerprint(),
        )
        for index in range(tasks)
    ]


def run(quick: bool = True) -> Experiment:
    table = Table(
        title="A3: provider program cache on a bag of tasks",
        columns=["cache", "wall ms total", "per-task ms", "hits", "misses"],
    )
    tasks = 40 if quick else 150
    program = _large_program()
    timings = {}
    hits = {}
    values_by_mode = {}
    for enabled in (True, False):
        executor = TaskletExecutor(cache_size=64 if enabled else 0)
        requests = _assignments(program, tasks)
        values = []
        started = time.perf_counter()
        for request in requests:
            outcome = executor.execute(request)
            assert outcome.ok, outcome.error
            values.append(outcome.value)
        elapsed = time.perf_counter() - started
        timings[enabled] = elapsed
        hits[enabled] = executor.cache_hits
        values_by_mode[enabled] = values
        table.add_row(
            "on" if enabled else "off",
            elapsed * 1e3,
            elapsed / tasks * 1e3,
            executor.cache_hits,
            executor.cache_misses,
        )

    table.add_note(f"{tasks} assignments sharing one program; tiny kernels")

    experiment = Experiment("A3", table)
    experiment.check(
        "cache hit rate is (n-1)/n for an n-task bag",
        hits[True] == tasks - 1,
        detail=f"hits={hits[True]}, tasks={tasks}",
    )
    experiment.check(
        "caching reduces total provider time by >= 2x on tiny tasks",
        timings[False] >= timings[True] * 2.0,
        detail=f"off {timings[False] * 1e3:.1f}ms vs on {timings[True] * 1e3:.1f}ms",
    )
    experiment.check(
        "caching does not change results",
        values_by_mode[True] == values_by_mode[False],
    )
    return experiment
