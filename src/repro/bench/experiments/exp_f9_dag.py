"""F9 — Broker-held DAG scheduling vs per-stage consumer round-trips.

A multi-stage Tasklet pipeline can be driven two ways.  The *naive*
consumer runs it stage by stage: submit every node of one topological
level as a batch, wait for all results, inject them into the next
level's arguments, submit again — paying a consumer round-trip (result
delivery + next submission) at every stage boundary.  With
``submit_workflow`` the broker owns the whole graph: it releases a node
the moment its predecessors complete and injects their outputs
broker-side, so the stage boundary costs nothing but the provider
round-trip that the work itself requires.

Shape claims: both drivers produce bit-identical values (checked against
a pure-python oracle); broker-side DAG scheduling beats the per-stage
driver on makespan for every chain of depth >= 3; resubmitting an
identical workflow is fully served from the result cache (zero new
executions); a workflow in flight when the broker dies resumes from the
work journal and finishes with every node executed exactly once.
"""

from __future__ import annotations

import os
import tempfile

from ...broker.journal import WorkJournal, replay_journal
from ...common.serde import opened
from ...core.qoc import QoC
from ...core.tasklet import Tasklet
from ...dag.patterns import butterfly, chain, reference_values, stencil, tree
from ...dag.spec import WorkflowSpec, resolve_arg
from ...sim.devices import make_config
from ...sim.runner import Simulation
from ...tvm.bytecode import CompiledProgram
from ..harness import Experiment, Table

#: Providers per simulated pool (same pool for both drivers).
POOL = 4


def _make_sim(seed: int = 7, journal: WorkJournal | None = None) -> Simulation:
    sim = Simulation(seed=seed, journal=journal)
    for _ in range(POOL):
        sim.add_provider(make_config("desktop"))
    return sim


def _topo_levels(spec: WorkflowSpec) -> list[list[str]]:
    """Topological levels: level 0 has no deps, level N depends on < N."""
    level_of: dict[str, int] = {}
    for node_id in spec.topo_order():
        deps = spec.node(node_id).deps()
        level_of[node_id] = 1 + max((level_of[d] for d in deps), default=-1)
    levels: list[list[str]] = [[] for _ in range(max(level_of.values()) + 1)]
    for node_id, level in level_of.items():
        levels[level].append(node_id)
    return levels


def _run_naive(spec: WorkflowSpec) -> tuple[float, dict[str, object]]:
    """Per-stage driver: one ``submit_tasklets`` + full wait per topo level.

    Returns (makespan in virtual seconds, sink outputs).
    """
    sim = _make_sim()
    consumer = sim.add_consumer()
    programs = {
        fingerprint: CompiledProgram.from_packed(blob)
        for fingerprint, blob in spec.programs.items()
    }
    values: dict[str, object] = {}
    started = sim.now
    for level in _topo_levels(spec):
        tasklets = []
        for node_id in level:
            node = spec.node(node_id)
            tasklets.append(
                Tasklet(
                    tasklet_id=f"{spec.workflow_id}-naive:{node_id}",
                    program=programs[node.program_fingerprint],
                    entry=node.entry,
                    args=[resolve_arg(arg, values) for arg in node.args],
                    qoc=QoC(max_attempts=node.max_attempts),
                    seed=node.seed,
                    fuel=node.fuel,
                )
            )
        futures = consumer.submit_tasklets(tasklets)
        sim.run()
        for node_id, future in zip(level, futures):
            values[node_id] = future.result(0)
    makespan = sim.now - started
    return makespan, {node_id: values[node_id] for node_id in spec.sinks()}


def _run_dag(spec: WorkflowSpec) -> tuple[float, dict[str, object]]:
    """Broker-held driver: one ``submit_workflow``, one wait."""
    sim = _make_sim()
    consumer = sim.add_consumer()
    started = sim.now
    handle = consumer.submit_workflow(spec)
    sim.run()
    return sim.now - started, handle.result(0)


def _memoization_replay() -> tuple[int, int]:
    """Submit the same graph twice (fresh workflow id); returns the second
    submission's (memoized, total) node counts."""
    sim = _make_sim()
    consumer = sim.add_consumer()
    first = chain(4, work=150, salt=3)
    handle = consumer.submit_workflow(first)
    sim.run()
    handle.result(0)
    rerun = WorkflowSpec.from_dict(
        {**first.to_dict(), "workflow_id": "wf-rerun"}
    )
    handle = consumer.submit_workflow(rerun)
    sim.run()
    handle.result(0)
    return handle.nodes_memoized, handle.nodes_total


def _crash_recovery(depth: int) -> tuple[bool, bool, bool]:
    """Kill the broker mid-workflow; resume a fresh one from the journal.

    Returns (recovered_ok, outputs_correct, exactly_once).
    """
    spec = chain(depth, work=400, salt=11)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "journal.jsonl")
        journal = WorkJournal(path)
        sim = _make_sim(journal=journal)
        consumer = sim.add_consumer(name="cons-f9")
        consumer.submit_workflow(spec)
        # Advance until some (not all) nodes have journalled completions,
        # then "crash": abandon the simulation, close the journal.
        for _ in range(200):
            sim.run_for(0.01)
            done = len(replay_journal(path).completions)
            if done >= 1:
                break
        journal.close()
        mid = replay_journal(path)
        crashed_mid_flight = bool(mid.workflows) and len(mid.completions) < depth

        journal = WorkJournal(path)
        sim = _make_sim(journal=journal)  # recovery happens at construction
        sim.run()
        recovered = sim.broker.pending_workflows == 0
        journal.close()

        snapshot = replay_journal(path)
        completed = next(iter(snapshot.workflow_completions.values()), None)
        outputs = completed.outcome.get("outputs", {}) if completed else {}
        reference = reference_values(spec)
        correct = bool(outputs) and all(  # (journalled packed, as they crossed the wire)
            sink in outputs and opened(outputs[sink]) == reference[sink] for sink in spec.sinks()
        )
        # Exactly-once audit: every node key has at most one ok completion
        # record across both broker lifetimes (re-issued nodes journal one;
        # short-circuited nodes journal none beyond the original).
        counts: dict[str, int] = {}
        for completion in snapshot.completions.values():
            if completion.ok:
                counts[completion.key] = counts.get(completion.key, 0) + 1
        exactly_once = (
            crashed_mid_flight
            and recovered
            and all(count == 1 for count in counts.values())
            and len(counts) == depth
        )
        return recovered, correct, exactly_once


def run(quick: bool = True) -> Experiment:
    work = 150 if quick else 400
    cases = [
        ("chain", chain(2, work=work)),
        ("chain", chain(3, work=work)),
        ("chain", chain(4, work=work)),
        ("chain", chain(6, work=work)),
        ("stencil", stencil(4, 3, work=work)),
        ("tree", tree(2, 3, work=work)),
        ("butterfly", butterfly(4, work=work)),
    ]
    table = Table(
        title="F9: broker-held DAG scheduling vs per-stage round-trips",
        columns=[
            "pattern",
            "nodes",
            "depth",
            "naive makespan s",
            "dag makespan s",
            "speedup",
            "correct",
        ],
    )
    chain_rows = []
    all_correct = True
    for name, spec in cases:
        depth = len(_topo_levels(spec))
        reference = reference_values(spec)
        expected = {sink: reference[sink] for sink in spec.sinks()}
        naive_time, naive_outputs = _run_naive(spec)
        dag_time, dag_outputs = _run_dag(spec)
        correct = naive_outputs == expected and dag_outputs == expected
        all_correct = all_correct and correct
        speedup = naive_time / dag_time if dag_time else float("inf")
        if name == "chain":
            chain_rows.append((depth, speedup))
        table.add_row(
            name, len(spec.nodes), depth, naive_time, dag_time, speedup, correct
        )
    table.add_note(
        f"{POOL} desktop providers, 5ms network latency; naive driver pays "
        "result-delivery + resubmission at every stage boundary"
    )

    experiment = Experiment("F9", table)
    experiment.check(
        "both drivers match the pure-python oracle on every pattern",
        all_correct,
    )
    deep_chains = [(depth, s) for depth, s in chain_rows if depth >= 3]
    experiment.check(
        "broker-side DAG beats per-stage driver for chains of depth >= 3",
        all(speedup > 1.0 for _, speedup in deep_chains),
        detail=", ".join(f"depth {d}: {s:.2f}x" for d, s in deep_chains),
    )
    memoized, total = _memoization_replay()
    experiment.check(
        "identical resubmitted workflow is fully memoized",
        memoized == total and total > 0,
        detail=f"{memoized}/{total} nodes from result cache",
    )
    recovered, recovery_correct, exactly_once = _crash_recovery(
        depth=4 if quick else 6
    )
    experiment.check(
        "workflow in flight at broker crash resumes from the journal",
        recovered and recovery_correct,
        detail="outputs match oracle" if recovery_correct else "outputs diverged",
    )
    experiment.check(
        "recovery executes every node exactly once (journal audit)",
        exactly_once,
    )
    return experiment
