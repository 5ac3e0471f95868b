"""F7 — Churn tolerance.

Providers alternate between available and gone (exponential ON/OFF, fixed
mean cycle length); the duty cycle — the fraction of time a provider is
up — sweeps from always-on to mostly-gone.  The middleware recovers
through heartbeat failure detection, execution timeouts, and re-issue.

A final scenario row churns the *broker* instead of the providers: three
federated TCP brokers, the consumer's broker killed mid-workload, with
recovery through consumer failover plus idempotent resubmission.

Shape claims: with re-issue enabled every workload completes down to a 50%
duty cycle; makespan grows as availability falls; the number of lost/
re-issued executions grows as availability falls; the broker-kill run
completes every tasklet exactly once (cross-journal audit), and never on
the broker that was killed.
"""

from __future__ import annotations

import tempfile
import time

from ...broker.core import BrokerConfig
from ...common.errors import BrokerUnreachable
from ...core.kernels import PRIME_COUNT, python_prime_count
from ...core.qoc import QoC
from ...sim.churn import ExponentialChurn
from ...provider.core import ProviderConfig
from ...sim.workloads import prime_count
from ..cluster import LocalCluster, wait_until
from ..harness import Experiment, Table, monotone_increasing
from ..simlib import run_workload


def broker_kill(cluster: LocalCluster, bag: list[tuple[str, int]]):
    """Kill the consumer's broker with ``bag`` in flight.

    ``cluster`` is three peered, journal-backed brokers ``b1``-``b3``.
    Providers join b2 and b3 only, so b1 (the consumer's first choice)
    forwards all it admits; the consumer shares b1's telemetry.  Each
    ``(tasklet_id, limit)`` of ``bag`` is a ``PRIME_COUNT`` submitted
    through b1, which is then stopped with no drain and no goodbye.  The
    consumer fails over on its own and what the kill lost is resubmitted
    under the same ids.

    Returns ``(values, lost, executors)``: each tasklet's value, the ids
    that needed resubmission, and each id's ``executed_by`` set from the
    cross-journal audit.
    """
    cluster.provider("b2", node_id="p2")
    cluster.provider("b3", node_id="p3")
    b1 = cluster.brokers["b1"]
    consumer = cluster.consumer(node_id="kill-consumer", telemetry=b1.telemetry)
    futures = {
        tid: consumer.library.submit(PRIME_COUNT, args=[limit], tasklet_id=tid)
        for tid, limit in bag
    }
    wait_until(
        lambda: b1.core.stats.tasklets_submitted >= len(bag), 15, "b1 to admit the bag"
    )
    cluster.kill("b1")
    values = {}
    for tid, future in futures.items():
        try:
            values[tid] = future.result(timeout=30)
        except BrokerUnreachable:
            pass
    lost = [tid for tid, _ in bag if tid not in values]
    wait_until(lambda: consumer.connected, 15, "consumer failover to a surviving broker")
    for tid, limit in bag:
        if tid in lost:
            values[tid] = consumer.library.submit(
                PRIME_COUNT, args=[limit], tasklet_id=tid
            ).result(timeout=60)
    audit = cluster.executors()
    return values, lost, {tid: audit.get(tid, set()) for tid, _ in bag}


def run(quick: bool = True) -> Experiment:
    duty_cycles = [1.0, 0.9, 0.75, 0.5] if quick else [1.0, 0.9, 0.75, 0.5, 0.3]
    tasks = 180 if quick else 400
    providers = 4
    cycle_s = 3.0
    # Deliberately slow virtual providers (virtual time is free; executed
    # TVM instructions are not), tuned so the timescale hierarchy is
    # realistic: makespan (~15s) >> churn cycle (3s) >> task (~0.3s).
    slow_speed_ips = 100e3
    table = Table(
        title="F7: completion under provider churn (duty-cycle sweep)",
        columns=[
            "duty cycle",
            "ok%",
            "makespan s",
            "executions issued",
            "lost executions",
        ],
    )
    makespans = []
    issued = []
    success_rates = []
    repeats = 2 if quick else 4
    for duty in duty_cycles:
        duty_makespans = []
        duty_issued = []
        duty_failed = []
        duty_success = []
        for repeat in range(repeats):
            workload = prime_count(tasks=tasks, limit=800)
            churn_for = {
                index: ExponentialChurn.from_duty_cycle(
                    duty, cycle_s=cycle_s, seed=500 + 37 * repeat + index
                )
                for index in range(providers)
                if duty < 1.0
            }
            pool = [
                ProviderConfig(
                    device_class="desktop",
                    capacity=1,
                    speed_ips=slow_speed_ips,
                    heartbeat_interval=0.25,
                    startup_overhead_s=0.002,
                )
                for _ in range(providers)
            ]
            outcome = run_workload(
                workload,
                pool=pool,
                qoc=QoC(redundancy=1, max_attempts=10),
                seed=int(duty * 100) + repeat,
                broker_config=BrokerConfig(
                    heartbeat_interval=0.25,
                    heartbeat_tolerance=2.0,
                    execution_timeout=1.5,
                ),
                churn_for=churn_for,
                max_time=3000.0,
            )
            duty_makespans.append(outcome.makespan)
            duty_issued.append(outcome.executions_issued)
            duty_failed.append(outcome.executions_failed)
            duty_success.append(outcome.success_rate)
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731 - local shorthand
        makespans.append(mean(duty_makespans))
        issued.append(mean(duty_issued))
        success_rates.append(min(duty_success))
        table.add_row(
            duty,
            mean(duty_success) * 100,
            makespans[-1],
            issued[-1],
            mean(duty_failed),
        )
    kill_tasks = 8 if quick else 16
    with tempfile.TemporaryDirectory(prefix="repro-f7-") as journal_dir, LocalCluster(
        "b1", "b2", "b3", journal=f"{journal_dir}/journal_{{id}}.jsonl"
    ) as cluster:
        started = time.perf_counter()
        values, lost, executors = broker_kill(
            cluster, [(f"f7-kill-{n}", 500) for n in range(kill_tasks)]
        )
        kill_wall = time.perf_counter() - started
        kill_issued = sum(
            cluster.brokers[bid].core.stats.executions_issued for bid in ("b2", "b3")
        )
    expected = python_prime_count(500)
    kill_ok = sum(1 for value in values.values() if value == expected) / kill_tasks
    executed_by = set().union(*executors.values())
    table.add_row(
        "broker-kill", kill_ok * 100, kill_wall, kill_issued, len(lost)
    )
    table.add_note(
        f"{providers} slow providers, exponential ON/OFF churn with "
        f"{cycle_s:.0f}s mean cycle; recovery: 0.5s heartbeat failure "
        "detector + crash-on-reregister detection + 1.5s execution timeout "
        "+ up to 10 attempts"
    )
    table.add_note(
        "broker-kill row: real TCP, 3 federated journal-backed brokers, the "
        f"consumer's broker killed with {kill_tasks} tasklets in flight; "
        "recovery: automatic consumer failover + idempotent resubmission "
        "('lost executions' counts tasklets resubmitted after the kill); "
        "wall-clock seconds from the providers' start, not virtual"
    )

    experiment = Experiment("F7", table)
    experiment.check(
        "broker kill mid-workload: every tasklet completes",
        kill_ok == 1.0,
        detail=f"{kill_ok:.0%} of {kill_tasks}",
    )
    experiment.check(
        "broker kill mid-workload: exactly one executor per tasklet "
        "(cross-journal audit)",
        all(len(who) == 1 for who in executors.values()),
        detail=f"{kill_issued} executions for {kill_tasks} tasklets",
    )
    experiment.check(
        "broker kill mid-workload: no tasklet executed by the killed broker",
        executed_by <= {"b2", "b3"},
        detail=" ".join(sorted(executed_by)),
    )
    experiment.check(
        "all tasks complete at every duty cycle >= 0.5 (re-issue works)",
        all(rate == 1.0 for rate in success_rates),
        detail=" ".join(f"{r:.0%}" for r in success_rates),
    )
    experiment.check(
        "full availability is the fastest configuration",
        makespans[0] <= min(makespans),
        detail=" -> ".join(f"{m:.1f}s" for m in makespans),
    )
    experiment.check(
        "halving availability at least doubles mean makespan",
        makespans[-1] >= makespans[0] * 2.0,
        detail=f"{makespans[0]:.1f}s -> {makespans[-1]:.1f}s",
    )
    experiment.check(
        "lower availability forces more executions (work is re-issued)",
        monotone_increasing(issued, tolerance=tasks * 0.2),
        detail=" -> ".join(f"{count:.0f}" for count in issued),
    )
    return experiment
