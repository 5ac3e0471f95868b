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
completes every tasklet exactly once (cross-journal audit).
"""

from __future__ import annotations

import socket
import tempfile
import time

from ...broker.core import BrokerConfig
from ...broker.journal import replay_journal
from ...common.errors import BrokerUnreachable
from ...core.kernels import PRIME_COUNT, python_prime_count
from ...core.qoc import QoC
from ...sim.churn import ExponentialChurn
from ...provider.core import ProviderConfig
from ...sim.workloads import prime_count
from ...transport.tcp import TcpBroker, TcpConsumer, TcpProvider
from ..harness import Experiment, Table, monotone_increasing
from ..simlib import run_workload


def _free_ports(count: int) -> list[int]:
    sockets = []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
    ports = [sock.getsockname()[1] for sock in sockets]
    for sock in sockets:
        sock.close()
    return ports


def _wait(predicate, deadline_s: float, what: str) -> None:
    deadline = time.perf_counter() + deadline_s
    while not predicate():
        if time.perf_counter() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.02)


def _broker_kill_scenario(tasks: int, limit: int, journal_dir: str):
    """Kill the consumer's broker mid-workload in a 3-broker federation.

    Returns ``(ok_rate, wall_s, executions_issued, lost, exactly_once)``
    where ``lost`` counts tasklets that needed failover resubmission and
    ``exactly_once`` is the cross-journal audit: every tasklet was
    executed by exactly one broker.
    """
    ids = ("b1", "b2", "b3")
    ports = _free_ports(len(ids))
    addresses = {bid: ("127.0.0.1", port) for bid, port in zip(ids, ports)}
    journals = {bid: f"{journal_dir}/{bid}.jsonl" for bid in ids}
    config = BrokerConfig(
        heartbeat_interval=0.2, heartbeat_tolerance=3.0, execution_timeout=30.0
    )
    brokers = {
        bid: TcpBroker(
            host="127.0.0.1",
            port=addresses[bid][1],
            config=config,
            journal_path=journals[bid],
            broker_id=bid,
            peers={o: addresses[o] for o in ids if o != bid},
            peer_journals={o: journals[o] for o in ids if o != bid},
            gossip_interval=0.2,
        ).start()
        for bid in ids
    }
    providers = []
    consumer = None
    try:
        for bid, name in (("b2", "p2"), ("b3", "p3")):
            providers.append(
                TcpProvider(
                    *addresses[bid], node_id=name, capacity=2,
                    benchmark_score=1e7,
                ).start()
            )

        def peer_ready(peer_id):
            peer = brokers["b1"].core.federation.peers.get(peer_id)
            return peer is not None and peer.alive and peer.free_slots > 0

        _wait(
            lambda: peer_ready("b2") and peer_ready("b3"),
            15, "gossip to carry peer capacity",
        )
        consumer = TcpConsumer(
            node_id="f7-consumer", brokers=[addresses[bid] for bid in ids]
        ).start()
        started = time.perf_counter()
        futures = {
            f"f7-kill-{n}": consumer.library.submit(
                PRIME_COUNT, args=[limit], tasklet_id=f"f7-kill-{n}"
            )
            for n in range(tasks)
        }
        _wait(
            lambda: brokers["b1"].core.stats.tasklets_submitted >= tasks,
            15, "admission",
        )
        brokers["b1"].stop()  # the kill: no drain, no goodbye
        values = {}
        for tid, future in futures.items():
            try:
                values[tid] = future.result(timeout=30)
            except BrokerUnreachable:
                pass
        lost = tasks - len(values)
        _wait(lambda: consumer.connected, 15, "failover")
        for tid in futures:
            if tid not in values:
                values[tid] = consumer.library.submit(
                    PRIME_COUNT, args=[limit], tasklet_id=tid
                ).result(timeout=60)
        wall = time.perf_counter() - started
        expected = python_prime_count(limit)
        ok = sum(1 for value in values.values() if value == expected)
        issued = sum(
            brokers[bid].core.stats.executions_issued for bid in ("b2", "b3")
        )
        executors: dict[str, set] = {tid: set() for tid in futures}
        for path in journals.values():
            for completion in replay_journal(path).completions.values():
                if completion.tasklet_id in executors and completion.executed_by:
                    executors[completion.tasklet_id].add(completion.executed_by)
        exactly_once = all(len(who) == 1 for who in executors.values())
        return ok / tasks, wall, issued, lost, exactly_once
    finally:
        if consumer is not None:
            consumer.stop()
        for provider in providers:
            provider.stop()
        for broker in brokers.values():
            try:
                broker.stop()
            except Exception:
                pass


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
    with tempfile.TemporaryDirectory(prefix="repro-f7-") as journal_dir:
        kill_ok, kill_wall, kill_issued, kill_lost, exactly_once = (
            _broker_kill_scenario(kill_tasks, limit=500, journal_dir=journal_dir)
        )
    table.add_row(
        "broker-kill", kill_ok * 100, kill_wall, kill_issued, kill_lost
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
        "wall-clock seconds, not virtual"
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
        exactly_once,
        detail=f"{kill_issued} executions for {kill_tasks} tasklets",
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
