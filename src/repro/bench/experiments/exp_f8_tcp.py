"""F8 — Real-transport scaling (wall clock).

Everything else in the evaluation runs on the simulator; this experiment
closes the loop on real infrastructure: the TCP broker, provider
*processes* (own interpreter, GIL-free), and a consumer on loopback
sockets, measuring actual wall-clock speedup of a CPU-bound bag of tasks.

Shape claims: wall-clock time falls as provider processes are added;
2 processes give >= 1.4x (given >= 2 usable cores); results remain correct.
"""

from __future__ import annotations

import os
import time

from ...core.kernels import PRIME_COUNT, python_prime_count
from ...provider.process import spawn_provider_processes
from ...transport.tcp import TcpBroker, TcpConsumer
from ..harness import Experiment, Table, monotone_increasing


def _measure(process_count: int, tasks: int, limit: int) -> tuple[float, bool]:
    broker = TcpBroker().start()
    host, port = broker.address
    providers = spawn_provider_processes(
        host, port, count=process_count, benchmark_score=1e7
    )
    consumer = None
    try:
        deadline = time.perf_counter() + 15.0
        while len(broker.core.registry) < process_count:
            if time.perf_counter() > deadline:
                raise TimeoutError("providers failed to register")
            time.sleep(0.05)
        consumer = TcpConsumer(host, port).start()
        started = time.perf_counter()
        futures = consumer.library.map(PRIME_COUNT, [[limit]] * tasks)
        values = consumer.library.gather(futures, timeout=300)
        elapsed = time.perf_counter() - started
        correct = all(value == python_prime_count(limit) for value in values)
        return elapsed, correct
    finally:
        if consumer is not None:
            consumer.stop()
        for provider in providers:
            provider.stop()
        broker.stop()


def run(quick: bool = True) -> Experiment:
    cores = os.cpu_count() or 1
    process_counts = [1, 2] if quick else [1, 2, 4]
    process_counts = [count for count in process_counts if count <= max(1, cores)]
    tasks = 8 if quick else 16
    limit = 4000 if quick else 8000
    table = Table(
        title="F8: wall-clock scaling on the real TCP transport",
        columns=["provider processes", "wall s", "speedup", "correct"],
    )
    times = []
    speedups = []
    for count in process_counts:
        elapsed, correct = _measure(count, tasks, limit)
        times.append(elapsed)
        speedups.append(times[0] / elapsed)
        table.add_row(count, elapsed, speedups[-1], correct)
    table.add_note(
        f"loopback TCP, provider processes (multiprocessing), host has "
        f"{cores} cores; workload: {tasks} x prime_count({limit})"
    )

    experiment = Experiment("F8", table)
    experiment.check(
        "results over the real transport are correct",
        all(row[3] for row in table.rows),
    )
    experiment.check(
        "wall-clock speedup is monotone in provider processes",
        monotone_increasing(speedups, tolerance=0.1),
        detail=" -> ".join(f"{s:.2f}" for s in speedups),
    )
    if len(process_counts) >= 2 and cores >= 2:
        experiment.check(
            "2 provider processes give >= 1.4x",
            speedups[1] >= 1.4,
            detail=f"{speedups[1]:.2f}x",
        )
    return experiment
