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
from contextlib import ExitStack, contextmanager

from ...core.kernels import PRIME_COUNT, python_prime_count
from ...provider.process import spawn_provider_processes
from ...transport.tcp import TcpBroker, TcpConsumer
from ..harness import Experiment, Table, best_times, monotone_increasing


@contextmanager
def _cluster(process_count: int):
    """A TCP broker with ``process_count`` provider processes registered,
    and a consumer of it; yields the consumer."""
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
        yield consumer
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
    correct, expected = dict.fromkeys(process_counts, True), python_prime_count(limit)

    def bag(count, consumer):
        futures = consumer.library.map(PRIME_COUNT, [[limit]] * tasks)
        values = consumer.library.gather(futures, timeout=300)
        correct[count] &= values == [expected] * tasks

    # One cluster per row, all up while the rows are timed in turn.  A bag
    # takes 15-50 ms on a 2-core host, so one scheduling hiccup moves a row:
    # best of seven read < 1.4x in 2 of 5 standalone runs, fifteen in 0 of 10.
    with ExitStack() as clusters:
        consumers = [clusters.enter_context(_cluster(count)) for count in process_counts]
        times = best_times(
            [lambda count=count, consumer=consumer: bag(count, consumer)
             for count, consumer in zip(process_counts, consumers)],
            repetitions=15,
        )
    speedups = [times[0] / elapsed for elapsed in times]
    for count, elapsed, speedup in zip(process_counts, times, speedups):
        table.add_row(count, elapsed, speedup, correct[count])
    table.add_note(
        f"loopback TCP, provider processes (multiprocessing), host has "
        f"{cores} cores; workload: {tasks} x prime_count({limit}); each "
        f"row's wall is the best of fifteen, the rows timed in turn"
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
