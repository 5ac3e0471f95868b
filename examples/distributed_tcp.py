"""Real deployment: broker, providers, and consumer on actual sockets.

Everything else in ``examples/`` uses the simulator; this script runs the
*same middleware* as real processes on loopback TCP — a broker server,
provider worker processes (each with its own Python interpreter, so TVM
execution runs genuinely in parallel), and a consumer — and distributes a
numeric-integration workload across them.

It also demonstrates the *privacy* QoC goal: a Tasklet marked
``local_only`` executes on the consumer's own TVM and never appears on
the wire.

Run:  python examples/distributed_tcp.py [n_providers]
"""

import sys
import time

from repro import QoC
from repro.core.kernels import NUMERIC_INTEGRATION, python_numeric_integration
from repro.provider.process import spawn_provider_processes
from repro.transport.tcp import TcpBroker, TcpConsumer

TASKS = 12
STEPS_PER_TASK = 3000
SPAN = 12.0


def main() -> None:
    arguments = [argument for argument in sys.argv[1:] if argument.isdigit()]
    n_providers = int(arguments[0]) if arguments else 2

    print(f"starting broker + {n_providers} provider processes...")
    broker = TcpBroker().start()
    host, port = broker.address
    providers = spawn_provider_processes(
        host, port, count=n_providers, benchmark_score=5e6
    )
    try:
        deadline = time.perf_counter() + 20
        while len(broker.core.registry) < n_providers:
            if time.perf_counter() > deadline:
                raise TimeoutError("providers did not register in time")
            time.sleep(0.05)
        print(f"registered: {len(broker.core.registry)} providers "
              f"on tcp://{host}:{port}")

        consumer = TcpConsumer(host, port).start()
        try:
            # Split the integral over [0, SPAN] into per-Tasklet intervals.
            width = SPAN / TASKS
            started = time.perf_counter()
            futures = consumer.library.map(
                NUMERIC_INTEGRATION,
                [[i * width, (i + 1) * width, STEPS_PER_TASK] for i in range(TASKS)],
            )
            pieces = consumer.library.gather(futures, timeout=300)
            elapsed = time.perf_counter() - started
            total = sum(pieces)

            reference = python_numeric_integration(0.0, SPAN, STEPS_PER_TASK * TASKS)
            print(f"\nintegral of sin(x)e^(-x/4) over [0, {SPAN:.0f}]")
            print(f"distributed result : {total:.9f}")
            print(f"reference          : {reference:.9f}")
            print(f"wall time          : {elapsed:.2f} s "
                  f"({TASKS} tasklets on {n_providers} processes)")
            assert abs(total - reference) < 1e-6

            # Privacy goal: this one never leaves the consumer.
            private = consumer.library.submit(
                NUMERIC_INTEGRATION,
                args=[0.0, 1.0, 1000],
                qoc=QoC.private(),
            )
            print(f"local-only tasklet : {private.result(5):.9f} "
                  "(executed on the consumer's own TVM)")
            print("\nOK")
        finally:
            consumer.stop()
    finally:
        for provider in providers:
            provider.stop()
        broker.stop()


if __name__ == "__main__":
    main()
