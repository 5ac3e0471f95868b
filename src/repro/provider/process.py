"""A provider in its own OS process.

For *parallel* scaling on one machine (experiment F8): each
:class:`~repro.transport.tcp.TcpProvider` lives in its own process, so
TVM execution escapes the GIL.
"""

from __future__ import annotations

import multiprocessing

from ..common.ids import random_id
from ..transport.tcp import TcpProvider, _Node


def _provider_process_main(stop_event, *args, **kwargs) -> None:
    provider = TcpProvider(*args, **kwargs).start()
    stop_event.wait()
    provider.stop()


class ProviderProcess(_Node):
    """A provider running in its own OS process (GIL-free parallelism)."""

    def __init__(
        self,
        broker_host: str,
        broker_port: int,
        capacity: int = 1,
        device_class: str = "host",
        node_id: str | None = None,
        benchmark_score: float | None = None,
    ):
        self.node_id = node_id or random_id("prov")
        self._stop_event = multiprocessing.Event()
        self._process = multiprocessing.Process(
            target=_provider_process_main,
            args=(self._stop_event, broker_host, broker_port),
            kwargs=dict(
                capacity=capacity,
                device_class=device_class,
                node_id=self.node_id,
                benchmark_score=benchmark_score,
            ),
            daemon=True,
        )

    def start(self) -> "ProviderProcess":
        self._process.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)

    def kill(self) -> None:
        """Crash the provider process: no unregister, no drain, no goodbye.

        Fault-injection helper — from the broker's point of view this is a
        provider dying mid-execution, recovered by the heartbeat failure
        detector (or by flap recovery if the same node id returns).
        """
        if self._process.is_alive():
            self._process.kill()
        self._process.join(5.0)


def spawn_provider_processes(
    broker_host: str,
    broker_port: int,
    count: int,
    capacity: int = 1,
    benchmark_score: float | None = None,
) -> list[ProviderProcess]:
    """Start ``count`` single-capacity provider processes; caller stops them."""
    processes = [
        ProviderProcess(
            broker_host,
            broker_port,
            capacity=capacity,
            device_class="host",
            node_id=f"prov-p{i}",
            benchmark_score=benchmark_score,
        )
        for i in range(count)
    ]
    for process in processes:
        process.start()
    return processes
