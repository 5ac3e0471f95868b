"""The benchmark's loopback-TCP cluster and its life cycle.

One benchmark process hosts the ``TcpBroker`` (so ``broker.core.stats``
is readable) and one ``TcpConsumer``; each provider is an OS process
running ``provider_child.py``.  Everything binds port 0, registration is
awaited against a deadline, and the provider processes are killed on any
exit path, including the hard timeout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.transport.tcp import TcpBroker, TcpConsumer

from tracing import Tracer, merge

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

PROVIDERS = 2
CAPACITY = 4
SLOTS = PROVIDERS * CAPACITY

#: Both provider processes must be up and registered within this long.
REGISTRATION_DEADLINE_S = 30.0


class ClusterError(RuntimeError):
    """The cluster could not be brought up or a provider process died."""


class ProviderProcess:
    """One ``provider_child.py`` process and its command pipe."""

    def __init__(self, host: str, port: int, node_id: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.node_id = node_id
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "provider_child.py"),
                "--host", host,
                "--port", str(port),
                "--capacity", str(CAPACITY),
                "--node-id", node_id,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def read_reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise ClusterError(
                f"provider {self.node_id} exited with {self.process.poll()}"
            )
        return json.loads(line)

    def send(self, command: str) -> None:
        try:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()
        except OSError as exc:
            raise ClusterError(f"provider {self.node_id} is gone: {exc}") from exc

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self.send("stop")
            self.process.wait(timeout)
        except (ClusterError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass


@dataclasses.dataclass
class Mark:
    """Resource and counter readings at one instant."""

    at_ns: int
    bench_cpu_s: float
    provider_cpu_s: float
    provider_peak_rss_mb: float
    stats: dict


class Cluster:
    """Broker + consumer in this process, providers in their own."""

    def __init__(self, seed: int, deadline: float):
        """``deadline`` is a ``time.monotonic()`` instant: past it, the
        provider processes are killed and the benchmark process exits."""
        self.seed = seed
        self.broker: TcpBroker | None = None
        self.consumer: TcpConsumer | None = None
        self.providers: list[ProviderProcess] = []
        self._tracer: Tracer | None = None
        self._watchdog = threading.Timer(
            max(0.0, deadline - time.monotonic()), self._abort
        )
        self._watchdog.daemon = True

    # -- life cycle -----------------------------------------------------------

    def start(self) -> "Cluster":
        deadline = time.monotonic() + REGISTRATION_DEADLINE_S
        self._watchdog.start()
        self.broker = TcpBroker(port=0).start()
        host, port = self.broker.address
        self.providers = [
            ProviderProcess(host, port, f"prov-{index}") for index in range(PROVIDERS)
        ]
        for provider in self.providers:
            provider.read_reply()  # {"ready": true}, or raises if it died
        registry = self.broker.core.registry
        while len(registry.alive_providers()) < PROVIDERS:
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"{len(registry.alive_providers())}/{PROVIDERS} providers "
                    f"registered after {REGISTRATION_DEADLINE_S}s"
                )
            time.sleep(0.002)
        self.consumer = TcpConsumer(host, port, base_seed=self.seed).start()
        return self

    def stop(self) -> None:
        """Orderly stop; callers drain their futures first."""
        self._watchdog.cancel()
        if self._tracer is not None:
            self._tracer.uninstall()
            self._tracer = None
        if self.consumer is not None:
            self.consumer.stop()
        for provider in self.providers:
            provider.stop()
        if self.broker is not None:
            self.broker.stop()

    def __enter__(self) -> "Cluster":
        try:
            return self.start()
        except BaseException:
            self.kill_providers()
            raise

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.kill_providers()
        self.stop()

    def kill_providers(self) -> None:
        for provider in self.providers:
            provider.kill()

    def _abort(self) -> None:
        """Hard timeout: a wedged run must not outlive its budget."""
        print("benchmark: hard timeout, killing the cluster", file=sys.stderr)
        self.kill_providers()
        os._exit(3)

    # -- measurement ----------------------------------------------------------

    def _ask_providers(self, command: str) -> list[dict]:
        for provider in self.providers:
            provider.send(command)
        return [provider.read_reply() for provider in self.providers]

    def mark(self) -> Mark:
        at_ns = time.monotonic_ns()
        bench_cpu_s = time.process_time()
        usages = self._ask_providers("usage")
        return Mark(
            at_ns=at_ns,
            bench_cpu_s=bench_cpu_s,
            provider_cpu_s=sum(usage["cpu_s"] for usage in usages),
            provider_peak_rss_mb=sum(usage["peak_rss_kb"] for usage in usages) / 1024.0,
            stats=dataclasses.asdict(self.broker.core.stats),
        )

    def trace_on(self) -> None:
        self._ask_providers("trace_on")
        self._tracer = Tracer()
        self._tracer.install_bench(self.broker.core)

    def trace_off(self) -> dict:
        """Remove every shim; returns the merged trace of all processes."""
        self._tracer.uninstall()
        dumps = {"bench": self._tracer.dump()}
        self._tracer = None
        for provider, dump in zip(self.providers, self._ask_providers("trace_off")):
            dumps[provider.node_id] = dump
        return merge(dumps)
