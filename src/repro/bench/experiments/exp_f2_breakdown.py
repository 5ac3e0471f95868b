"""F2 — Middleware round-trip decomposition.

Where does the time of one offloaded Tasklet go?  We run a single Tasklet
through the full simulated middleware on a bandwidth-modelled network and
decompose its end-to-end latency into: code+data transfer to the provider
(network), provider-side startup overhead + execution, and result return,
sweeping the kernel's computational size.

Shape claims: for tiny Tasklets the fixed middleware overhead dominates
(offloading does not pay); as compute grows, execution share approaches
100% and overhead share falls below 10% — the crossover the paper uses to
argue Tasklets should not be too fine-grained.
"""

from __future__ import annotations

from ...broker.core import BrokerConfig
from ...common.ids import NodeId
from ...core.qoc import QoC
from ...sim.devices import make_config
from ...sim.runner import Simulation
from ...sim.workloads import prime_count
from ...transport.codec import encode_envelope
from ...transport.message import Envelope
from ..harness import Experiment, Table, monotone_increasing


def wire_size(envelope: Envelope) -> int:
    """Exact size of this envelope on the real TCP transport, in bytes."""
    return len(encode_envelope(envelope))


class BandwidthLatency:
    """Base propagation delay plus serialisation over a shared-class link.

    ``bandwidth_bps`` is applied to the message's actual encoded size, so
    shipping a large compiled program costs proportionally more than a
    heartbeat — the effect the F2 breakdown measures.
    """

    def __init__(self, base_s: float = 0.002, bandwidth_bps: float = 100e6):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.base_s = base_s
        self.bandwidth_bps = bandwidth_bps

    def delay(self, src: NodeId, dst: NodeId, envelope: Envelope) -> float:
        return self.base_s + wire_size(envelope) * 8.0 / self.bandwidth_bps


def _one_roundtrip(limit: int, seed: int) -> dict:
    simulation = Simulation(
        seed=seed,
        network=BandwidthLatency(base_s=0.002, bandwidth_bps=50e6),
        broker_config=BrokerConfig(execution_timeout=None),
    )
    config = make_config("desktop")
    simulation.add_provider(config)
    consumer = simulation.add_consumer()
    workload = prime_count(tasks=1, limit=limit)
    future = consumer.library.submit(
        workload.program, args=workload.args_list[0], qoc=QoC()
    )
    simulation.run(max_time=1e4)
    result = future.wait(0)
    assert result.ok, result.error
    record = result.executions[0]
    execution_s = record.duration  # startup overhead + compute
    total_s = result.latency
    transfer_s = total_s - execution_s  # submit + assign + result legs
    return {
        "limit": limit,
        "total_ms": total_s * 1e3,
        "transfer_ms": transfer_s * 1e3,
        "startup_ms": config.startup_overhead_s * 1e3,
        "execute_ms": (execution_s - config.startup_overhead_s) * 1e3,
        "overhead_share": (total_s - (execution_s - config.startup_overhead_s))
        / total_s,
    }


def run(quick: bool = True) -> Experiment:
    limits = (
        [100, 400, 1600, 6400, 25600]
        if quick
        else [100, 400, 1600, 6400, 25600, 102400]
    )
    table = Table(
        title="F2: round-trip decomposition of one offloaded Tasklet",
        columns=[
            "kernel size (limit)",
            "total ms",
            "transfer ms",
            "startup ms",
            "execute ms",
            "overhead share",
        ],
    )
    shares = []
    totals = []
    for index, limit in enumerate(limits):
        point = _one_roundtrip(limit, seed=10 + index)
        shares.append(point["overhead_share"])
        totals.append(point["total_ms"])
        table.add_row(
            limit,
            point["total_ms"],
            point["transfer_ms"],
            point["startup_ms"],
            point["execute_ms"],
            point["overhead_share"],
        )
    table.add_note(
        "network: 2ms base + 50 Mbit/s bandwidth model; provider: desktop class"
    )

    experiment = Experiment("F2", table)
    experiment.check(
        "middleware overhead dominates tiny Tasklets (share > 50% at smallest)",
        shares[0] > 0.5,
        detail=f"share={shares[0]:.0%}",
    )
    experiment.check(
        "overhead share falls monotonically with Tasklet size",
        monotone_increasing([-s for s in shares]),
        detail=" -> ".join(f"{s:.0%}" for s in shares),
    )
    experiment.check(
        "compute dominates the largest Tasklets (share < 25% at largest)",
        shares[-1] < 0.25,
        detail=f"share={shares[-1]:.0%}",
    )
    experiment.check(
        "total latency grows with kernel size",
        monotone_increasing(totals),
    )
    return experiment
