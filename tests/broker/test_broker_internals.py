"""Structure of the split broker: dispatch, the one drain, the observer.

Behaviour is pinned elsewhere (``test_broker_core``, the protocol fuzz,
the telemetry golden digest); these tests pin the seams themselves.
"""

import dataclasses

from repro.broker.core import BrokerCore
from repro.broker.federation import FederationConfig
from repro.broker.observer import LifecycleObserver, TelemetryObserver
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.core import kernels
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.obs import Telemetry
from repro.sim.devices import make_pool
from repro.sim.runner import Simulation
from repro.transport.message import (
    ForwardTasklet,
    GossipDigest,
    Heartbeat,
    RegisterProvider,
    SubmitTasklet,
)
from repro.tvm.compiler import compile_source

PROGRAM = compile_source("func main(x: int) -> int { return x + 1; }")


def _send(broker, body, src):
    return broker.handle(body.envelope(NodeId(src), broker.node_id))


def _register(broker, name, capacity=1):
    return _send(
        broker,
        RegisterProvider(
            provider_id=name, device_class="d", capacity=capacity,
            benchmark_score=1e6,
        ),
        name,
    )


def _backlogged_broker(queued):
    """One single-slot provider, ``queued`` tasklets waiting behind it."""
    broker = BrokerCore(clock=VirtualClock())
    _register(broker, "p0")
    for index in range(queued + 1):
        tasklet = Tasklet(
            tasklet_id=TaskletId(f"tl-{index}"), program=PROGRAM, entry="main",
            args=[index], qoc=QoC(),
        )
        _send(broker, SubmitTasklet(tasklet=tasklet.to_dict()), "c0")
    assert len(broker._backlog) == queued
    return broker


def _count_select_calls(broker):
    calls = []
    original = broker.strategy.select

    def counting(views, count, qoc):
        calls.append(count)
        return original(views, count, qoc)

    broker.strategy.select = counting  # looked up on the instance per call
    return calls


def test_heartbeat_drains_the_backlog_exactly_once():
    broker = _backlogged_broker(queued=50)
    calls = _count_select_calls(broker)
    out = _send(broker, Heartbeat(provider_id="p0", free_slots=0), "p0")
    assert out == []  # nothing freed, nothing placed
    assert len(calls) == 50  # one placement attempt per backlogged tasklet


def test_registration_drains_the_backlog_exactly_once():
    broker = _backlogged_broker(queued=50)
    calls = _count_select_calls(broker)
    out = _register(broker, "p1")
    assert [envelope.type for envelope in out] == ["register_ack", "assign_execution"]
    assert len(calls) == 50
    assert len(broker._backlog) == 49


def test_federation_handlers_exist_only_on_a_federated_broker():
    standalone = BrokerCore(clock=VirtualClock())
    assert standalone.forwarding is None
    assert ForwardTasklet not in standalone._handlers
    assert GossipDigest not in standalone._handlers
    federated = BrokerCore(
        clock=VirtualClock(),
        node_id=NodeId("b1"),
        federation=FederationConfig(peers=["b2"], epoch="e1"),
    )
    assert federated._handlers[ForwardTasklet] == federated.forwarding.on_forward
    # A peer message reaching a standalone broker is ignored, not fatal.
    digest = GossipDigest(broker_id="b2", epoch="e", sent_at=0.0)
    assert _send(standalone, digest, "b2") == []


def test_observer_kind_follows_telemetry():
    assert type(BrokerCore(clock=VirtualClock()).observer) is LifecycleObserver
    traced = BrokerCore(clock=VirtualClock(), telemetry=Telemetry())
    assert isinstance(traced.observer, TelemetryObserver)
    assert traced.stats is traced.observer.stats
    assert traced.health is traced.observer.health is not None


def _run(telemetry):
    simulation = Simulation(seed=5, telemetry=telemetry)
    for config in make_pool({"desktop": 1, "laptop": 2}, seed=5):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    program = consumer.library.compile(kernels.PRIME_COUNT)
    futures = [
        consumer.library.submit(
            program, args=[limit], qoc=QoC(redundancy=redundancy), seed=1
        )
        for limit, redundancy in ((300, 1), (400, 3), (300, 1), (500, 1))
    ]
    simulation.run(max_time=1e4)
    assert all(future.done for future in futures)
    return dataclasses.asdict(simulation.broker.stats)


def test_stats_do_not_depend_on_the_observer_kind():
    assert _run(None) == _run(Telemetry())
