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
    ExecutionResult,
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
    assert len(broker.backlog) == queued
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
    assert calls == []  # no free slot: the backlog is not even looked at
    assert len(broker.backlog) == 50


def test_registration_drains_the_backlog_exactly_once():
    broker = _backlogged_broker(queued=50)
    waiting = list(broker.backlog)
    calls = _count_select_calls(broker)
    out = _register(broker, "p1")
    assert [envelope.type for envelope in out] == ["register_ack", "assign_execution"]
    assert out[1].payload["tasklet_id"] == "tl-1"  # the oldest one waiting
    assert calls == [1]  # one slot came free: one placement, then stop
    assert list(broker.backlog) == waiting[1:]  # 49 left, still FIFO


def test_unplaceable_head_does_not_block_the_queue():
    broker = BrokerCore(clock=VirtualClock())
    _register(broker, "p0", capacity=2)
    head = Tasklet(
        tasklet_id=TaskletId("head"), program=PROGRAM, entry="main", args=[0],
        qoc=QoC(redundancy=2),
    )
    # One replica runs on p0, the only provider; its twin must not join
    # it there, so it queues although p0 still has a free slot.
    out = _send(broker, SubmitTasklet(tasklet=head.to_dict()), "c0")
    assert [e.type for e in out] == ["assign_execution"]  # (an accepted submit is not acked)
    assert list(broker.backlog) == ["c0/head"]
    assert broker.registry.free_capacity == 1
    behind = Tasklet(
        tasklet_id=TaskletId("behind"), program=PROGRAM, entry="main", args=[1],
        qoc=QoC(),
    )
    # Fill the slot, queue ``behind``, then free the slot again.
    filler = Tasklet(
        tasklet_id=TaskletId("filler"), program=PROGRAM, entry="main", args=[2],
        qoc=QoC(),
    )
    out = _send(broker, SubmitTasklet(tasklet=filler.to_dict()), "c0")
    filler_execution = out[0].payload["execution_id"]
    _send(broker, SubmitTasklet(tasklet=behind.to_dict()), "c0")
    assert list(broker.backlog) == ["c0/head", "c0/behind"]
    out = _send(
        broker,
        ExecutionResult(
            execution_id=filler_execution, tasklet_id="filler", provider_id="p0",
            status="success", value=3, instructions=4,
        ),
        "p0",
    )
    # The same drain that stepped over the head placed the tasklet behind it.
    assigned = [e.payload["tasklet_id"] for e in out if e.type == "assign_execution"]
    assert assigned == ["behind"]
    assert list(broker.backlog) == ["c0/head"]  # still first in line
    assert broker.backlog.replicas == 1


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
