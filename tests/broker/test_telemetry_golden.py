"""Telemetry golden digest: the broker's observable output, pinned.

One seeded simulator run plus one two-broker federation script, both
with ``Telemetry()`` on, reduced to a digest of everything the broker
tells the outside world about its lifecycle decisions: every
counter/gauge sample (name + labels), histogram observation counts,
flight-recorder event kinds in order, the ``(span name, status,
has-parent)`` list in recording order, and ``BrokerStats``.  Ids and
timestamps are excluded, so the digest is stable across processes.

``golden_telemetry_digest.json`` was generated at commit ``c922a4d``
(before ``BrokerCore`` was split along its seams) and is the contract a
broker refactor must keep: same facts, same order.  Regenerate it only
when telemetry is *meant* to change::

    PYTHONPATH=src:. python tests/broker/test_telemetry_golden.py
"""

import dataclasses
import json
from pathlib import Path

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.federation import FederationConfig
from repro.broker.scheduling import LeastLoadedStrategy
from repro.common.ids import NodeId
from repro.core import kernels
from repro.core.qoc import QoC
from repro.dag.patterns import chain, stencil
from repro.obs import Telemetry
from repro.obs.metrics import Histogram
from repro.provider.failure import ExecutionFailureModel
from repro.sim.devices import make_config, make_pool
from repro.sim.runner import Simulation
from repro.transport.message import AssignExecution, TaskletComplete

from tests.broker.test_federation import FedHarness, bodies, result_of

GOLDEN = Path(__file__).with_name("golden_telemetry_digest.json")


def _digest(telemetry: Telemetry, cores: dict[str, BrokerCore]) -> dict:
    metrics: dict[str, float] = {}
    for family in telemetry.registry.families():
        for labelvalues, child in family.children():
            labels = ",".join(
                f"{name}={value}"
                for name, value in zip(family.labelnames, labelvalues)
            )
            sample = f"{family.name}{{{labels}}}"
            if isinstance(child, Histogram):
                metrics[sample + "#count"] = child.count
            else:
                metrics[sample] = round(child.value, 6)
    return {
        "metrics": dict(sorted(metrics.items())),
        "events": [event.kind for event in telemetry.events.events()],
        "spans": [
            [span.name, span.status, span.parent_id is not None]
            for span in telemetry.spans.spans()
        ],
        "stats": {
            name: dataclasses.asdict(core.stats) for name, core in cores.items()
        },
    }


def _sim_digest() -> dict:
    """Plain tasklets (incl. redundancy 3), a provider killed mid-run, a
    black-hole provider whose executions time out, a memo hit, a chain
    workflow, and a stencil workflow with one failing node."""
    telemetry = Telemetry(span_capacity=1 << 16)
    simulation = Simulation(
        seed=13,
        telemetry=telemetry,
        broker_config=BrokerConfig(execution_timeout=4.0),
    )
    pool = [
        simulation.add_provider(config)
        for config in make_pool({"desktop": 2, "laptop": 2}, seed=13)
    ]
    # Fastest device in the pool, so the strategy favours it — and it
    # never reports a result: every replica placed there times out.
    simulation.add_provider(
        make_config("server"),
        failure_model=ExecutionFailureModel(drop_probability=1.0),
        name="blackhole",
    )
    consumer = simulation.add_consumer()
    program = consumer.library.compile(kernels.PRIME_COUNT)

    plain = [
        consumer.library.submit(
            program, args=[limit], qoc=QoC(max_attempts=3), seed=1
        )
        for limit in (400, 500, 600, 700, 800, 900)
    ]
    voted = [
        consumer.library.submit(
            program, args=[limit], qoc=QoC(redundancy=3, max_attempts=2), seed=1
        )
        for limit in (1000, 1100)
    ]
    # Assignments reach the providers at t=0.010; this one dies holding
    # its share, is declared dead by the failure detector, and rejoins.
    simulation.loop.schedule(
        0.011, lambda: simulation.set_provider_up(pool[0], False), background=True
    )
    simulation.loop.schedule(
        6.0, lambda: simulation.set_provider_up(pool[0], True), background=True
    )
    simulation.run(max_time=1e4)
    assert [f.result(0) for f in plain] == [
        kernels.python_prime_count(n) for n in (400, 500, 600, 700, 800, 900)
    ]
    assert [f.result(0) for f in voted] == [
        kernels.python_prime_count(n) for n in (1000, 1100)
    ]

    # Same computation as plain[0] under a new id: served from the cache.
    memo = consumer.library.submit(program, args=[400], seed=1)
    simulation.run(max_time=1e4)
    assert memo.result(0) == kernels.python_prime_count(400)

    ok_flow = consumer.submit_workflow(chain(3, max_attempts=3))
    simulation.run(max_time=1e4)
    assert ok_flow.result(0)

    doomed = stencil(3, 3, max_attempts=3)
    doomed.node("s1x1").fuel = 50  # exhausts its fuel on every attempt
    failed_flow = consumer.submit_workflow(doomed)
    simulation.run(max_time=1e4)
    assert failed_flow.exception(0) is not None

    stats = simulation.broker.stats
    assert stats.executions_timed_out > 0 and stats.executions_lost > 0
    assert stats.memo_hits >= 1 and stats.providers_failed >= 1
    assert stats.workflows_completed == 1 and stats.workflows_failed == 1
    return _digest(telemetry, {"broker": simulation.broker})


class _TelemetryFedHarness(FedHarness):
    """``FedHarness`` whose cores share one ``Telemetry``."""

    def __init__(self, telemetry: Telemetry):
        self.telemetry = telemetry
        super().__init__()

    def _build_core(self, broker_id, epoch, with_journal=False,
                    peer_journals=False):
        return BrokerCore(
            clock=self.clock,
            strategy=LeastLoadedStrategy(),
            config=BrokerConfig(execution_timeout=None),
            node_id=NodeId(broker_id),
            federation=FederationConfig(
                peers=[other for other in self.ids if other != broker_id],
                epoch=epoch,
            ),
            telemetry=self.telemetry,
        )


def _federation_digest() -> dict:
    """Forward round trip, reclaim on peer restart, peer death."""
    telemetry = Telemetry()
    fed = _TelemetryFedHarness(telemetry)
    fed.add_provider("b2", "p1")
    fed.tick_all()  # gossip: b1 learns b2 has free slots
    _tasklet_id, out = fed.submit("b1")
    (assign,) = bodies(out, AssignExecution)
    out = fed.send("b2", result_of(assign, "p1", fed.clock), src="p1")
    assert len(bodies(out, TaskletComplete)) == 1

    # Forwarded again, then b2 restarts under a new epoch: b1 reclaims
    # the work and runs it on a provider of its own.
    _tasklet_id, out = fed.submit("b1", args=[5])
    assert len(bodies(out, AssignExecution)) == 1
    first_b2 = fed.cores["b2"]
    fed.restart("b2", epoch="b2-epoch2")
    fed.tick_all()
    out = fed.add_provider("b1", "p0")
    (assign,) = bodies(out, AssignExecution)
    out = fed.send("b1", result_of(assign, "p0", fed.clock, value=10), src="p0")
    assert len(bodies(out, TaskletComplete)) == 1

    fed.down.add("b2")
    for _ in range(5):
        fed.tick_all()
    b1 = fed.cores["b1"].stats
    assert b1.tasklets_forwarded == 2 and b1.forwards_reclaimed == 1
    assert b1.forwards_completed == 1
    assert first_b2.stats.forwards_received == 2
    return _digest(telemetry, {**fed.cores, "b2-before-restart": first_b2})


def build_digest() -> dict:
    return {"simulation": _sim_digest(), "federation": _federation_digest()}


def test_telemetry_digest_matches_golden():
    digest = json.loads(json.dumps(build_digest()))
    golden = json.loads(GOLDEN.read_text())
    for scenario in golden:
        for section in golden[scenario]:
            assert digest[scenario][section] == golden[scenario][section], (
                f"{scenario}/{section} diverged from the golden digest"
            )
    assert digest == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build_digest(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
