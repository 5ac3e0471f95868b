"""Full-system simulation: broker + providers + consumers on one event loop.

The same sans-IO cores that run on the real TCP transport are wired here
to a discrete-event loop: messages become events delayed by a network
model, provider execution time becomes virtual delay computed from real
TVM instruction counts (:class:`~repro.provider.simulated.SimProvider`),
and provider churn toggles nodes off and on.

Typical experiment shape::

    sim = Simulation(seed=1, strategy="qoc")
    for config in make_pool({"desktop": 4, "smartphone": 8}):
        sim.add_provider(config)
    consumer = sim.add_consumer()
    futures = consumer.library.map(workload.program, workload.args_list)
    sim.run()
    values = [future.result(0) for future in futures]

Crash semantics: a provider going down (churn) silently loses everything
in flight *from* it — scheduled results, heartbeats — because those
messages would have been sent after the crash.  The broker's failure
detector notices the missing heartbeats and re-issues.  On return, the
provider re-registers with a fresh incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..broker.journal import WorkJournal

from ..broker.core import BrokerConfig, BrokerCore
from ..broker.scheduling import Strategy, make_strategy
from ..common.ids import IdGenerator, NodeId
from ..common.rng import RngRegistry, derive_seed
from ..consumer.core import ConsumerCore
from ..consumer.session import CoreSession
from ..obs.telemetry import Telemetry
from ..provider.core import ProviderConfig, ProviderCore
from ..provider.failure import ExecutionFailureModel
from ..provider.simulated import SimProvider
from ..sim.churn import ChurnModel
from ..sim.eventloop import EventLoop
from ..sim.network import ConstantLatency, NetworkModel
from ..transport.message import Envelope


@dataclass
class _ProviderNode:
    """A provider's availability; messages sent under an earlier
    ``incarnation`` are lost (crash semantics above)."""

    driver: SimProvider
    up: bool = True
    incarnation: int = 0
    churn_iter: object = None  # iterator over (is_up, duration)


class SimConsumer(CoreSession):
    """One consumer node; its envelopes leave through the simulated network."""

    def __init__(self, simulation: "Simulation", node_id: NodeId, base_seed: int):
        self.simulation = simulation
        self.node_id = node_id
        core = ConsumerCore(
            node_id=node_id,
            clock=simulation.loop.clock,
            telemetry=simulation.telemetry,
        )
        super().__init__(core, base_seed)

    def _send(self, envelopes: Sequence[Envelope]) -> None:
        for envelope in envelopes:
            self.simulation.dispatch(envelope)


class Simulation:
    """The simulated Tasklet deployment (see module docstring)."""

    def __init__(
        self,
        seed: int = 0,
        strategy: Strategy | str = "qoc",
        network: NetworkModel | None = None,
        broker_config: BrokerConfig | None = None,
        tick_interval: float = 0.5,
        telemetry: Telemetry | None = None,
        journal: "WorkJournal | None" = None,
    ):
        self.loop = EventLoop()
        self.rng = RngRegistry(seed)
        self.seed = seed
        self.ids = IdGenerator()
        self.network = network or ConstantLatency(0.005)
        #: Shared by every core in this simulation (one registry, one span
        #: store), so the cross-node span tree lands in one place.
        self.telemetry = telemetry
        if isinstance(strategy, str):
            strategy = make_strategy(strategy, seed=seed)
        self.broker = BrokerCore(
            clock=self.loop.clock,
            strategy=strategy,
            config=broker_config or BrokerConfig(),
            telemetry=telemetry,
            journal=journal,
        )
        self.providers: dict[NodeId, _ProviderNode] = {}
        self.consumers: dict[NodeId, SimConsumer] = {}
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Deliveries by message type, e.g. {"heartbeat": 214, ...}.
        self.message_type_counts: dict[str, int] = {}
        self.loop.every(tick_interval, self._broker_tick)

    # -- topology ----------------------------------------------------------

    def add_provider(
        self,
        config: ProviderConfig | None = None,
        churn: ChurnModel | None = None,
        failure_model: ExecutionFailureModel | None = None,
        name: str | None = None,
    ) -> NodeId:
        """Add one provider; returns its node id."""
        node_id = NodeId(name) if name else self.ids.next_node("prov")
        config = config or ProviderConfig()
        core = ProviderCore(
            node_id=node_id,
            clock=self.loop.clock,
            config=config,
            telemetry=self.telemetry,
        )
        sim_provider = _ProviderNode(SimProvider(core, failure_model))
        self.providers[node_id] = sim_provider

        jitter = self.rng.stream("heartbeat-jitter").uniform(
            0, config.heartbeat_interval
        )
        self.loop.every(
            config.heartbeat_interval,
            lambda: self._provider_heartbeat(sim_provider),
            jitter0=jitter,
        )
        self._emit_provider(sim_provider, sim_provider.driver.start())

        if churn is not None:
            sim_provider.churn_iter = churn.sessions()
            self._advance_churn(sim_provider, expect_up=True)
        return node_id

    def add_consumer(self, name: str | None = None) -> SimConsumer:
        """Add one consumer node; returns its session wrapper."""
        node_id = NodeId(name) if name else self.ids.next_node("cons")
        consumer = SimConsumer(
            self, node_id, base_seed=derive_seed(self.seed, node_id)
        )
        self.consumers[node_id] = consumer
        return consumer

    # -- churn ----------------------------------------------------------------

    def _advance_churn(self, sim_provider: _ProviderNode, expect_up: bool) -> None:
        """Consume the next churn segment and schedule the transition."""
        is_up, duration = next(sim_provider.churn_iter)
        if is_up != expect_up:
            # Model starts in the wrong phase; treat as zero-length segment.
            self._advance_churn(sim_provider, expect_up)
            return
        if duration == float("inf"):
            return  # terminal state: no more transitions
        if is_up:
            self.loop.schedule(
                duration, lambda: self._provider_down(sim_provider), background=True
            )
        else:
            self.loop.schedule(
                duration, lambda: self._provider_up(sim_provider), background=True
            )

    def _provider_down(self, sim_provider: _ProviderNode) -> None:
        if not sim_provider.up:
            return
        sim_provider.up = False
        if sim_provider.churn_iter is not None:
            self._advance_churn(sim_provider, expect_up=False)

    def _provider_up(self, sim_provider: _ProviderNode) -> None:
        if sim_provider.up:
            return
        sim_provider.up = True
        sim_provider.incarnation += 1
        self._emit_provider(sim_provider, sim_provider.driver.start())
        if sim_provider.churn_iter is not None:
            self._advance_churn(sim_provider, expect_up=True)

    def set_provider_up(self, node_id: NodeId, up: bool) -> None:
        """Manually toggle a provider (tests and scripted scenarios)."""
        sim_provider = self.providers[node_id]
        if up:
            self._provider_up(sim_provider)
        else:
            self._provider_down(sim_provider)

    # -- message plumbing --------------------------------------------------------

    def dispatch(self, envelope: Envelope, extra_delay: float = 0.0) -> None:
        """Send one envelope through the simulated network."""
        source_provider = self.providers.get(envelope.src)
        incarnation = source_provider.incarnation if source_provider else None
        delay = extra_delay + self.network.delay(
            envelope.src, envelope.dst, envelope
        )
        self.loop.schedule(
            delay, lambda: self._deliver(envelope, incarnation)
        )

    def _deliver(self, envelope: Envelope, src_incarnation: int | None) -> None:
        source_provider = self.providers.get(envelope.src)
        if source_provider is not None:
            # Messages "sent" by a provider that has since crashed (or
            # whose execution spanned a crash) are lost with it.
            if not source_provider.up or (
                src_incarnation is not None
                and source_provider.incarnation != src_incarnation
            ):
                self.messages_dropped += 1
                return
        self.messages_delivered += 1
        self.message_type_counts[envelope.type] = (
            self.message_type_counts.get(envelope.type, 0) + 1
        )

        if envelope.dst == self.broker.node_id:
            for out in self.broker.handle(envelope):
                self.dispatch(out)
            return
        target_provider = self.providers.get(envelope.dst)
        if target_provider is not None:
            if not target_provider.up:
                self.messages_dropped += 1
                return
            self._emit_provider(
                target_provider, target_provider.driver.handle(envelope)
            )
            return
        consumer = self.consumers.get(envelope.dst)
        if consumer is not None:
            for out in consumer.core.handle(envelope):
                self.dispatch(out)
            return
        self.messages_dropped += 1  # unknown destination

    def _emit_provider(self, sim_provider: _ProviderNode, outbound) -> None:
        for delay, envelope in outbound:
            self.dispatch(envelope, extra_delay=delay)

    def _provider_heartbeat(self, sim_provider: _ProviderNode) -> None:
        if sim_provider.up:
            self._emit_provider(sim_provider, sim_provider.driver.tick())

    def _broker_tick(self) -> None:
        for out in self.broker.tick():
            self.dispatch(out)

    # -- execution ----------------------------------------------------------

    def _all_settled(self) -> bool:
        return (
            all(consumer.core.pending == 0 for consumer in self.consumers.values())
            and self.broker.pending_tasklets == 0
            and self.broker.pending_workflows == 0
        )

    def run(self, max_time: float = 1e6) -> float:
        """Run until every submitted Tasklet has a final result (or
        ``max_time`` virtual seconds elapse); returns the stop time."""
        return self.loop.run_until_idle(done=self._all_settled, max_time=max_time)

    def run_for(self, duration: float) -> None:
        """Advance virtual time by exactly ``duration`` seconds."""
        self.loop.run_until(self.loop.now() + duration)

    @property
    def now(self) -> float:
        return self.loop.now()
