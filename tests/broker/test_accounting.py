"""Cost ledger: billing arithmetic, conservation, end-to-end cost QoC."""

import pytest
from hypothesis import given, strategies as st

from repro.broker.accounting import (
    PRICE_QUANTUM,
    CostLedger,
    execution_cost,
)
from repro.common.ids import NodeId
from repro.core import kernels
from repro.core.qoc import QoC
from repro.provider.core import ProviderConfig
from repro.sim.runner import Simulation


class TestExecutionCost:
    def test_price_quantum(self):
        assert execution_cost(int(PRICE_QUANTUM), 3.0) == pytest.approx(3.0)
        assert execution_cost(int(PRICE_QUANTUM) // 2, 3.0) == pytest.approx(1.5)

    def test_zero_price_is_free(self):
        assert execution_cost(10**9, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            execution_cost(-1, 1.0)
        with pytest.raises(ValueError):
            execution_cost(1, -1.0)


class TestLedger:
    def test_charge_updates_all_views(self):
        ledger = CostLedger()
        amount = ledger.charge(
            NodeId("c1"), NodeId("p1"), "c1/tl-1", int(2e9), price=1.5
        )
        assert amount == pytest.approx(3.0)
        assert ledger.consumers[NodeId("c1")].spent == pytest.approx(3.0)
        assert ledger.providers[NodeId("p1")].earned == pytest.approx(3.0)
        assert ledger.total_billed == pytest.approx(3.0)
        assert ledger.pop_cost_of("c1/tl-1") == pytest.approx(3.0)

    def test_replicas_accumulate_per_tasklet(self):
        ledger = CostLedger()
        ledger.charge(NodeId("c"), NodeId("p1"), "k", int(1e9), 1.0)
        ledger.charge(NodeId("c"), NodeId("p2"), "k", int(1e9), 2.0)
        assert ledger.pop_cost_of("k") == pytest.approx(3.0)

    def test_pop_cost_releases_entry(self):
        ledger = CostLedger()
        ledger.charge(NodeId("c"), NodeId("p"), "k", int(1e9), 1.0)
        assert ledger.pop_cost_of("k") == pytest.approx(1.0)
        assert ledger.pop_cost_of("k") == 0.0
        assert ledger.total_billed == pytest.approx(1.0)  # totals persist

    def test_unknown_parties_cost_nothing(self):
        ledger = CostLedger()
        assert ledger.pop_cost_of("ghost") == 0.0
        assert ledger.consumers == {} and ledger.providers == {}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["c1", "c2", "c3"]),
                st.sampled_from(["p1", "p2"]),
                st.integers(min_value=0, max_value=10**9),
                st.floats(min_value=0, max_value=10),
            ),
            max_size=30,
        )
    )
    def test_conservation_invariant(self, charges):
        ledger = CostLedger()
        for consumer, provider, instructions, price in charges:
            ledger.charge(
                NodeId(consumer), NodeId(provider), f"{consumer}/t", instructions, price
            )
        assert ledger.conservation_holds


class TestCostEndToEnd:
    def _pool(self):
        return [
            ProviderConfig(
                device_class="cheap", capacity=2, speed_ips=10e6, price=1.0
            ),
            ProviderConfig(
                device_class="pricey", capacity=2, speed_ips=100e6, price=10.0
            ),
        ]

    def test_results_carry_cost(self):
        simulation = Simulation(seed=1)
        for config in self._pool():
            simulation.add_provider(config)
        consumer = simulation.add_consumer()
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[500])
        simulation.run(max_time=1e4)
        outcome = future.wait(0)
        assert outcome.ok
        assert outcome.cost > 0
        # broker-side ledger agrees with the consumer-visible cost
        assert simulation.broker.ledger.total_billed == pytest.approx(outcome.cost)

    def test_cost_ceiling_avoids_pricey_providers(self):
        simulation = Simulation(seed=2)
        for config in self._pool():
            simulation.add_provider(config)
        consumer = simulation.add_consumer()
        futures = consumer.library.map(
            kernels.PRIME_COUNT, [[400]] * 6, qoc=QoC(cost_ceiling=2.0)
        )
        simulation.run(max_time=1e4)
        for future in futures:
            outcome = future.wait(0)
            assert outcome.ok
            assert all(
                record.provider_id.startswith("prov-0000")
                for record in outcome.executions
            )
        # Only the cheap provider earned anything.
        ledger = simulation.broker.ledger
        earned_classes = {
            str(provider_id) for provider_id in ledger.providers
        }
        assert len(earned_classes) == 1

    def test_redundancy_multiplies_cost(self):
        def run_with(qoc):
            simulation = Simulation(seed=3)
            for config in self._pool() + self._pool():
                simulation.add_provider(config)
            consumer = simulation.add_consumer()
            future = consumer.library.submit(
                kernels.PRIME_COUNT, args=[500], qoc=qoc
            )
            simulation.run(max_time=1e4)
            return future.wait(0).cost

        single = run_with(QoC())
        redundant = run_with(QoC.reliable(redundancy=3))
        assert redundant >= 2 * single  # >= majority-sized bill

    def test_failed_executions_are_not_billed(self):
        import random

        from repro.broker.core import BrokerConfig
        from repro.provider.failure import ExecutionFailureModel

        simulation = Simulation(
            seed=4, broker_config=BrokerConfig(execution_timeout=1.0)
        )
        dropper, honest = self._pool()
        simulation.add_provider(
            dropper,
            failure_model=ExecutionFailureModel(
                drop_probability=1.0, rng=random.Random(1)
            ),
        )
        simulation.add_provider(honest)
        consumer = simulation.add_consumer()
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[300], qoc=QoC(max_attempts=4)
        )
        simulation.run(max_time=1e3)
        outcome = future.wait(0)
        assert outcome.ok
        ledger = simulation.broker.ledger
        # Only the honest provider's execution was charged.
        assert ledger.total_billed == pytest.approx(outcome.cost)
        assert all(
            account.executions_billed >= 1
            for account in ledger.providers.values()
        )
        assert len(ledger.providers) == 1
