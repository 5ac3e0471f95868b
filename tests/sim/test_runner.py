"""Full-system simulation: correctness, QoC end-to-end, determinism."""

import random

from repro.bench.simlib import mandelbrot
from repro.broker.core import BrokerConfig
from repro.core import kernels
from repro.core.qoc import QoC
from repro.provider.failure import ExecutionFailureModel
from repro.sim.churn import TraceChurn
from repro.sim.devices import make_pool
from repro.sim.runner import Simulation
from repro.sim.workloads import prime_count
from repro.provider.core import ProviderConfig


def build(seed=1, spec=None, **kwargs):
    simulation = Simulation(seed=seed, **kwargs)
    for config in make_pool(spec or {"desktop": 2}, seed=seed):
        simulation.add_provider(config)
    return simulation


class TestBasicExecution:
    def test_results_match_reference(self):
        simulation = build()
        consumer = simulation.add_consumer()
        workload = mandelbrot(width=24, height=8, max_iter=20)
        futures = consumer.library.map(workload.program, workload.args_list)
        simulation.run(max_time=1e4)
        for y, future in enumerate(futures):
            assert future.done
            assert future.result(0) == kernels.python_mandelbrot_row(y, 24, 8, 20)

    def test_virtual_time_advances_realistically(self):
        simulation = build()
        consumer = simulation.add_consumer()
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[1000], qoc=QoC()
        )
        stop = simulation.run(max_time=1e4)
        outcome = future.wait(0)
        assert outcome.ok
        # latency = network + startup + compute; all strictly positive.
        assert 0 < outcome.latency <= stop

    def test_multiple_consumers_are_isolated(self):
        simulation = build(spec={"desktop": 3})
        first = simulation.add_consumer()
        second = simulation.add_consumer()
        f1 = first.library.submit(kernels.PRIME_COUNT, args=[200])
        f2 = second.library.submit(kernels.PRIME_COUNT, args=[300])
        simulation.run(max_time=1e4)
        assert f1.result(0) == kernels.python_prime_count(200)
        assert f2.result(0) == kernels.python_prime_count(300)

    def test_workload_larger_than_pool_queues_and_drains(self):
        simulation = build(spec={"sbc": 1})  # single slot
        consumer = simulation.add_consumer()
        workload = prime_count(tasks=10, limit=200)
        futures = consumer.library.map(workload.program, workload.args_list)
        simulation.run(max_time=1e5)
        assert all(f.result(0) == workload.expected[0] for f in futures)
        assert simulation.broker.stats.replicas_queued > 0

    def test_run_with_no_work_returns_immediately(self):
        simulation = build()
        assert simulation.run(max_time=100.0) == 0.0


class TestDeterminism:
    def _run_once(self, seed):
        simulation = build(seed=seed, spec={"desktop": 2, "smartphone": 2})
        consumer = simulation.add_consumer()
        workload = prime_count(tasks=8, limit=300)
        futures = consumer.library.map(
            workload.program, workload.args_list, qoc=QoC.reliable(redundancy=2)
        )
        stop = simulation.run(max_time=1e4)
        values = [future.wait(0).value for future in futures]
        return stop, values, simulation.messages_delivered

    def test_identical_seeds_identical_runs(self):
        assert self._run_once(5) == self._run_once(5)

    def test_different_seeds_differ_somewhere(self):
        stop_a, _values_a, messages_a = self._run_once(5)
        stop_b, _values_b, messages_b = self._run_once(6)
        assert (stop_a, messages_a) != (stop_b, messages_b)


class TestQoCEndToEnd:
    def test_redundancy_runs_on_distinct_providers(self):
        simulation = build(spec={"desktop": 3})
        consumer = simulation.add_consumer()
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[300], qoc=QoC.reliable(redundancy=3)
        )
        simulation.run(max_time=1e4)
        outcome = future.wait(0)
        assert outcome.ok
        providers = {record.provider_id for record in outcome.executions}
        assert len(providers) >= 2

    def test_voting_rejects_minority_corruption(self):
        simulation = Simulation(seed=3)
        pool = make_pool({"desktop": 3}, seed=3)
        simulation.add_provider(
            pool[0],
            failure_model=ExecutionFailureModel(
                corrupt_probability=1.0, rng=random.Random(1)
            ),
        )
        for config in pool[1:]:
            simulation.add_provider(config)
        consumer = simulation.add_consumer()
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[300], qoc=QoC.reliable(redundancy=3)
        )
        simulation.run(max_time=1e4)
        assert future.result(0) == kernels.python_prime_count(300)

    def test_local_only_runs_without_any_provider(self):
        simulation = Simulation(seed=1)  # deliberately empty pool
        consumer = simulation.add_consumer()
        future = consumer.library.submit(
            kernels.PRIME_COUNT, args=[100], qoc=QoC.private()
        )
        assert future.result(0) == kernels.python_prime_count(100)

    def test_deadline_triggers_reissue(self):
        simulation = Simulation(
            seed=2,
            broker_config=BrokerConfig(execution_timeout=None, heartbeat_tolerance=1e9),
        )
        # One provider that drops everything, one honest.
        pool = make_pool({"desktop": 2}, seed=2)
        simulation.add_provider(
            pool[0],
            failure_model=ExecutionFailureModel(
                drop_probability=1.0, rng=random.Random(5)
            ),
        )
        simulation.add_provider(pool[1])
        consumer = simulation.add_consumer()
        futures = [
            consumer.library.submit(
                kernels.PRIME_COUNT,
                args=[200],
                qoc=QoC(max_attempts=4, deadline_s=1.0),
            )
            for _ in range(4)
        ]
        simulation.run(max_time=1e4)
        assert all(f.wait(0).ok for f in futures)


class TestFailuresEndToEnd:
    def test_provider_crash_recovered_by_reissue(self):
        simulation = Simulation(
            seed=4,
            broker_config=BrokerConfig(
                heartbeat_interval=0.5, heartbeat_tolerance=2.0, execution_timeout=5.0
            ),
        )
        # Slow provider that dies mid-workload and never returns.
        dying = ProviderConfig(
            device_class="desktop", capacity=1, speed_ips=50e3, heartbeat_interval=0.5
        )
        healthy = ProviderConfig(
            device_class="desktop", capacity=1, speed_ips=50e3, heartbeat_interval=0.5
        )
        simulation.add_provider(dying, churn=TraceChurn([(True, 1.0), (False, 1e12)]))
        simulation.add_provider(healthy)
        consumer = simulation.add_consumer()
        workload = prime_count(tasks=8, limit=700)
        futures = consumer.library.map(
            workload.program, workload.args_list, qoc=QoC(max_attempts=5)
        )
        simulation.run(max_time=1e4)
        assert all(f.wait(0).ok for f in futures)
        assert simulation.broker.stats.providers_failed >= 1

    def test_flapping_provider_recovered_via_reregistration(self):
        simulation = Simulation(
            seed=7,
            broker_config=BrokerConfig(
                heartbeat_interval=0.5,
                heartbeat_tolerance=4.0,  # detector slower than the flap
                execution_timeout=30.0,
            ),
        )
        flapper = ProviderConfig(
            device_class="desktop", capacity=1, speed_ips=20e3, heartbeat_interval=0.5
        )
        simulation.add_provider(
            flapper,
            churn=TraceChurn([(True, 1.0), (False, 0.4), (True, 1e12)]),
        )
        consumer = simulation.add_consumer()
        workload = prime_count(tasks=2, limit=800)  # ~2.8s each: spans the flap
        futures = consumer.library.map(
            workload.program, workload.args_list, qoc=QoC(max_attempts=5)
        )
        stop = simulation.run(max_time=1e4)
        assert all(f.wait(0).ok for f in futures)
        # Recovery came from crash-on-reregister, well before the 30s timeout.
        assert stop < 25.0
        assert simulation.broker.stats.executions_lost >= 1

    def test_no_providers_and_no_retry_budget_times_out_cleanly(self):
        simulation = Simulation(
            seed=1, broker_config=BrokerConfig(execution_timeout=None)
        )
        consumer = simulation.add_consumer()
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[100])
        stop = simulation.run(max_time=50.0)
        assert stop == 50.0
        assert not future.done  # still queued: honest "no answer yet"

    def test_dropped_messages_counted(self):
        simulation = Simulation(seed=9)
        config = ProviderConfig(device_class="desktop", capacity=1, speed_ips=50e3)
        simulation.add_provider(
            config, churn=TraceChurn([(True, 0.5), (False, 1e12)])
        )
        consumer = simulation.add_consumer()
        consumer.library.submit(kernels.PRIME_COUNT, args=[2000])
        simulation.run(max_time=30.0)
        assert simulation.messages_dropped > 0
