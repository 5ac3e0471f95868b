"""The experiments' shared simulation plumbing."""

import random


from repro.bench.simlib import RunOutcome, run_workload
from repro.broker.core import BrokerConfig
from repro.core.qoc import QoC
from repro.obs import Telemetry, parse_prometheus
from repro.provider.failure import ExecutionFailureModel
from repro.sim.churn import TraceChurn
from repro.sim.devices import make_config, make_pool
from repro.sim.workloads import prime_count


def small_run(**kwargs):
    defaults = dict(
        workload=prime_count(tasks=6, limit=300),
        pool=make_pool({"desktop": 2}, seed=1),
        qoc=QoC(),
        seed=1,
        broker_config=BrokerConfig(execution_timeout=None),
    )
    defaults.update(kwargs)
    return run_workload(**defaults)


def test_successful_run_summary():
    outcome = small_run()
    assert outcome.succeeded == 6
    assert outcome.failed == 0
    assert outcome.success_rate == 1.0
    assert outcome.makespan > 0
    assert outcome.executions_issued == 6
    assert outcome.correct is True
    assert outcome.wrong_values == 0
    assert len(outcome.latencies) == 6
    assert outcome.latency_p50 <= outcome.latency_p95
    assert outcome.provider_seconds > 0
    assert outcome.messages > 0


def test_metrics_opt_in():
    """Busy utilization is exact on every run; the sampled timeline runs
    only for a telemetry registry, which reads the run's counters too."""
    without = small_run()
    assert 0.0 < without.pool_busy_utilization <= 1.0
    telemetry = Telemetry()
    with_metrics = small_run(telemetry=telemetry)
    assert with_metrics.pool_busy_utilization == without.pool_busy_utilization
    parsed = parse_prometheus(telemetry.registry.render_prometheus())
    assert parsed["repro_sim_samples"][""] > 0
    assert parsed["repro_broker_executions_issued_total"][""] == with_metrics.executions_issued


def test_failure_for_targets_pool_index():
    outcome = small_run(
        pool=make_pool({"desktop": 2}, seed=1),
        failure_for={
            0: ExecutionFailureModel(drop_probability=1.0, rng=random.Random(1)),
            1: ExecutionFailureModel(drop_probability=1.0, rng=random.Random(2)),
        },
        broker_config=BrokerConfig(execution_timeout=0.5),
        qoc=QoC(max_attempts=1),
        max_time=100.0,
    )
    assert outcome.succeeded == 0
    assert outcome.success_rate == 0.0
    assert outcome.makespan == float("inf")


def test_churn_for_targets_pool_index():
    outcome = small_run(
        pool=[make_config("desktop"), make_config("desktop")],
        churn_for={0: TraceChurn([(True, 0.001), (False, 1e12)])},
        qoc=QoC(max_attempts=4),
        broker_config=BrokerConfig(
            heartbeat_interval=0.2, heartbeat_tolerance=2.0, execution_timeout=2.0
        ),
        max_time=100.0,
    )
    assert outcome.succeeded == 6  # survivor absorbs everything


def test_wrong_values_counted_against_oracle():
    outcome = small_run(
        failure_for={
            0: ExecutionFailureModel(corrupt_probability=1.0, rng=random.Random(3)),
            1: ExecutionFailureModel(corrupt_probability=1.0, rng=random.Random(4)),
        },
    )
    assert outcome.succeeded == 6  # corrupt results still "succeed"
    assert outcome.wrong_values == 6
    assert outcome.correct is False


def test_strategy_accepts_name_or_instance():
    from repro.broker.scheduling import RoundRobinStrategy

    by_name = small_run(strategy="round_robin")
    by_instance = small_run(strategy=RoundRobinStrategy())
    assert by_name.succeeded == by_instance.succeeded == 6


def test_success_rate_of_empty_outcome():
    outcome = RunOutcome(makespan=0.0, succeeded=0, failed=0)
    assert outcome.success_rate == 0.0
    assert outcome.latency_p50 == 0.0
