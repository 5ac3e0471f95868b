"""End-to-end telemetry over the in-process simulator.

One telemetered simulation run must yield (a) a complete span tree —
consumer root, broker tasklet span, one ``broker.assign`` per replica,
one ``provider.execute`` per executed replica — and (b) a Prometheus
exposition containing the broker, provider, and consumer families.
"""

import pytest

from repro.core import kernels
from repro.core.qoc import QoC
from repro.obs import Telemetry, build_trace_tree, parse_prometheus
from repro.sim.devices import make_pool
from repro.sim.runner import Simulation


def run_sim(telemetry, tasks=3, redundancy=1, limit=200):
    simulation = Simulation(seed=7, telemetry=telemetry)
    for config in make_pool({"desktop": 2, "smartphone": 1}, seed=7):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    qoc = QoC.reliable(redundancy=redundancy) if redundancy > 1 else QoC()
    futures = consumer.library.map(
        kernels.PRIME_COUNT, [[limit]] * tasks, qoc=qoc
    )
    simulation.run(max_time=1e5)
    assert all(future.done and future.wait(0).ok for future in futures)
    return simulation


@pytest.fixture
def telemetry():
    return Telemetry()


def test_each_tasklet_is_one_complete_span_tree(telemetry):
    run_sim(telemetry, tasks=3)
    spans = telemetry.spans.spans()
    trace_ids = {span.trace_id for span in spans}
    assert len(trace_ids) == 3
    for trace_id in trace_ids:
        roots = build_trace_tree([s for s in spans if s.trace_id == trace_id])
        assert len(roots) == 1, "every span must parent back to the root"
        root = roots[0]
        assert root.span.name == "tasklet"
        assert root.span.status == "ok"
        assert [c.span.name for c in root.children] == ["broker.tasklet"]
        broker_node = root.children[0]
        assert broker_node.span.node == "broker"
        for assign in broker_node.children:
            assert assign.span.name == "broker.assign"
            for execute in assign.children:
                assert execute.span.name == "provider.execute"
                assert execute.span.attrs["execution_id"]


def test_redundant_replicas_share_the_root(telemetry):
    run_sim(telemetry, tasks=1, redundancy=3)
    spans = telemetry.spans.spans()
    roots = build_trace_tree(spans)
    assert len(roots) == 1
    assigns = roots[0].children[0].children
    assert len(assigns) == 3
    providers = {
        execute.span.node for assign in assigns for execute in assign.children
    }
    assert len(providers) >= 2, "replicas execute on distinct providers"


def test_exposition_contains_all_subsystem_families(telemetry):
    run_sim(telemetry, tasks=2)
    text = telemetry.registry.render_prometheus()
    names = {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")}
    for expected in (
        "repro_broker_tasklets_submitted_total",
        "repro_broker_tasklets_completed_total",
        "repro_broker_executions_issued_total",
        "repro_broker_placements_total",
        "repro_broker_pending_tasklets",
        "repro_provider_executions_total",
        "repro_provider_busy_slots",
        "repro_provider_execution_seconds",
        "repro_provider_program_cache_total",
        "repro_consumer_tasklets_submitted_total",
        "repro_consumer_tasklets_completed_total",
        "repro_consumer_latency_seconds",
    ):
        assert expected in names, f"missing family {expected}"


def test_counters_agree_with_the_run(telemetry):
    run_sim(telemetry, tasks=4)
    parsed = parse_prometheus(telemetry.registry.render_prometheus())
    assert parsed["repro_broker_tasklets_submitted_total"][""] == 4
    assert parsed["repro_broker_tasklets_completed_total"]['outcome="ok"'] == 4
    assert parsed["repro_consumer_tasklets_submitted_total"][""] == 4
    assert parsed["repro_consumer_tasklets_completed_total"]['outcome="ok"'] == 4
    assert parsed["repro_consumer_latency_seconds_count"][""] == 4
    # Every issued execution folded into a terminal result.
    issued = parsed["repro_broker_executions_issued_total"][""]
    results = sum(parsed["repro_broker_execution_results_total"].values())
    assert issued == results
    executed = sum(parsed["repro_provider_executions_total"].values())
    assert executed == issued
    # The pending gauge drains back to zero once the run completes.
    assert parsed["repro_broker_pending_tasklets"][""] == 0


def test_program_cache_hits_on_repeated_program(telemetry):
    run_sim(telemetry, tasks=4)
    parsed = parse_prometheus(telemetry.registry.render_prometheus())
    cache = parsed["repro_provider_program_cache_total"]
    assert cache['result="miss"'] >= 1
    assert cache['result="hit"'] >= 1


def test_simulation_without_telemetry_records_nothing():
    simulation = run_sim(None, tasks=1)
    assert simulation.telemetry is None
