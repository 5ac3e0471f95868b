"""Microbenchmarks guarding the cost of the telemetry subsystem.

Two claims are kept honest here:

1. *Disabled telemetry is free.*  Every instrumented hot path reduces to
   one ``is not None`` test when no :class:`~repro.obs.Telemetry` is
   attached.  Since the un-instrumented code no longer exists as a
   baseline, we assert the next best measurable property: a workload run
   with telemetry **disabled** must not be slower than the same run with
   telemetry fully **enabled** beyond measurement noise (5%) — if the
   disabled guards cost anything real, this inverts.
2. *Enabled telemetry is cheap enough to leave on.*  The enabled run is
   benchmarked alongside the disabled one so a regression in either
   path shows up in the pytest-benchmark tables.

The flight recorder's per-event guard gets the same treatment at the
event-emission level.
"""

import time

from repro.core import kernels
from repro.obs import Telemetry
from repro.sim.devices import make_pool
from repro.sim.runner import Simulation


def run_sim_workload(telemetry, tasks=6, limit=300):
    simulation = Simulation(seed=3, telemetry=telemetry)
    for config in make_pool({"desktop": 2}, seed=3):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    futures = consumer.library.map(kernels.PRIME_COUNT, [[limit]] * tasks)
    simulation.run(max_time=1e5)
    assert all(future.done and future.wait(0).ok for future in futures)


def interleaved_best_of(first, second, rounds=5):
    """Best wall time of each callable, alternating to average out drift."""
    best_first = best_second = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        first()
        best_first = min(best_first, time.perf_counter() - start)
        start = time.perf_counter()
        second()
        best_second = min(best_second, time.perf_counter() - start)
    return best_first, best_second


def test_disabled_telemetry_within_noise_of_enabled():
    """The disabled guards must cost less than full instrumentation."""
    # Warm both paths (imports, program cache, code objects).
    run_sim_workload(None)
    run_sim_workload(Telemetry())
    disabled, enabled = interleaved_best_of(
        lambda: run_sim_workload(None),
        lambda: run_sim_workload(Telemetry()),
    )
    assert disabled <= enabled * 1.05, (
        f"telemetry-disabled run ({disabled * 1e3:.1f}ms) slower than "
        f"enabled run ({enabled * 1e3:.1f}ms) beyond 5% noise"
    )


def run_workflow_workload(telemetry, width=3, depth=2, work=120):
    """A small DAG through the full stack — the workflow tracing path."""
    from repro.dag.patterns import stencil

    simulation = Simulation(seed=3, telemetry=telemetry)
    for config in make_pool({"desktop": 2}, seed=3):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    handle = consumer.submit_workflow(stencil(width, depth, work=work))
    simulation.run(max_time=1e5)
    assert handle.result(0)


def test_workflow_tracing_disabled_within_noise_of_enabled():
    """Workflow tracing (wf.node spans, trace propagation through the
    DAG release path and forwarding hooks) must keep the tracing-off run
    at least as fast as the fully traced one, within 5% noise."""
    run_workflow_workload(None)
    run_workflow_workload(Telemetry())  # warm both paths
    disabled, enabled = interleaved_best_of(
        lambda: run_workflow_workload(None),
        lambda: run_workflow_workload(Telemetry()),
    )
    assert disabled <= enabled * 1.05, (
        f"tracing-disabled workflow run ({disabled * 1e3:.1f}ms) slower "
        f"than traced run ({enabled * 1e3:.1f}ms) beyond 5% noise"
    )


def test_event_emission_disabled_guard_is_free():
    """Per-event emission reduces to one ``is not None`` test when off.

    The cores guard every flight-recorder emission with the same check;
    this measures that guard against real ring appends.
    """
    from repro.obs.events import FlightRecorder

    def spin(events, n=100_000):
        total = 0
        for i in range(n):
            if events is not None:
                events.record("placement", node="p1", ts=float(i))
            total += i
        return total

    spin(None), spin(FlightRecorder())  # warm
    disabled, enabled = interleaved_best_of(
        lambda: spin(None), lambda: spin(FlightRecorder())
    )
    assert disabled <= enabled * 1.05, (
        f"event-emission-disabled loop ({disabled * 1e3:.2f}ms) slower "
        f"than recording loop ({enabled * 1e3:.2f}ms) beyond 5% noise"
    )


def test_sim_workload_telemetry_disabled(benchmark):
    benchmark.pedantic(lambda: run_sim_workload(None), rounds=3, iterations=1)


def test_sim_workload_telemetry_enabled(benchmark):
    benchmark.pedantic(
        lambda: run_sim_workload(Telemetry()), rounds=3, iterations=1
    )
