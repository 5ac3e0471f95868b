"""The public API surface: imports, __all__, README contract."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.common",
    "repro.tvm",
    "repro.core",
    "repro.transport",
    "repro.transport.tcp",
    "repro.transport.aio",
    "repro.broker",
    "repro.provider",
    "repro.provider.process",
    "repro.consumer",
    "repro.sim",
    "repro.bench",
    "repro.bench.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    importlib.import_module(name)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module_name",
    ["repro", "repro.tvm", "repro.core", "repro.broker", "repro.sim"],
)
def test_package_all_lists_are_accurate(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_readme_quickstart_contract():
    """The exact snippet advertised in README.md must work."""
    from repro import QoC, Simulation, make_pool

    simulation = Simulation(seed=42)
    for config in make_pool({"desktop": 2, "smartphone": 3}):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()

    future = consumer.library.submit(
        "func main(n: int) -> int { return n * n; }",
        args=[12],
        qoc=QoC.reliable(redundancy=3),
    )
    simulation.run()
    assert future.result(0) == 144


def test_module_docstring_example():
    """The doctest-style example in repro/__init__ must hold."""
    from repro import compile_source, execute

    program = compile_source("func main(n: int) -> int { return n * n; }")
    result, stats = execute(program, "main", [12])
    assert result == 144
    assert stats.instructions > 0


def test_every_public_module_has_a_docstring():
    import pkgutil

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        assert module.__doc__, f"{info.name} lacks a module docstring"


#: Every value a deployment, an experiment or a test seam may set, by
#: surface (70 in all); anything else is a module constant.  A new knob
#: must be added to this list, in the same change as the caller outside
#: tests that sets it.
SETTABLE = {
    "repro.broker.core.BrokerConfig": (
        "heartbeat_interval", "heartbeat_tolerance", "execution_timeout",
        "learn_speed", "pipeline_depth",
    ),
    "repro.broker.federation.FederationConfig": (
        "peers", "gossip_interval", "peer_journals", "epoch",
    ),
    "repro.provider.core.ProviderConfig": (
        "device_class", "capacity", "speed_ips", "benchmark_score", "price",
        "heartbeat_interval", "startup_overhead_s",
    ),
    "repro.transport.aio.TcpBroker": (
        "host", "port", "strategy", "config", "telemetry", "obs_port", "obs_host",
        "journal_path", "journal_sync", "journal_compact_records", "broker_id", "peers",
        "peer_journals", "peer_obs_urls", "gossip_interval",
    ),
    "repro.transport.tcp.TcpProvider": (
        "broker_host", "broker_port", "capacity", "device_class", "node_id",
        "benchmark_score", "heartbeat_interval", "price", "reconnect", "telemetry",
        "obs_port", "obs_host", "brokers",
    ),
    "repro.transport.tcp.TcpConsumer": (
        "broker_host", "broker_port", "node_id", "base_seed", "on_disconnect",
        "telemetry", "brokers",
    ),
    "repro.broker.journal.WorkJournal": ("path", "fsync", "auto_compact_records"),
    "repro.obs.health.HealthModel": (),
    "repro.obs.health.StragglerWatchdog": (),
    "repro.obs.events.FlightRecorder": ("capacity", "jsonl_path"),
    "repro.obs.telemetry.Telemetry": ("events",),
    "repro.provider.executor.TaskletExecutor": ("cache_size", "metrics"),
    "repro.sim.runner.Simulation": (
        "seed", "strategy", "network", "broker_config", "telemetry", "journal",
    ),
    "repro.tvm.compiler.compile_source": ("source",),
    "repro.tvm.vm.TVM": ("program", "limits", "seed", "verify"),
}


@pytest.mark.parametrize("surface", sorted(SETTABLE))
def test_every_settable_value_is_in_the_census(surface):
    import dataclasses
    import inspect

    module_name, _, name = surface.rpartition(".")
    cls = getattr(importlib.import_module(module_name), name)
    if dataclasses.is_dataclass(cls):
        names = tuple(field.name for field in dataclasses.fields(cls))
    else:
        names = tuple(inspect.signature(cls).parameters)
    assert names == SETTABLE[surface]
