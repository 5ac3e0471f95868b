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
