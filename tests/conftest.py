"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.common.serde import packed
from repro.core import kernels
from repro.tvm.compiler import compile_source

# Compiling is pure; share compiled kernels across the whole session.


@pytest.fixture(scope="session")
def mandelbrot_program():
    return compile_source(kernels.MANDELBROT_ROW)


@pytest.fixture(scope="session")
def prime_program():
    return compile_source(kernels.PRIME_COUNT)


@pytest.fixture(scope="session")
def fib_program():
    return compile_source(kernels.FIBONACCI)


@pytest.fixture(scope="session")
def matmul_program():
    return compile_source(kernels.MATMUL_TILE)


def compile_main(body: str, signature: str = "() -> int"):
    """Compile a one-function program ``func main{signature} { body }``."""
    return compile_source(f"func main{signature} {{ {body} }}")


def packed_document(document) -> bytes:
    """The bytes ``document`` travels as where a packed program is expected
    — for the tests that need one no compiler emits."""
    return packed(document)


@pytest.fixture
def make_simulation():
    """Factory for small simulations with a standard pool."""
    from repro.sim import Simulation, make_pool

    def build(seed: int = 1, spec: dict | None = None, **kwargs):
        simulation = Simulation(seed=seed, **kwargs)
        for config in make_pool(spec or {"desktop": 2}, seed=seed):
            simulation.add_provider(config)
        return simulation

    return build
