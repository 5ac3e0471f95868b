"""Workload generators for the evaluation.

Each generator produces a :class:`Workload`: one compiled program plus a
list of argument tuples — the bag-of-tasks shape all Tasklet experiments
use.  Generators are deterministic in their parameters (and seed, where
randomness is involved), so every experiment run sees the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..core import kernels
from ..core.programs import compiled
from ..tvm.bytecode import CompiledProgram


@dataclass
class Workload:
    """A bag of tasks over one program."""

    name: str
    program: CompiledProgram
    entry: str
    args_list: list[list[Any]]
    #: Optional oracle: expected result per task (None when not cheap).
    expected: list[Any] | None = None

    def __len__(self) -> int:
        return len(self.args_list)


def mandelbrot(width: int = 128, height: int = 96, max_iter: int = 64) -> Workload:
    """Fractal rendering: one Tasklet per image row (heterogeneous task
    sizes — rows near the set's interior iterate far more)."""
    program = compiled(kernels.MANDELBROT_ROW)
    args_list = [[y, width, height, max_iter] for y in range(height)]
    return Workload(
        name=f"mandelbrot-{width}x{height}i{max_iter}",
        program=program,
        entry="main",
        args_list=args_list,
    )


def monte_carlo_pi(tasks: int = 64, samples_per_task: int = 20_000) -> Workload:
    """Monte-Carlo π: homogeneous task sizes (the load-balancing control)."""
    program = compiled(kernels.MONTE_CARLO_PI)
    args_list = [[samples_per_task] for _ in range(tasks)]
    return Workload(
        name=f"mcpi-{tasks}x{samples_per_task}",
        program=program,
        entry="main",
        args_list=args_list,
    )


def matmul_tiles(tiles: int = 32, n: int = 12, seed: int = 0) -> Workload:
    """Dense linear-algebra tiles with random inputs (data-heavy tasks:
    arguments and results dominate message size)."""
    rng = random.Random(seed)
    program = compiled(kernels.MATMUL_TILE)
    args_list = []
    expected = []
    for _ in range(tiles):
        a = [rng.uniform(-1, 1) for _ in range(n * n)]
        b = [rng.uniform(-1, 1) for _ in range(n * n)]
        args_list.append([a, b, n])
        expected.append(kernels.python_matmul_tile(a, b, n))
    return Workload(
        name=f"matmul-{tiles}x{n}",
        program=program,
        entry="main",
        args_list=args_list,
        expected=expected,
    )


def prime_count(tasks: int = 32, limit: int = 3000) -> Workload:
    """Pure integer compute, identical task sizes (benchmark kernel)."""
    program = compiled(kernels.PRIME_COUNT)
    args_list = [[limit] for _ in range(tasks)]
    return Workload(
        name=f"primes-{tasks}x{limit}",
        program=program,
        entry="main",
        args_list=args_list,
        expected=[kernels.python_prime_count(limit)] * tasks,
    )


def integration(tasks: int = 48, steps: int = 2000) -> Workload:
    """Numeric integration split into per-task subintervals."""
    program = compiled(kernels.NUMERIC_INTEGRATION)
    span = 12.0
    width = span / tasks
    args_list = [
        [i * width, (i + 1) * width, steps] for i in range(tasks)
    ]
    return Workload(
        name=f"integration-{tasks}x{steps}",
        program=program,
        entry="main",
        args_list=args_list,
    )


def mixed(seed: int = 0, scale: int = 1) -> Workload:
    """A shuffled mix of small and large prime-count tasks.

    Models the long-tailed task-size distributions of real deployments;
    used by the scheduling experiments to create stragglers.
    """
    rng = random.Random(seed)
    program = compiled(kernels.PRIME_COUNT)
    sizes = [800] * (24 * scale) + [4000] * (8 * scale) + [12000] * (2 * scale)
    rng.shuffle(sizes)
    return Workload(
        name=f"mixed-{scale}",
        program=program,
        entry="main",
        args_list=[[size] for size in sizes],
    )


#: Generators by name, for harness configuration.
WORKLOADS = {
    "mandelbrot": mandelbrot,
    "monte_carlo_pi": monte_carlo_pi,
    "matmul_tiles": matmul_tiles,
    "prime_count": prime_count,
    "integration": integration,
    "mixed": mixed,
}
