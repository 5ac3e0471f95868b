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


#: Generators by name, for harness configuration.
WORKLOADS = {
    "matmul_tiles": matmul_tiles,
    "prime_count": prime_count,
}
