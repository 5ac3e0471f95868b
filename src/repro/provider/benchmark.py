"""Provider self-benchmarking.

On startup a provider measures how fast its TVM actually executes —
*instructions per second* on a standard integer kernel — and reports the
score when registering.  The broker's speed-aware scheduling (the
``speed`` QoC goal and Table 1) is built on these scores, later refined by
the EWMA of observed execution rates.

Using a *TVM-level* metric rather than a hardware one (MHz, FLOPS) is the
point: it captures the whole stack the Tasklet will actually run on — CPU,
VM implementation, interpreter warm-up — in a single comparable number,
which is how the Tasklet system makes heterogeneous devices commensurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.kernels import PRIME_COUNT
from ..tvm.compiler import compile_source
from .executor import TaskletExecutor, local_assignment

#: Default argument to the prime-count benchmark kernel; ~1.5M TVM
#: instructions, long enough to dominate compile/startup noise on any
#: realistic host.
DEFAULT_BENCHMARK_LIMIT = 4000


@dataclass(frozen=True)
class BenchmarkReport:
    """Result of one self-benchmark run."""

    instructions: int
    elapsed_s: float
    score: float  # instructions / second

    def describe(self) -> str:
        return (
            f"{self.score / 1e6:.2f} M instr/s "
            f"({self.instructions} instr in {self.elapsed_s * 1e3:.1f} ms)"
        )


def run_benchmark(
    limit: int = DEFAULT_BENCHMARK_LIMIT, repetitions: int = 3
) -> BenchmarkReport:
    """Measure this host's TVM speed.

    Runs the prime-count kernel ``repetitions`` times and keeps the
    *fastest* run: the minimum is the standard estimator for "speed absent
    interference", which is what the scheduler wants to know.
    """
    if limit < 10:
        raise ValueError(f"benchmark limit too small: {limit}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    # Measure TaskletExecutor.execute itself, program cache warm: that is
    # what assigned Tasklets run on, so the reported instructions/second
    # is the speed the broker's observed-rate EWMA will then see.
    program = compile_source(PRIME_COUNT)
    executor = TaskletExecutor()
    executor.execute(local_assignment(program, [10]))
    request = local_assignment(program, [limit])
    best_elapsed = float("inf")
    instructions = 0
    for _ in range(repetitions):
        started = time.perf_counter()
        outcome = executor.execute(request)
        elapsed = time.perf_counter() - started
        if not outcome.ok:
            raise RuntimeError(f"self-benchmark failed: {outcome.error}")
        if elapsed < best_elapsed:
            best_elapsed = elapsed
            instructions = outcome.instructions
    # Guard against a pathological 0-duration clock reading.
    best_elapsed = max(best_elapsed, 1e-9)
    return BenchmarkReport(
        instructions=instructions,
        elapsed_s=best_elapsed,
        score=instructions / best_elapsed,
    )
