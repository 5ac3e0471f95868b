"""F1 — TVM interpretation overhead vs native execution.

The paper quantifies what hardware independence costs: the same kernel
executed inside the Tasklet Virtual Machine versus natively.  Our
"native" baseline is the host language (pure Python) — the substitution
preserves the measured quantity, namely the multiplicative cost of the
portable bytecode interpretation layer.

The TVM column times :meth:`TaskletExecutor.execute` with a warm program
cache — translated execution (:mod:`repro.tvm.translate`), the engine
providers run assigned Tasklets on; the portable interpreter it restarts
on is the ``portable`` column, so the translation win stays visible here
alongside the BENCH_vm.json perf guard.

Shape claims: the TVM is consistently slower than native (factor > 1),
the factor is bounded (interpretation, not pathology — geometric mean
within [3x, 300x]), and it is roughly *constant across input sizes* for a
given kernel (linear-time interpretation).
"""

from __future__ import annotations

import time

from ...core import kernels
from ...provider.executor import TaskletExecutor, local_assignment
from ...tvm.compiler import compile_source
from ...tvm.vm import TVM
from ..harness import Experiment, Table, geometric_mean

#: kernel name -> (source, native callable, quick args, full args)
_CASES = {
    "mandelbrot_row": (
        kernels.MANDELBROT_ROW,
        kernels.python_mandelbrot_row,
        [24, 64, 48, 40],
        [24, 192, 144, 120],
    ),
    "matmul_tile": (
        kernels.MATMUL_TILE,
        kernels.python_matmul_tile,
        [[float(i % 7) for i in range(100)], [float(i % 5) for i in range(100)], 10],
        [[float(i % 7) for i in range(400)], [float(i % 5) for i in range(400)], 20],
    ),
    "fibonacci": (kernels.FIBONACCI, kernels.python_fibonacci, [16], [21]),
    "prime_count": (
        kernels.PRIME_COUNT,
        kernels.python_prime_count,
        [2500],
        [12000],
    ),
    "integration": (
        kernels.NUMERIC_INTEGRATION,
        kernels.python_numeric_integration,
        [0.0, 10.0, 4000],
        [0.0, 10.0, 40000],
    ),
}


def _time_of(callable_, repetitions: int = 3) -> float:
    """Fastest-of-N wall time of ``callable_()`` in seconds."""
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def run(quick: bool = True) -> Experiment:
    table = Table(
        title="F1: TVM execution overhead vs native (host Python)",
        columns=[
            "kernel", "native ms", "TVM ms", "portable ms", "slowdown", "Minstr/s"
        ],
    )
    slowdowns = []
    translated_only = True
    for name, (source, native, quick_args, full_args) in _CASES.items():
        args = quick_args if quick else full_args
        program = compile_source(source)

        native_s = _time_of(lambda: native(*args))

        executor = TaskletExecutor()
        request = local_assignment(program, args)
        instructions = executor.execute(request).instructions  # fills the cache

        tvm_s = _time_of(lambda: executor.execute(request))
        translated_only &= executor.restarts == 0 and executor.declined_programs == 0
        portable_s = _time_of(lambda: TVM(program).run("main", list(args)))
        slowdown = tvm_s / native_s if native_s > 0 else float("inf")
        slowdowns.append(slowdown)
        table.add_row(
            name,
            native_s * 1e3,
            tvm_s * 1e3,
            portable_s * 1e3,
            slowdown,
            instructions / tvm_s / 1e6,
        )
    table.add_note(
        "substitution: 'native' is host-language Python, not compiled C; "
        "the measured quantity is the cost of the portable VM layer"
    )
    table.add_note(
        "overhead is measured on translated execution (what providers run); "
        "'portable ms' is the interpreter it restarts on, same results and "
        "instruction counts by construction"
    )

    experiment = Experiment("F1", table)
    experiment.check(
        "the TVM column is translated execution (no kernel declined or restarted)",
        translated_only,
    )
    experiment.check(
        "TVM is slower than native for every kernel (slowdown > 1)",
        all(s > 1.0 for s in slowdowns),
        detail=f"min={min(slowdowns):.1f}x",
    )
    gmean = geometric_mean(slowdowns)
    experiment.check(
        "geometric-mean slowdown is bounded interpretation cost (3x-300x)",
        3.0 <= gmean <= 300.0,
        detail=f"gmean={gmean:.1f}x",
    )
    spread = max(slowdowns) / min(slowdowns)
    experiment.check(
        "slowdown is kernel-dependent but within one order of magnitude",
        spread <= 10.0,
        detail=f"max/min={spread:.1f}",
    )
    return experiment
