"""Distributed fractal rendering: the paper's bag-of-tasks showcase.

Renders a Mandelbrot set by fanning one Tasklet per image row across a
heterogeneous provider pool, then compares scheduling strategies — the
heterogeneity-aware fastest-first placement against oblivious random
placement — on the same pool and workload.

The rows near the set's interior iterate far more than the edge rows, so
the workload has a natural long tail: exactly the situation where putting
a heavy row on a single-board computer wrecks the makespan.

Run:  python examples/mandelbrot_rendering.py
"""

from repro import QoC, Simulation, make_pool
from repro.core.kernels import MANDELBROT_ROW

WIDTH, HEIGHT, MAX_ITER = 72, 28, 60
POOL = {"server": 1, "desktop": 2, "smartphone": 3, "sbc": 2}
PALETTE = " .:-=+*#%@"


def render(strategy: str, qoc: QoC) -> tuple[list[list[int]], float, int]:
    """Render the full image on a fresh simulated deployment."""
    simulation = Simulation(seed=7, strategy=strategy)
    for config in make_pool(POOL, seed=7):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    futures = consumer.library.map(
        MANDELBROT_ROW,
        [[y, WIDTH, HEIGHT, MAX_ITER] for y in range(HEIGHT)],
        qoc=qoc,
    )
    makespan = simulation.run()
    rows = [future.result(0) for future in futures]
    return rows, makespan, simulation.broker.stats.executions_issued


def to_ascii(rows: list[list[int]]) -> str:
    lines = []
    for row in rows:
        line = "".join(
            PALETTE[min(len(PALETTE) - 1, iterations * len(PALETTE) // (MAX_ITER + 1))]
            for iterations in row
        )
        lines.append(line)
    return "\n".join(lines)


def main() -> None:
    results = {}
    reference_rows = None
    for strategy, qoc in (
        ("round_robin", QoC()),
        ("random", QoC()),
        ("least_loaded", QoC()),
        ("fastest_first", QoC.fast()),
    ):
        rows, makespan, _ = render(strategy, qoc)
        if reference_rows is None:
            reference_rows = rows
        assert rows == reference_rows, "strategies must not change the image"
        results[strategy] = makespan

    print(to_ascii(reference_rows))
    print()
    print(f"pool            : {POOL}")
    print(f"rows (tasklets) : {HEIGHT}")
    for strategy, makespan in sorted(results.items(), key=lambda kv: kv[1]):
        print(f"  {strategy:<14}: {makespan * 1e3:7.1f} ms")
    print(
        "\n(one pool, one seed — for the statistically meaningful strategy\n"
        " comparison across repeats and a larger long-tailed workload, run\n"
        " the F4 experiment: pytest benchmarks/bench_experiments.py -k F4)"
    )


if __name__ == "__main__":
    main()
